// Shared plumbing of perfbench: clocks, exact quantiles, metric
// collection, registry deltas and a digest for cross-run identity checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Exact quantile of raw samples (linear interpolation between order
/// statistics, the "type 7" definition). Never reads a histogram bucket.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// True when `n` samples leave at least ten beyond the q-quantile — the rule
/// for the highest percentile a sample supports.
inline bool supports_quantile(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

/// Named metrics of one run, in first-set order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  /// {"name":{"value":v,"unit":"u"},...} restricted to `names` (all of them
  /// must be present).
  std::string to_json(const std::vector<std::string>& names) const;
  std::vector<std::string> names() const { return order_; }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> order_;
};

/// Point-in-time copy of the process-wide MetricsRegistry: counter values and
/// histogram sums/counts. Deltas of two snapshots attribute work to the phase
/// between them.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> hist_sum;
  std::map<std::string, std::uint64_t> hist_count;

  static RegistrySnapshot take(const std::vector<std::string>& counter_names,
                               const std::vector<std::string>& hist_names);
  std::uint64_t counter_delta(const RegistrySnapshot& before,
                              const std::string& name) const;
  double sum_delta(const RegistrySnapshot& before, const std::string& name) const;
  std::uint64_t count_delta(const RegistrySnapshot& before,
                            const std::string& name) const;
};

/// Sum of registry deltas over several measured windows.
struct RegistryDelta {
  std::map<std::string, double> counters, hist_sum, hist_count;

  void add(const RegistrySnapshot& before, const RegistrySnapshot& after);
};

/// FNV-1a accumulator for identity digests of labels and counters.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  void add_u64(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Everything a phase reports back besides its metrics.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Seconds spent on trace-only work (probes and replays a --trace 0 run
  /// skips), for trace_overhead_share.
  double trace_seconds = 0.0;
  /// Wall seconds of the phase's measured work.
  double measured_seconds = 0.0;

  /// An operation failed (error, rejection, deadline).
  void fail(const std::string& why);
  /// An output differed from its reference: a failure and incorrect.
  void mismatch(const std::string& why);
  void merge(const Tally& other);
};

}  // namespace perfbench
