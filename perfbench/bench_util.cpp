#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "ic/support/metrics.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || samples[hi] == samples[lo]) return samples[lo];  // ±inf safe
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (const double s : samples) total += s;
  return total / static_cast<double>(samples.size());
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::runtime_error("no metric " + name);
  return it->second.first;
}

std::string Metrics::to_json(const std::vector<std::string>& names) const {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values_.find(names[i]);
    if (it == values_.end()) {
      throw std::runtime_error("metric " + names[i] + " was not measured");
    }
    char value[64];
    const double v = std::isfinite(it->second.first) ? it->second.first : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\": {\"value\": " + value + ", \"unit\": \"" +
           it->second.second + "\"}";
  }
  return out + "}";
}

RegistrySnapshot RegistrySnapshot::take(
    const std::vector<std::string>& counter_names,
    const std::vector<std::string>& hist_names) {
  auto& registry = ic::telemetry::MetricsRegistry::global();
  RegistrySnapshot snap;
  for (const auto& name : counter_names) {
    snap.counters[name] = registry.counter(name).value();
  }
  for (const auto& name : hist_names) {
    const auto& hist = registry.histogram(name);
    snap.hist_sum[name] = hist.sum();
    snap.hist_count[name] = hist.count();
  }
  return snap;
}

std::uint64_t RegistrySnapshot::counter_delta(const RegistrySnapshot& before,
                                              const std::string& name) const {
  return counters.at(name) - before.counters.at(name);
}

double RegistrySnapshot::sum_delta(const RegistrySnapshot& before,
                                   const std::string& name) const {
  return hist_sum.at(name) - before.hist_sum.at(name);
}

std::uint64_t RegistrySnapshot::count_delta(const RegistrySnapshot& before,
                                            const std::string& name) const {
  return hist_count.at(name) - before.hist_count.at(name);
}

void RegistryDelta::add(const RegistrySnapshot& before,
                        const RegistrySnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    counters[name] += static_cast<double>(after.counter_delta(before, name));
  }
  for (const auto& [name, value] : after.hist_sum) {
    hist_sum[name] += after.sum_delta(before, name);
    hist_count[name] += static_cast<double>(after.count_delta(before, name));
  }
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Report the first failures on stderr; a broken build can fail every one of
/// hundreds of thousands of requests.
void report(const char* kind, const std::string& why) {
  static std::atomic<std::uint64_t> reported{0};
  if (++reported <= 20) std::fprintf(stderr, "perfbench: %s: %s\n", kind, why.c_str());
}

}  // namespace

void Tally::fail(const std::string& why) {
  ++failed;
  report("failed", why);
}

void Tally::mismatch(const std::string& why) {
  ++failed;
  correct = false;
  report("MISMATCH", why);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  correct = correct && other.correct;
  trace_seconds += other.trace_seconds;
  measured_seconds += other.measured_seconds;
}

}  // namespace perfbench
