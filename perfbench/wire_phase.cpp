// Predict traffic over loopback TCP (the "wire" path).
//
// Each round runs two kinds of step on the two long-lived connections World
// opened at set-up, drawing from a seeded pool of (circuit, selection) pairs
// and checking every answer bit for bit:
//   * open-loop steps: one sender thread follows a constant-rate schedule and
//     writes each request without waiting for answers; one receiver thread
//     per connection reads the in-order answers. Latency is timed from a
//     request's *scheduled* send time, so a stall that delays later sends is
//     charged to them (no coordinated omission). They give predict_p50_ms
//     and predict_p99_ms, exact quantiles over all their samples.
//   * a saturation step, closed loop: each connection keeps kWindow requests
//     in flight and sends the next as soon as an answer arrives, so the
//     server is never idle and its queue stays bounded. It gives
//     max_rate_rps, the completion rate the server sustains.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <sstream>
#include <thread>

#include "ic/locking/policy.hpp"
#include "ic/serve/feature_cache.hpp"
#include "ic/serve/wire.hpp"
#include "ic/support/rng.hpp"
#include "phases.hpp"

namespace perfbench {

using ic::circuit::GateId;

namespace {

constexpr double kRefRate = 4000.0;  // reference rate, well below the knee
// Unrecorded load at the head of each step, so every step starts from a
// running server.
constexpr double kOpenWarmupSeconds = 0.25;
constexpr double kSaturationWarmupSeconds = 0.25;
// Threshold of wire.slow_share; quartered, the generator lag that makes an
// open-loop step invalid.
constexpr double kSlowMs = 5.0;
constexpr std::size_t kWindow = 32;         // saturation: in flight per connection
constexpr double kRateWindowSeconds = 0.1;  // saturation: rate sample width
constexpr std::size_t kPoolSize = 2048;      // distinct (circuit, selection)

struct PoolEntry {
  std::size_t circuit = 0;
  ic::serve::WireRequest request;
};

struct StepResult {
  std::size_t sent = 0, succeeded = 0, failed = 0;
  std::size_t completed = 0;  // answered, warm-up included (stage attribution)
  std::vector<double> latency_ms;  // from scheduled send; failures = +inf
  std::vector<double> rtt_ms;      // from actual send start, successes only
  std::vector<double> late_ms;     // send start − schedule
  std::vector<double> own_lag_ms;  // lateness not explained by a blocked send
  double p50_ms = 0.0, p99_ms = 0.0, late_p99_ms = 0.0, own_lag_p99_ms = 0.0;
  bool valid = true;
};

/// Stage histograms the engine and server export, per request.
const std::vector<std::string> kStageNames = {
    "parse", "route", "queue", "batch_admit", "feature_build",
    "spmm",  "dense", "readout", "respond"};

std::vector<std::string> stage_hist_names() {
  std::vector<std::string> names;
  for (const auto& stage : kStageNames) {
    names.push_back("serve.stage." + stage + "_seconds");
  }
  names.push_back("serve.batch_size");
  return names;
}

const std::vector<std::string> kWireCounters = {
    "serve.batches", "serve.feature_cache.hits", "serve.feature_cache.misses"};

/// Failure counters read over the wire from the server's exposition:
/// (Prometheus series, metric name).
const std::vector<std::pair<std::string, std::string>> kPromSeries = {
    {"serve_rejected", "serve.rejected"},
    {"serve_deadline_exceeded", "serve.deadline_exceeded"},
    {"serve_wire_errors", "serve.wire_errors"}};

class WireRun {
 public:
  WireRun(World& world, bool trace)
      : world_(world),
        trace_(trace),
        schedule_rng_(ic::derive_seed(world.seed, kScheduleStream)) {
    ic::Rng rng(ic::derive_seed(world.seed, kPoolStream));
    std::vector<std::vector<GateId>> lockable;
    for (const auto& circuit : world.wire_circuits) {
      lockable.push_back(ic::locking::lockable_gates(*circuit));
    }
    pool_.resize(kPoolSize);
    for (auto& entry : pool_) {
      entry.circuit = rng.index(world.wire_circuits.size());
      const std::size_t k = 1 + rng.index(8);
      entry.request.circuit = world.wire_names[entry.circuit];
      for (const GateId id : draw_selection(lockable[entry.circuit], k, rng,
                                            *world.wire_circuits[entry.circuit])) {
        entry.request.select.push_back(id);
      }
    }
  }

  /// Reference answer of every pool entry, from the one-shard engine. Every
  /// wire answer must match its entry's bits exactly.
  void compute_references(Tally& tally) {
    reference_.resize(pool_.size());
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      ic::serve::PredictRequest request;
      request.circuit = pool_[i].request.circuit;
      request.selection.assign(pool_[i].request.select.begin(),
                               pool_[i].request.select.end());
      const auto result = world_.ref_engine->predict(request);
      if (!result.ok()) tally.fail("reference predict: " + result.error);
      reference_[i] = result.log_runtime;
    }
  }

  /// Open loop at `rate` for kOpenWarmupSeconds (unrecorded), then `seconds`.
  StepResult run_open_loop(double rate, double seconds, Tally& tally);
  /// Closed loop for kSaturationWarmupSeconds, then `seconds`; returns the
  /// completion rate of each kRateWindowSeconds window of the recorded part.
  std::vector<double> run_saturation(double seconds, Tally& tally);

  const ic::serve::WireRequest& request(std::size_t index) const {
    return pool_[index].request;
  }

  std::vector<std::string> response_lines;  // trace only: codec replay input

 private:
  static constexpr std::uint64_t kPoolStream = 1;
  static constexpr std::uint64_t kScheduleStream = 2;
  static constexpr std::uint64_t kSaturationStream = 5;

  /// An answer to pool entry `index`: counts it and checks its bits.
  bool check(const ic::serve::WireResponse& response, std::size_t index,
             Tally& tally) const {
    if (!response.ok) {
      tally.fail("wire request: " + response.status);
      return false;
    }
    if (std::memcmp(&response.log_runtime, &reference_[index], sizeof(double)) != 0) {
      tally.mismatch("wire answer differs from the one-shard reference");
      return false;
    }
    return true;
  }

  World& world_;
  bool trace_;
  ic::Rng schedule_rng_;
  std::vector<PoolEntry> pool_;
  std::vector<double> reference_;  // per pool entry
};

StepResult WireRun::run_open_loop(double rate, double seconds, Tally& tally) {
  // Constant-rate arrivals, alternating over the connections.
  const auto warm = static_cast<std::size_t>(std::ceil(kOpenWarmupSeconds * rate));
  const std::size_t n = warm + static_cast<std::size_t>(std::ceil(seconds * rate));
  auto& clients = world_.clients;
  const std::size_t conns = clients.size();
  std::vector<std::size_t> entry(n);
  for (auto& e : entry) e = schedule_rng_.index(pool_.size());
  std::vector<Clock::time_point> due(n), send_start(n), send_end(n), recv(n);
  std::vector<char> ok(n, 0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) / rate));
  }
  // One receiver thread per connection reads the in-order answers.
  std::vector<Tally> recv_tally(conns);
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns; ++c) {
    receivers.emplace_back([&, c] {
      for (std::size_t i = c; i < n; i += conns) {
        try {
          const auto response = clients[c]->receive();
          recv[i] = Clock::now();
          ok[i] = check(response, entry[i], recv_tally[c]) ? 1 : 0;
          if (trace_ && c == 0 && response_lines.size() < 512) {
            response_lines.push_back(response.raw.dump());
          }
        } catch (const std::exception& e) {
          recv_tally[c].fail(std::string("wire receive: ") + e.what());
          for (std::size_t j = i; j < n; j += conns) recv[j] = Clock::now();
          return;
        }
      }
    });
  }
  // One sender thread writes every request at its scheduled time.
  std::string send_error;
  std::thread sender([&] {
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 µs wake-up slack
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(due[i]);
      send_start[i] = Clock::now();
      try {
        clients[i % conns]->send(pool_[entry[i]].request);
      } catch (const std::exception& e) {
        if (send_error.empty()) send_error = e.what();
      }
      send_end[i] = Clock::now();
    }
  });
  sender.join();
  for (auto& r : receivers) r.join();
  if (!send_error.empty()) tally.fail("wire send: " + send_error);
  for (const auto& t : recv_tally) tally.merge(t);
  tally.attempted += n;

  StepResult step;
  step.completed = static_cast<std::size_t>(std::count(ok.begin(), ok.end(), 1));
  for (std::size_t i = warm; i < n; ++i) {
    step.late_ms.push_back(1e3 * seconds_between(due[i], send_start[i]));
    const Clock::time_point ready = std::max(due[i], send_end[i - 1]);
    step.own_lag_ms.push_back(
        1e3 * std::max(0.0, seconds_between(ready, send_start[i])));
    if (ok[i]) {
      ++step.succeeded;
      step.latency_ms.push_back(1e3 * seconds_between(due[i], recv[i]));
      step.rtt_ms.push_back(1e3 * seconds_between(send_start[i], recv[i]));
    } else {
      ++step.failed;
      step.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  step.sent = n - warm;
  step.p50_ms = quantile(step.latency_ms, 0.50);
  step.p99_ms = quantile(step.latency_ms, 0.99);
  step.late_p99_ms = quantile(step.late_ms, 0.99);
  step.own_lag_p99_ms = quantile(step.own_lag_ms, 0.99);
  // Invalid: the generator fell behind by itself — its lag is not explained
  // by sends blocking on a server that stopped reading.
  step.valid = step.own_lag_p99_ms <= kSlowMs / 4.0;
  std::printf(
      "wire open loop rate=%.0f/s seconds=%.2f sent=%zu succeeded=%zu "
      "failed=%zu p50=%.3fms p99=%.3fms max=%.3fms late_p99=%.3fms "
      "own_lag_p99=%.3fms valid=%d\n",
      rate, seconds, step.sent, step.succeeded, step.failed, step.p50_ms,
      step.p99_ms, quantile(step.latency_ms, 1.0), step.late_p99_ms,
      step.own_lag_p99_ms, step.valid ? 1 : 0);
  return step;
}

std::vector<double> WireRun::run_saturation(double seconds, Tally& tally) {
  auto& clients = world_.clients;
  const std::size_t conns = clients.size();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point t_rec = t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(kSaturationWarmupSeconds));
  const Clock::time_point t_end = t_rec + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(seconds));
  std::vector<Tally> conn_tally(conns);
  std::vector<std::vector<Clock::time_point>> done(conns);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ic::Rng rng(ic::derive_seed(world_.seed, kSaturationStream + c));
      std::deque<std::size_t> in_flight;
      try {
        auto send_next = [&] {
          in_flight.push_back(rng.index(pool_.size()));
          clients[c]->send(pool_[in_flight.back()].request);
          ++conn_tally[c].attempted;
        };
        for (std::size_t k = 0; k < kWindow; ++k) send_next();
        while (!in_flight.empty()) {
          const auto response = clients[c]->receive();
          const auto now = Clock::now();
          if (check(response, in_flight.front(), conn_tally[c])) {
            done[c].push_back(now);
          }
          in_flight.pop_front();
          if (now < t_end) send_next();
        }
      } catch (const std::exception& e) {
        conn_tally[c].fail(std::string("wire saturation: ") + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& t : conn_tally) tally.merge(t);

  const auto windows = static_cast<std::size_t>(seconds / kRateWindowSeconds);
  std::vector<double> count(windows, 0.0);
  for (const auto& times : done) {
    for (const auto& t : times) {
      if (t < t_rec || t >= t_end) continue;
      const auto w = static_cast<std::size_t>(seconds_between(t_rec, t) /
                                              kRateWindowSeconds);
      if (w < windows) count[w] += 1.0;
    }
  }
  for (auto& c : count) c /= kRateWindowSeconds;
  return count;
}

/// The server's registry as Prometheus text, via {"op":"stats"}.
std::string scrape_prometheus(ic::serve::Client& client, Tally& tally) {
  const auto response = client.stats("prometheus");
  const auto* text = response.raw.find("prometheus");
  if (!response.ok || text == nullptr) {
    tally.fail("stats op returned no exposition");
    return "";
  }
  return text->as_string();
}

/// Value of an unlabelled series in Prometheus exposition text (0 if absent).
double prom_value(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  return 0.0;
}

class WirePath final : public Path {
 public:
  WirePath(World& world, bool trace, Tally& tally)
      : world_(world), trace_(trace), run_(world, trace) {
    run_.compute_references(tally);
    if (trace_) prom_before_ = scrape_prometheus(*world_.clients[0], tally);
  }

  void round(std::size_t, Tally& tally) override {
    const Clock::time_point start = Clock::now();
    const WireParams& p = world_.plan.wire;
    RegistrySnapshot before;
    if (trace_) before = RegistrySnapshot::take(kWireCounters, stage_hist_names());
    const StepResult step = run_.run_open_loop(kRefRate, p.ref_seconds / kRounds, tally);
    completed_ += step.completed;
    invalid_ += step.valid ? 0 : 1;
    latency_ms_.insert(latency_ms_.end(), step.latency_ms.begin(), step.latency_ms.end());
    rtt_ms_.insert(rtt_ms_.end(), step.rtt_ms.begin(), step.rtt_ms.end());
    late_ms_.insert(late_ms_.end(), step.late_ms.begin(), step.late_ms.end());
    if (trace_) {
      stages_.add(before, RegistrySnapshot::take(kWireCounters, stage_hist_names()));
      before = RegistrySnapshot::take({}, {"serve.batch_size"});
    }
    const std::vector<double> rates = run_.run_saturation(p.sat_seconds / kRounds, tally);
    if (trace_) saturation_.add(before, RegistrySnapshot::take({}, {"serve.batch_size"}));
    tally.measured_seconds += seconds_between(start, Clock::now());

    windows_.insert(windows_.end(), rates.begin(), rates.end());
    std::printf("wire saturation: %zu x %zu in flight, rate q1 %.0f median %.0f q3 %.0f req/s\n",
                world_.clients.size(), kWindow, quantile(rates, 0.25), median(rates),
                quantile(rates, 0.75));
  }

  void finish(Metrics& out, Tally& tally) override {
    out.set("max_rate_rps", quantile(windows_, kBestQuantile), "req/s");
    // Latency quantiles, exact over every open-loop sample of every round.
    // These are per-layer figures: on loopback they swing with the TCP state
    // of the connections and the host's wake-up latency (see README).
    out.set("predict_p50_ms", quantile(latency_ms_, 0.50), "ms");
    out.set("predict_p99_ms", quantile(latency_ms_, 0.99), "ms");
    if (!supports_quantile(latency_ms_.size(), 0.99)) {
      tally.fail("reference steps too short for p99");
    }
    std::printf("wire reference: %zu samples at %.0f req/s (p99 needs >= 1000)\n",
                latency_ms_.size(), kRefRate);
    out.set("wire.generator_late_p99_ms", quantile(late_ms_, 0.99), "ms");
    // Open-loop requests slower than kSlowMs: at the reference rate these are
    // stalls (delayed-ACK waits, host pauses).
    const auto slow = std::count_if(latency_ms_.begin(), latency_ms_.end(),
                                    [](double ms) { return ms > kSlowMs; });
    out.set("wire.slow_share",
            static_cast<double>(slow) / static_cast<double>(latency_ms_.size()),
            "ratio");
    out.set("wire.invalid_steps", static_cast<double>(invalid_), "count");
    out.set("wire.ref_samples", static_cast<double>(latency_ms_.size()), "count");
    if (trace_) trace_metrics(out, tally);
  }

 private:
  void trace_metrics(Metrics& out, Tally& tally) {
    const double completed = static_cast<double>(completed_);
    auto per_request_us = [&](const std::string& stage) {
      return 1e6 * stages_.hist_sum.at("serve.stage." + stage + "_seconds") / completed;
    };
    double stage_total_us = 0.0;
    for (const auto& stage : kStageNames) stage_total_us += per_request_us(stage);
    const double rtt_us = 1e3 * mean(rtt_ms_);
    out.set("serve.wire.parse_us", per_request_us("parse"), "us");
    out.set("serve.engine.route_us", per_request_us("route"), "us");
    out.set("serve.engine.queue_wait_us", per_request_us("queue"), "us");
    out.set("serve.engine.batch_admit_us", per_request_us("batch_admit"), "us");
    out.set("serve.engine.respond_us", per_request_us("respond"), "us");
    out.set("serve.feature_cache.features_for_us", per_request_us("feature_build"), "us");
    out.set("graph.spmm_us", per_request_us("spmm"), "us");
    out.set("nn.dense_us", per_request_us("dense"), "us");
    out.set("nn.readout_us", per_request_us("readout"), "us");
    out.set("serve.residual_us", rtt_us - stage_total_us, "us");
    out.set("wire.rtt_us", rtt_us, "us");
    out.set("wire.residual_share", (rtt_us - stage_total_us) / rtt_us, "ratio");
    auto batch_mean = [](const RegistryDelta& d) {
      const double n = d.hist_count.at("serve.batch_size");
      return n > 0 ? d.hist_sum.at("serve.batch_size") / n : 0.0;
    };
    out.set("serve.engine.batch_size_mean", batch_mean(stages_), "count");
    out.set("serve.engine.batches", stages_.counters.at("serve.batches"), "count");
    out.set("wire.saturation_batch_size_mean", batch_mean(saturation_), "count");
    const double hits = stages_.counters.at("serve.feature_cache.hits");
    const double misses = stages_.counters.at("serve.feature_cache.misses");
    out.set("serve.feature_cache.hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");

    const auto t = Clock::now();
    // Client codec, timed by calling the public functions on this run's own
    // request and response lines.
    {
      std::size_t bytes = 0;
      const std::size_t n = kPoolSize;
      const auto c0 = Clock::now();
      for (std::size_t rep = 0; rep < 4; ++rep) {
        for (std::size_t i = 0; i < n; ++i) {
          bytes += ic::serve::encode_request(run_.request(i)).size();
        }
      }
      out.set("serve.wire.encode_request_us",
              1e6 * seconds_between(c0, Clock::now()) / (4.0 * n), "us");
      if (bytes == 0) tally.fail("empty encoded request");
    }
    {
      double sink = 0.0;
      const auto c0 = Clock::now();
      for (std::size_t rep = 0; rep < 16; ++rep) {
        for (const auto& line : run_.response_lines) {
          sink += ic::serve::parse_response(line).log_runtime;
        }
      }
      const double n = 16.0 * static_cast<double>(run_.response_lines.size());
      out.set("serve.wire.parse_response_us",
              n > 0 ? 1e6 * seconds_between(c0, Clock::now()) / n : 0.0, "us");
      if (!std::isfinite(sink)) tally.fail("non-finite parsed response");
    }
    {
      // Cold featurization of each wire circuit in a private cache.
      const auto snapshot = world_.registry.get("default");
      ic::serve::FeatureCache cache;
      const auto c0 = Clock::now();
      for (const auto& circuit : world_.wire_circuits) {
        cache.get(circuit, snapshot->spec.features, snapshot->structure_kind());
      }
      out.set("serve.feature_cache.build_us",
              1e6 * seconds_between(c0, Clock::now()) /
                  static_cast<double>(world_.wire_circuits.size()),
              "us");
    }
    const std::string prom_after = scrape_prometheus(*world_.clients[0], tally);
    for (const auto& [series, name] : kPromSeries) {
      out.set(name, prom_value(prom_after, series) - prom_value(prom_before_, series),
              "count");
    }
    tally.trace_seconds += seconds_between(t, Clock::now());
  }

  World& world_;
  bool trace_;
  WireRun run_;
  std::string prom_before_;
  RegistryDelta stages_, saturation_;  // trace only: open-loop and closed-loop steps
  std::vector<double> windows_;  // saturation rate per kRateWindowSeconds
  std::vector<double> latency_ms_, rtt_ms_, late_ms_;  // pooled over rounds
  std::size_t completed_ = 0, invalid_ = 0;
};

}  // namespace

std::unique_ptr<Path> make_wire_path(World& world, bool trace, Tally& tally) {
  return std::make_unique<WirePath>(world, trace, tally);
}

}  // namespace perfbench
