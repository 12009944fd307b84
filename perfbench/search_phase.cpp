// Policy search over an in-process engine (the "search" path): closed loop,
// repeated identical searches until each round's work and time are done.
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ic/search/oracle.hpp"
#include "ic/search/report.hpp"
#include "ic/search/search.hpp"
#include "ic/serve/feature_cache.hpp"
#include "phases.hpp"

namespace perfbench {

using ic::circuit::GateId;

namespace {

/// EngineOracle with a wall-clock span around every batch call, so step and
/// oracle time come from the benchmark side (the batch runs on the shard
/// batchers, so the caller's CPU time would undercount it).
class TimedOracle final : public ic::search::FitnessOracle {
 public:
  TimedOracle(ic::serve::InferenceEngine& engine, bool keep_sample)
      : inner_(engine, "default", "search"), keep_sample_(keep_sample) {}

  std::vector<Clock::time_point> ends;
  std::vector<double> batch_ms;
  std::vector<std::vector<GateId>> sample;  // trace only: replay input
  std::vector<double> sample_pred;

 protected:
  std::vector<double> predict_batch_impl(
      const std::vector<std::vector<GateId>>& selections) override {
    const auto t0 = Clock::now();
    std::vector<double> out = inner_.predict_log_batch(selections);
    const auto t1 = Clock::now();
    ends.push_back(t1);
    batch_ms.push_back(1e3 * seconds_between(t0, t1));
    if (keep_sample_ && sample.size() < 64) {
      sample.push_back(selections.back());
      sample_pred.push_back(out.back());
    }
    return out;
  }

 private:
  ic::search::EngineOracle inner_;
  bool keep_sample_;
};

std::string report_text(const ic::search::SearchReport& report,
                        const std::string& path) {
  ic::search::write_report(report, path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

constexpr std::size_t kMinSteps = 1100;

const std::vector<std::string> kSearchHists = {
    "serve.compute_seconds", "serve.batch_size", "serve.stage.queue_seconds",
    "serve.stage.spmm_seconds", "serve.stage.dense_seconds",
    "serve.stage.readout_seconds"};

class SearchPath final : public Path {
 public:
  SearchPath(World& world, bool trace) : world_(world), trace_(trace) {
    const SearchParams& p = world.plan.search;
    options_.scheme = ic::search::LockScheme::Lut4;
    options_.budget = p.budget;
    options_.neighbors = p.neighbors;
    options_.greedy_steps = p.greedy_steps;
    options_.sa_steps = p.sa_steps;
    options_.top_k = 0;  // no verification attacks: SAT time stays offline
    options_.seed = world.seed;
    report_path_ = world.model_path + ".search.json";
  }

  void round(std::size_t index, Tally& tally) override {
    const SearchParams& p = world_.plan.search;
    RegistrySnapshot before;
    if (trace_) before = RegistrySnapshot::take({}, kSearchHists);
    // Every round gets its share of the steps (enough over the run for an
    // exact p99 with ten samples beyond it) and of the main path's seconds.
    const std::size_t min_steps = kMinSteps * (index + 1) / kRounds;
    std::vector<double> round_rates;
    const Clock::time_point start = Clock::now();
    while (round_rates.empty() || step_ms_.size() < min_steps ||
           seconds_between(start, Clock::now()) < p.seconds / kRounds) {
      TimedOracle oracle(*world_.search_engine, trace_ && sample_.empty());
      const auto t0 = Clock::now();
      ic::search::SearchReport report;
      try {
        report = ic::search::policy_search(*world_.search_circuit, oracle, options_);
      } catch (const std::exception& e) {
        tally.attempted += 1;
        tally.fail(std::string("policy_search: ") + e.what());
        break;
      }
      const double wall = seconds_between(t0, Clock::now());
      rep_wall_total_ += wall;
      round_rates.push_back(static_cast<double>(report.oracle_calls) / wall);
      std::vector<double> rep_steps;
      for (std::size_t k = 1; k < oracle.ends.size(); ++k) {
        rep_steps.push_back(1e3 * seconds_between(oracle.ends[k - 1], oracle.ends[k]));
        batch_ms_.push_back(oracle.batch_ms[k]);
      }
      step_ms_.insert(step_ms_.end(), rep_steps.begin(), rep_steps.end());
      rep_step_p50_ms_.push_back(median(rep_steps));
      for (const double ms : oracle.batch_ms) batch_wall_total_ += ms / 1e3;
      calls_ = report.oracle_calls;
      batches_ = report.oracle_batches;
      tally.attempted += report.oracle_calls;
      ++reps_;
      if (trace_ && sample_.empty()) {
        sample_ = oracle.sample;
        sample_pred_ = oracle.sample_pred;
      }
      const std::string text = report_text(report, report_path_);
      if (first_report_.empty()) {
        first_report_ = text;
      } else if (text != first_report_) {
        tally.mismatch("search report differs between repetitions");
      }
    }
    tally.measured_seconds += seconds_between(start, Clock::now());
    if (trace_) registry_.add(before, RegistrySnapshot::take({}, kSearchHists));
    std::printf("search round %zu: %zu repetitions, median %.4g candidates/s\n", index,
                round_rates.size(), median(round_rates));
    rate_.insert(rate_.end(), round_rates.begin(), round_rates.end());
  }

  void finish(Metrics& out, Tally& tally) override {
    // Over the repetitions, all the same search.
    out.set("search_candidates_per_s", quantile(rate_, kBestQuantile), "1/s");
    out.set("search_step_p50_ms", quantile(rep_step_p50_ms_, 1.0 - kBestQuantile), "ms");
    out.set("search_step_p99_ms", quantile(step_ms_, 0.99), "ms");
    std::printf("search: %zu repetitions, %zu steps timed (p99 needs >= 1000)\n",
                reps_, step_ms_.size());
    if (!supports_quantile(step_ms_.size(), 0.99)) {
      tally.fail("search phase too short for p99");
    }

    // The one-shard reference engine must produce the byte-identical report.
    {
      ic::search::EngineOracle oracle(*world_.ref_engine, "default", "search");
      const auto report =
          ic::search::policy_search(*world_.search_circuit, oracle, options_);
      if (report_text(report, report_path_) != first_report_) {
        tally.mismatch("search report differs from the one-shard reference");
      }
    }
    if (trace_) trace_metrics(out, tally);
  }

 private:
  void trace_metrics(Metrics& out, Tally& tally) {
    const double n = registry_.hist_count.at("serve.compute_seconds");
    auto per_prediction_us = [&](const std::string& hist) {
      return n > 0 ? 1e6 * registry_.hist_sum.at(hist) / n : 0.0;
    };
    out.set("search.graph.spmm_us", per_prediction_us("serve.stage.spmm_seconds"), "us");
    out.set("search.nn.dense_us", per_prediction_us("serve.stage.dense_seconds"), "us");
    out.set("search.nn.readout_us", per_prediction_us("serve.stage.readout_seconds"), "us");
    out.set("search.engine.compute_us", per_prediction_us("serve.compute_seconds"), "us");
    out.set("search.engine.queue_wait_us",
            per_prediction_us("serve.stage.queue_seconds"), "us");
    const double nbatches = registry_.hist_count.at("serve.batch_size");
    out.set("search.engine.batch_size_mean",
            nbatches > 0 ? registry_.hist_sum.at("serve.batch_size") / nbatches : 0.0,
            "count");
    const double oracle_ms = mean(batch_ms_);
    out.set("search.oracle_batch_ms", oracle_ms, "ms");
    out.set("search.self_ms", mean(step_ms_) - oracle_ms, "ms");
    out.set("search.oracle_calls", static_cast<double>(calls_), "count");
    out.set("search.oracle_batches", static_cast<double>(batches_), "count");
    // Unattributed share of the search wall: oracle wall time not covered by
    // engine compute spread evenly over every executor that can run it (each
    // shard's pool of kServeJobs workers plus its batcher thread).
    const double compute_wall = registry_.hist_sum.at("serve.compute_seconds") /
                                static_cast<double>(kServeShards * (kServeJobs + 1));
    out.set("search.residual_share",
            (batch_wall_total_ - compute_wall) / rep_wall_total_, "ratio");

    // Direct GnnRegressor::predict on replayed selections, no engine.
    const auto t = Clock::now();
    const auto snapshot = world_.registry.get("default");
    ic::serve::FeatureCache cache;
    const auto entry = cache.get(world_.search_circuit, snapshot->spec.features,
                                 snapshot->structure_kind());
    auto model = snapshot->replica();
    double predict_s = 0.0;
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      const auto x = ic::serve::FeatureCache::features_for(*entry, sample_[i]);
      const auto p0 = Clock::now();
      const double y = model.predict(*entry->structure, x);
      predict_s += seconds_between(p0, Clock::now());
      if (std::memcmp(&y, &sample_pred_[i], sizeof y) != 0) {
        tally.mismatch("direct predict differs from the engine's answer");
      }
    }
    out.set("nn.predict_us",
            sample_.empty() ? 0.0
                            : 1e6 * predict_s / static_cast<double>(sample_.size()),
            "us");
    tally.trace_seconds += seconds_between(t, Clock::now());
  }

  World& world_;
  bool trace_;
  ic::search::SearchOptions options_;
  std::string report_path_;
  std::string first_report_;
  RegistryDelta registry_;  // trace only
  std::vector<double> rate_, rep_step_p50_ms_;  // per repetition
  std::vector<double> step_ms_, batch_ms_;      // pooled over repetitions
  double rep_wall_total_ = 0.0, batch_wall_total_ = 0.0;
  std::uint64_t calls_ = 0, batches_ = 0;
  std::size_t reps_ = 0;
  std::vector<std::vector<GateId>> sample_;  // trace only: replay input
  std::vector<double> sample_pred_;
};

}  // namespace

std::unique_ptr<Path> make_search_path(World& world, bool trace) {
  return std::make_unique<SearchPath>(world, trace);
}

}  // namespace perfbench
