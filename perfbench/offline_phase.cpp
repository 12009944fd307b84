// Label and train (the "offline" path): generate_dataset runs the SAT attack
// on LUT-locked instances (deterministic cost-model labels), then
// RuntimeEstimator::fit trains ICNet on them. A round runs a fixed number of
// repetitions, each on its own instances; every round repeats the same
// repetitions and must reproduce the first round's labels, solver counters
// and final train MSE exactly.
#include <algorithm>
#include <cstdio>

#include "ic/core/estimator.hpp"
#include "ic/data/dataset.hpp"
#include "phases.hpp"

namespace perfbench {

namespace {

// The locked-gate selections are the same for every seed (the seed varies
// the training): the SAT-attack cost of a repetition's instances differs up
// to 1.7x between selections, which would make the labeling figure depend on
// the seed rather than on the program.
constexpr std::uint64_t kInstanceSeed = 1000003;

const std::vector<std::string> kOfflineCounters = {"sat_attack.propagations"};
const std::vector<std::string> kOfflineHists = {
    "sat_attack.miter_build_seconds",
    "sat_attack.dip_solve_seconds", "data.gate_features_seconds"};

struct Rep {
  ic::data::Dataset dataset;
  ic::nn::TrainReport report;
  double label_s = 0.0;
  double fit_s = 0.0;
  std::uint64_t digest = 0;
};

/// One repetition: label one instance set stratified over the gate counts
/// (every count in [min_gates, max_gates], instances_per_count of each, so
/// each repetition has the same mix of easy and hard attacks), then fit.
Rep run_rep(const World& world, std::size_t index) {
  const OfflineParams& p = world.plan.offline;
  Rep rep;
  rep.dataset.circuit = world.offline_circuit;
  for (std::size_t k = p.min_gates; k <= p.max_gates; ++k) {
    ic::data::DatasetOptions options;
    options.num_instances = p.instances_per_count;
    options.min_gates = options.max_gates = k;
    options.scheme = ic::data::ObfuscationScheme::Lut;
    options.seed = kInstanceSeed + index * 101 + k;
    options.jobs = 1;
    const auto t0 = Clock::now();
    ic::data::Dataset part = ic::data::generate_dataset(*world.offline_circuit, options);
    rep.label_s += seconds_between(t0, Clock::now());
    for (auto& instance : part.instances) {
      rep.dataset.instances.push_back(std::move(instance));
    }
  }
  ic::core::EstimatorOptions fit_options;
  fit_options.seed = world.seed;
  fit_options.train.max_epochs = p.max_epochs;
  fit_options.train.jobs = 1;
  ic::core::RuntimeEstimator estimator(fit_options);
  const auto t0 = Clock::now();
  rep.report = estimator.fit(rep.dataset);
  rep.fit_s = seconds_between(t0, Clock::now());

  Digest digest;
  for (const auto& instance : rep.dataset.instances) {
    for (const auto id : instance.selection) digest.add_u64(id);
    digest.add_double(instance.runtime_seconds);
    digest.add_u64(instance.attack.iterations);
    digest.add_u64(instance.attack.conflicts);
    digest.add_u64(instance.attack.propagations);
    digest.add_u64(instance.attack.decisions);
    digest.add_u64(instance.attack.success ? 1 : 0);
  }
  digest.add_u64(rep.report.epochs_run);
  digest.add_double(rep.report.final_train_mse);
  rep.digest = digest.value();
  return rep;
}

class OfflinePath final : public Path {
 public:
  OfflinePath(World& world, bool trace) : world_(world), trace_(trace) {
    const OfflineParams& p = world.plan.offline;
    per_rep_ = (p.max_gates - p.min_gates + 1) * p.instances_per_count;
  }

  void round(std::size_t index, Tally& tally) override {
    const OfflineParams& p = world_.plan.offline;
    RegistrySnapshot before;
    if (trace_) before = RegistrySnapshot::take(kOfflineCounters, kOfflineHists);
    const Clock::time_point start = Clock::now();
    // Every round repeats the same repetitions, so the rounds do the same
    // work and each must reproduce the first round's digests exactly.
    for (std::size_t r = 0; r < p.repetitions_per_round; ++r) {
      const Rep rep = run_rep(world_, r);
      const double n = static_cast<double>(rep.dataset.instances.size());
      if (index == 0) {
        digests_.push_back(rep.digest);
        best_.push_back({n, n * static_cast<double>(rep.report.epochs_run),
                         rep.label_s, rep.fit_s});
      } else if (rep.digest != digests_[r]) {
        tally.mismatch("labels, solver counters or train MSE differ on repetition");
      }
      best_[r].label_s = std::min(best_[r].label_s, rep.label_s);
      best_[r].fit_s = std::min(best_[r].fit_s, rep.fit_s);
      ++reps_;
      tally.attempted += per_rep_ + 1;  // labeled instances and one fit
      if (rep.dataset.instances.size() != per_rep_) {
        tally.fail("dataset has the wrong instance count");
      }
      label_s_ += rep.label_s;
      fit_s_ += rep.fit_s;
      instances_ += n;
      train_s_ += rep.report.wall_seconds;
      for (const double s : rep.report.epoch_seconds) {
        epoch_ms_.push_back(1e3 * s);
        epoch_s_ += s;
      }
      fit_overhead_ms_.push_back(1e3 * (rep.fit_s - rep.report.wall_seconds));
      if (reps_ == 1) {  // solver counts of the first repetition, exact
        for (const auto& instance : rep.dataset.instances) {
          propagations_ += instance.attack.propagations;
          conflicts_ += instance.attack.conflicts;
          decisions_ += instance.attack.decisions;
          dips_ += instance.attack.iterations;
        }
      }
    }
    tally.measured_seconds += seconds_between(start, Clock::now());
    if (trace_) registry_.add(before, RegistrySnapshot::take(kOfflineCounters, kOfflineHists));

  }

  void finish(Metrics& out, Tally&) override {
    const OfflineParams& p = world_.plan.offline;
    // Every round runs the same repetitions, whose instances differ in SAT
    // cost; each repetition counts with its fastest run, as noise only ever
    // slows a run.
    double instances = 0.0, sample_epochs = 0.0, label_s = 0.0, fit_s = 0.0;
    for (const Best& b : best_) {
      instances += b.instances;
      sample_epochs += b.sample_epochs;
      label_s += b.label_s;
      fit_s += b.fit_s;
    }
    out.set("label_instances_per_s", instances / label_s, "1/s");
    out.set("train_samples_per_s", sample_epochs / fit_s, "1/s");
    std::printf(
        "offline: %zu repetitions of %zu instances on %zu gates; all runs %.4g "
        "labeled/s, %.4g samples/s\n",
        reps_, per_rep_, p.gates, instances_ / label_s_,
        sample_epochs * static_cast<double>(kRounds) / fit_s_);
    if (trace_) trace_metrics(out);
  }

 private:
  void trace_metrics(Metrics& out) {
    auto per_instance_ms = [&](const std::string& hist) {
      return 1e3 * registry_.hist_sum.at(hist) / instances_;
    };
    // generate_dataset wall per instance (dataset.label_seconds holds the
    // labels themselves, not the time spent labeling).
    out.set("data.label_ms", 1e3 * label_s_ / instances_, "ms");
    out.set("attack.miter_build_ms",
            per_instance_ms("sat_attack.miter_build_seconds"), "ms");
    out.set("sat.dip_solve_ms", per_instance_ms("sat_attack.dip_solve_seconds"), "ms");
    out.set("sat.propagations_per_s",
            registry_.counters.at("sat_attack.propagations") /
                registry_.hist_sum.at("sat_attack.dip_solve_seconds"),
            "1/s");
    out.set("sat.propagations", static_cast<double>(propagations_), "count");
    out.set("sat.conflicts", static_cast<double>(conflicts_), "count");
    out.set("sat.decisions", static_cast<double>(decisions_), "count");
    out.set("attack.dips", static_cast<double>(dips_), "count");
    out.set("nn.train_epoch_ms", median(epoch_ms_), "ms");
    out.set("data.gate_features_ms",
            1e3 * registry_.hist_sum.at("data.gate_features_seconds") /
                static_cast<double>(reps_),
            "ms");
    out.set("core.fit_overhead_ms", median(fit_overhead_ms_), "ms");
    // Unattributed: labeling time outside miter build and DIP solving plus
    // training time outside the epochs, as a share of label + fit time
    // (fit time outside train_gnn is core.fit_overhead_ms).
    const double attack_s = registry_.hist_sum.at("sat_attack.miter_build_seconds") +
                            registry_.hist_sum.at("sat_attack.dip_solve_seconds");
    out.set("offline.residual_share",
            ((label_s_ - attack_s) + (train_s_ - epoch_s_)) / (label_s_ + fit_s_),
            "ratio");
  }

  World& world_;
  bool trace_;
  std::size_t per_rep_ = 0;
  std::size_t reps_ = 0;
  std::vector<std::uint64_t> digests_;  // per repetition of the first round
  RegistryDelta registry_;  // trace only
  /// Per repetition of a round: its work and its fastest times.
  struct Best {
    double instances, sample_epochs, label_s, fit_s;
  };
  std::vector<Best> best_;
  std::vector<double> epoch_ms_, fit_overhead_ms_;
  double label_s_ = 0.0, fit_s_ = 0.0, train_s_ = 0.0, epoch_s_ = 0.0;
  double instances_ = 0.0;
  std::uint64_t propagations_ = 0, conflicts_ = 0, decisions_ = 0, dips_ = 0;
};

}  // namespace

std::unique_ptr<Path> make_offline_path(World& world, bool trace) {
  return std::make_unique<OfflinePath>(world, trace);
}

}  // namespace perfbench
