// perfbench: end-to-end benchmark of the serving, search and offline paths.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// Builds the workload's inputs from the seed (set-up is repeated seven times
// and its median reported as setup_s), runs the wire, search and offline
// paths interleaved in rounds, checks every output against its reference,
// and prints one JSON
// object as the last line of stdout: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. Exit status is 0 only when every
// operation succeeded and every output was correct.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "phases.hpp"

namespace {

using namespace perfbench;

// The latency quantiles (predict_*, search_step_p99_ms) are per-layer
// metrics: on a shared VM they follow the host and the TCP state of the
// connections far more than the program (see README).
const std::vector<std::string> kEndToEnd = {
    "max_rate_rps",          "search_candidates_per_s", "search_step_p50_ms",
    "label_instances_per_s", "train_samples_per_s",     "setup_s",
    "peak_rss_mb"};

constexpr int kSetupRepeats = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.workdir.empty() || args.seconds <= 0.0) {
    throw std::runtime_error("--workload, --workdir and --seconds > 0 are required");
  }
  return args;
}

int run(const Args& args) {
  const WorkloadPlan plan = make_plan(args.workload, args.seconds);
  Metrics metrics;

  // Set-up: circuits, model training, engines, server start, warm-up.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const auto t0 = Clock::now();
    world = std::make_unique<World>(plan, args.seed, args.workdir);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  metrics.set("setup_s", median(setup_s), "s");

  Tally tally;
  std::unique_ptr<Path> paths[] = {make_wire_path(*world, args.trace, tally),
                                   make_search_path(*world, args.trace),
                                   make_offline_path(*world, args.trace)};
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (auto& path : paths) path->round(r, tally);
  }
  for (auto& path : paths) path->finish(metrics, tally);
  std::printf("%zu rounds: %.1f s measured\n", kRounds, tally.measured_seconds);
  world.reset();

  metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  metrics.set("failed_share",
              static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1)),
              "ratio");
  metrics.set("trace_overhead_share",
              tally.trace_seconds / tally.measured_seconds, "ratio");

  for (const auto& name : metrics.names()) {
    std::printf("metric %s = %.6g\n", name.c_str(), metrics.get(name));
  }
  std::vector<std::string> selected;
  if (args.trace) {
    for (const auto& name : metrics.names()) {
      if (std::find(kEndToEnd.begin(), kEndToEnd.end(), name) == kEndToEnd.end()) {
        selected.push_back(name);
      }
    }
  } else {
    selected = kEndToEnd;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
      tally.correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed),
      metrics.to_json(selected).c_str());
  std::fflush(stdout);
  return tally.correct && tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
