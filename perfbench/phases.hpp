// The three measured paths of the benchmark and the set-up they share.
//
// Every run executes all three paths, because every run reports every
// end-to-end metric:
//   * wire    — open-loop, then closed-loop predict traffic over loopback
//               TCP to an in-process ic::serve::Server (1 I/O loop,
//               2 shards, jobs=1);
//   * search  — ic::search::policy_search over an EngineOracle (2 shards);
//   * offline — ic::data::generate_dataset, then RuntimeEstimator::fit.
// The workload picks which path is the "main" one, with full-size inputs,
// while the other two run as fixed small probes, identical in every
// workload. See perfbench/README.md for the workload rationale.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ic/circuit/netlist.hpp"
#include "ic/serve/client.hpp"
#include "ic/serve/engine.hpp"
#include "ic/serve/model_registry.hpp"
#include "ic/serve/server.hpp"
#include "ic/support/rng.hpp"

namespace perfbench {

// A probe runs a fixed amount of work, sized by the samples its figures
// need; a main search also runs on until its `seconds` are used. Amounts are
// totals over all rounds unless marked per round.

struct WireParams {
  double ref_seconds = 4.0;  ///< open-loop steps at the reference rate
  double sat_seconds = 3.0;  ///< closed-loop saturation steps
};

struct SearchParams {
  std::size_t gates = 1024;
  std::size_t budget = 8;
  std::size_t neighbors = 16;
  std::size_t greedy_steps = 8;
  std::size_t sa_steps = 8;
  double seconds = 0.0;  ///< at least this long (and kMinSteps steps)
};

struct OfflineParams {
  std::size_t gates = 256;
  std::size_t min_gates = 1;  ///< locked gates per instance, stratified
  std::size_t max_gates = 4;
  std::size_t instances_per_count = 2;
  std::size_t max_epochs = 10;
  std::size_t repetitions_per_round = 12;  ///< label+fit repetitions
};

struct WorkloadPlan {
  WireParams wire;
  SearchParams search;
  OfflineParams offline;
};

/// Plan for `workload` with `seconds` of measurement; throws on unknown names.
WorkloadPlan make_plan(const std::string& workload, double seconds);

/// Serving shapes fixed by the benchmark definition.
inline constexpr std::size_t kServeShards = 2;
inline constexpr std::size_t kServeJobs = 1;
inline constexpr std::size_t kWireCircuits = 8;
inline constexpr std::size_t kWireConnections = 2;

/// Everything the measured paths need: generated circuits, a trained model
/// loaded into a registry, the serving engines, the TCP server and its
/// clients, all warmed up. Building one is the benchmark's set-up.
class World {
 public:
  World(const WorkloadPlan& plan, std::uint64_t seed, const std::string& workdir);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const WorkloadPlan& plan;
  const std::uint64_t seed;
  std::string model_path;

  std::vector<std::shared_ptr<const ic::circuit::Netlist>> wire_circuits;
  std::vector<std::string> wire_names;
  std::shared_ptr<const ic::circuit::Netlist> search_circuit;
  std::shared_ptr<const ic::circuit::Netlist> offline_circuit;

  ic::serve::ModelRegistry registry;
  std::unique_ptr<ic::serve::InferenceEngine> wire_engine;
  std::unique_ptr<ic::serve::InferenceEngine> search_engine;
  /// One shard, for reference answers the measured engines must match.
  std::unique_ptr<ic::serve::InferenceEngine> ref_engine;
  std::unique_ptr<ic::serve::Server> server;
  std::vector<std::unique_ptr<ic::serve::Client>> clients;
};

/// Generator spec shared by every circuit the benchmark builds.
std::shared_ptr<const ic::circuit::Netlist> make_circuit(std::size_t gates,
                                                         std::uint64_t seed,
                                                         const std::string& name);

/// `k` distinct lockable gates of `circuit`, drawn without replacement and
/// checked with ic::search::check_selection.
std::vector<ic::circuit::GateId> draw_selection(
    const std::vector<ic::circuit::GateId>& lockable, std::size_t k,
    ic::Rng& rng, const ic::circuit::Netlist& circuit);

/// Measured work is split into kRounds rounds that repeat the same work, and
/// the run interleaves the paths round by round, so a slow spell of a shared
/// host falls on some rounds of each path instead of the whole of one path.
inline constexpr std::size_t kRounds = 5;
/// Each wire and search throughput is this quantile of the rates of a path's
/// repeated units of work (saturation windows, searches), and each time the
/// complementary quantile: a shared host's noise only ever slows a unit, so
/// the fast end of the spread is the one nearest the program's own cost, and
/// a tenth of the units leaves enough samples for it to hold still. (Offline
/// units differ in cost; see offline_phase.cpp.)
inline constexpr double kBestQuantile = 0.9;

/// One measured path: round() runs one share of its work, finish() runs its
/// correctness checks and sets its metrics in `out`.
class Path {
 public:
  virtual ~Path() = default;
  virtual void round(std::size_t index, Tally& tally) = 0;
  virtual void finish(Metrics& out, Tally& tally) = 0;
};

std::unique_ptr<Path> make_wire_path(World& world, bool trace, Tally& tally);
std::unique_ptr<Path> make_search_path(World& world, bool trace);
std::unique_ptr<Path> make_offline_path(World& world, bool trace);

}  // namespace perfbench
