#include <algorithm>
#include <stdexcept>

#include "ic/circuit/generator.hpp"
#include "ic/core/estimator.hpp"
#include "ic/locking/policy.hpp"
#include "ic/search/selection.hpp"
#include "phases.hpp"

namespace perfbench {

using ic::circuit::GateId;

WorkloadPlan make_plan(const std::string& workload, double seconds) {
  // Probe shapes (the defaults in phases.hpp) are the same in every workload;
  // the main path gets full-size inputs and what --seconds leaves after the
  // probes.
  WorkloadPlan plan;
  if (workload == "wire_small") {
    plan.wire.ref_seconds = 8.0;
    plan.wire.sat_seconds = 6.0;
  } else if (workload == "search_large") {
    plan.search = SearchParams{4096, 16, 16, 8, 8, std::max(4.0, seconds - 20.0)};
  } else if (workload == "offline_label_train") {
    plan.offline = OfflineParams{1024, 1, 12, 1, 20, 1};
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  return plan;
}

std::shared_ptr<const ic::circuit::Netlist> make_circuit(std::size_t gates,
                                                         std::uint64_t seed,
                                                         const std::string& name) {
  ic::circuit::GeneratorSpec spec;
  spec.num_gates = gates;
  spec.num_inputs = std::max<std::size_t>(16, gates / 32);
  spec.num_outputs = std::max<std::size_t>(8, gates / 64);
  spec.seed = seed;
  return std::make_shared<const ic::circuit::Netlist>(
      ic::circuit::generate_circuit(spec, name));
}

std::vector<GateId> draw_selection(const std::vector<GateId>& lockable,
                                   std::size_t k, ic::Rng& rng,
                                   const ic::circuit::Netlist& circuit) {
  std::vector<GateId> selection;
  for (const std::size_t i :
       rng.sample_without_replacement(lockable.size(), std::min(k, lockable.size()))) {
    selection.push_back(lockable[i]);
  }
  ic::search::check_selection(selection, circuit, "generated selection");
  return selection;
}

namespace {

// Stream indices for ic::derive_seed; the wire traffic uses 1 and 2.
constexpr std::uint64_t kModelStream = 3;
constexpr std::uint64_t kWarmupStream = 4;
constexpr std::uint64_t kCircuitSeed = 462;

/// Train the serving model on synthetic labels over a small circuit: the
/// benchmark measures the serving machinery, so label quality is irrelevant,
/// but the model is trained here (not loaded) because training is part of a
/// defender's set-up.
void train_model(std::uint64_t seed, const std::string& path) {
  ic::Rng rng(ic::derive_seed(seed, kModelStream));
  ic::data::Dataset dataset;
  dataset.circuit = make_circuit(96, seed + 11, "train");
  const auto lockable = ic::locking::lockable_gates(*dataset.circuit);
  for (std::size_t i = 0; i < 24; ++i) {
    ic::data::Instance instance;
    const std::size_t k = 1 + rng.index(6);
    instance.selection = draw_selection(lockable, k, rng, *dataset.circuit);
    instance.runtime_seconds =
        1e-4 * static_cast<double>(k * k) * (1.0 + rng.uniform(0.0, 1.0));
    dataset.instances.push_back(std::move(instance));
  }
  ic::core::EstimatorOptions options;
  options.seed = seed;
  options.train.max_epochs = 20;
  options.train.jobs = 1;
  ic::core::RuntimeEstimator estimator(options);
  estimator.fit(dataset);
  estimator.save(path);
}

}  // namespace

World::World(const WorkloadPlan& plan_in, std::uint64_t seed_in,
             const std::string& workdir)
    : plan(plan_in), seed(seed_in), model_path(workdir + "/model.txt") {
  ic::Rng rng(ic::derive_seed(seed, kWarmupStream));
  // The measured circuits are fixed and the seed varies what runs on them
  // (selections, traffic, search trajectories): forward-pass and SAT-attack
  // costs differ between generated circuits of one size (the latter
  // several-fold), which would make a run's figures depend on its seed.
  for (std::size_t i = 0; i < kWireCircuits; ++i) {
    const std::size_t gates = 64 + i * 192 / (kWireCircuits - 1);  // 64..256
    wire_names.push_back("w" + std::to_string(i));
    wire_circuits.push_back(make_circuit(gates, kCircuitSeed + i, wire_names.back()));
  }
  search_circuit = make_circuit(plan.search.gates, kCircuitSeed + 100, "search");
  offline_circuit = make_circuit(plan.offline.gates, kCircuitSeed, "offline");

  train_model(seed, model_path);
  registry.load("default", model_path);

  ic::serve::EngineOptions options;
  options.shards = kServeShards;
  options.jobs = kServeJobs;
  // Deep queues: a host stall shows as latency,
  // not as refused requests that would fail the run.
  options.max_queue = 1 << 16;
  wire_engine = std::make_unique<ic::serve::InferenceEngine>(registry, options);
  search_engine = std::make_unique<ic::serve::InferenceEngine>(registry, options);
  options.shards = 1;
  ref_engine = std::make_unique<ic::serve::InferenceEngine>(registry, options);
  for (std::size_t i = 0; i < wire_circuits.size(); ++i) {
    wire_engine->register_circuit(wire_names[i], wire_circuits[i]);
    ref_engine->register_circuit(wire_names[i], wire_circuits[i]);
  }
  search_engine->register_circuit("search", search_circuit);
  ref_engine->register_circuit("search", search_circuit);

  ic::serve::ServerOptions server_options;
  server_options.io_threads = 1;
  server = std::make_unique<ic::serve::Server>(*wire_engine, registry,
                                               server_options);
  server->start();
  ic::serve::ClientOptions client_options;
  client_options.io_timeout_ms = 10000;  // a lost response fails, not hangs
  for (std::size_t c = 0; c < kWireConnections; ++c) {
    clients.push_back(std::make_unique<ic::serve::Client>(
        "127.0.0.1", server->port(), client_options));
  }

  // Warm-up: featurize every circuit in every engine and touch each
  // connection, so the measured paths start with caches filled.
  for (std::size_t i = 0; i < wire_circuits.size(); ++i) {
    const auto lockable = ic::locking::lockable_gates(*wire_circuits[i]);
    for (std::size_t c = 0; c < clients.size(); ++c) {
      ic::serve::WireRequest request;
      request.circuit = wire_names[i];
      for (const GateId id :
           draw_selection(lockable, 2, rng, *wire_circuits[i])) {
        request.select.push_back(id);
      }
      const auto response = clients[c]->call(request);
      if (!response.ok) {
        throw std::runtime_error("warm-up predict failed: " + response.error);
      }
    }
    ic::serve::PredictRequest request;
    request.circuit = wire_names[i];
    request.selection = draw_selection(lockable, 2, rng, *wire_circuits[i]);
    if (!ref_engine->predict(request).ok()) {
      throw std::runtime_error("warm-up reference predict failed");
    }
  }
  const auto lockable = ic::locking::lockable_gates(*search_circuit);
  std::vector<ic::serve::PredictRequest> batch(plan.search.neighbors);
  for (auto& request : batch) {
    request.circuit = "search";
    request.selection =
        draw_selection(lockable, plan.search.budget, rng, *search_circuit);
  }
  for (const auto& result : search_engine->predict_batch(batch)) {
    if (!result.ok()) throw std::runtime_error("warm-up search batch failed");
  }
  if (!ref_engine->predict(batch.front()).ok()) {
    throw std::runtime_error("warm-up reference search predict failed");
  }
}

World::~World() {
  for (auto& client : clients) client->close();
  if (server) server->shutdown();
}

}  // namespace perfbench
