// Google-benchmark microbenchmarks for the substrates: word-parallel
// simulation, Tseitin encoding + SAT solving, sparse propagation, and a
// full ICNet forward pass. These are throughput numbers, not paper tables.
#include <benchmark/benchmark.h>

#include "ic/attack/encode.hpp"
#include "ic/attack/sat_attack.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/circuit/simulator.hpp"
#include "ic/data/dataset.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/core/estimator.hpp"
#include "ic/nn/regressor.hpp"
#include "ic/search/search.hpp"
#include "ic/serve/serve.hpp"
#include "ic/support/rng.hpp"

#include <filesystem>

namespace {

ic::circuit::Netlist bench_circuit(std::size_t gates) {
  ic::circuit::GeneratorSpec spec;
  spec.num_gates = gates;
  spec.num_inputs = 32;
  spec.num_outputs = 16;
  spec.seed = 7;
  return ic::circuit::generate_circuit(spec, "perf");
}

void BM_SimulatorWords(benchmark::State& state) {
  const auto nl = bench_circuit(static_cast<std::size_t>(state.range(0)));
  ic::circuit::Simulator sim(nl);
  ic::Rng rng(1);
  std::vector<std::uint64_t> in(nl.num_inputs());
  for (auto& w : in) w = rng.engine()();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.eval_words(in));
  }
  // 64 patterns per call.
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatorWords)->Arg(256)->Arg(1024);

void BM_SimulatorScalar(benchmark::State& state) {
  const auto nl = bench_circuit(static_cast<std::size_t>(state.range(0)));
  ic::circuit::Simulator sim(nl);
  std::vector<bool> in(nl.num_inputs(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.eval(in));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorScalar)->Arg(256)->Arg(1024);

void BM_TseitinEncode(benchmark::State& state) {
  const auto nl = bench_circuit(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ic::sat::Solver solver;
    benchmark::DoNotOptimize(ic::attack::encode_netlist(nl, solver));
  }
}
BENCHMARK(BM_TseitinEncode)->Arg(256)->Arg(1024);

void BM_SolveEquivalenceMiter(benchmark::State& state) {
  // UNSAT self-miter: two shared-input copies can never differ.
  const auto nl = bench_circuit(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ic::sat::Solver solver;
    const auto e1 = ic::attack::encode_netlist(nl, solver);
    ic::attack::EncodeShared sh;
    sh.inputs = e1.input_vars;
    const auto e2 = ic::attack::encode_netlist(nl, solver, sh);
    std::vector<ic::sat::Lit> any;
    for (std::size_t o = 0; o < e1.output_vars.size(); ++o) {
      const auto d = solver.new_var();
      const auto a = e1.output_vars[o];
      const auto b = e2.output_vars[o];
      solver.add_clause({ic::sat::neg(d), ic::sat::pos(a), ic::sat::pos(b)});
      solver.add_clause({ic::sat::neg(d), ic::sat::neg(a), ic::sat::neg(b)});
      solver.add_clause({ic::sat::pos(d), ic::sat::neg(a), ic::sat::pos(b)});
      solver.add_clause({ic::sat::pos(d), ic::sat::pos(a), ic::sat::neg(b)});
      any.push_back(ic::sat::pos(d));
    }
    solver.add_clause(any);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SolveEquivalenceMiter)->Arg(128)->Arg(256);

void BM_SolverPropagate(benchmark::State& state) {
  // Pure BCP: one persistent encoded circuit, solved repeatedly under full
  // input assumptions. Every internal variable is implied, so each solve is
  // a straight propagation pass with no conflicts — this isolates the
  // watch-list walk (arena reads, blocker checks) from search heuristics.
  const auto nl = bench_circuit(static_cast<std::size_t>(state.range(0)));
  ic::sat::Solver solver;
  const auto enc = ic::attack::encode_netlist(nl, solver);
  std::uint64_t pattern = 0x9e3779b97f4a7c15ull;
  std::vector<ic::sat::Lit> assumptions;
  assumptions.reserve(enc.input_vars.size());
  std::uint64_t props = 0;
  for (auto _ : state) {
    assumptions.clear();
    for (std::size_t i = 0; i < enc.input_vars.size(); ++i) {
      const bool bit = (pattern >> (i % 64)) & 1u;
      assumptions.push_back(ic::sat::Lit(enc.input_vars[i], !bit));
    }
    pattern = pattern * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t before = solver.stats().propagations;
    benchmark::DoNotOptimize(solver.solve(assumptions));
    props += solver.stats().propagations - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(props));
}
BENCHMARK(BM_SolverPropagate)->Arg(256)->Arg(1024);

void BM_SatAttackSmall(benchmark::State& state) {
  // End-to-end oracle-guided attack on a small LUT-locked circuit: the
  // labeling workload in miniature (encode, incremental solve, DIP loop).
  ic::circuit::GeneratorSpec spec;
  spec.num_gates = 90;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.seed = 23;
  const auto original = ic::circuit::generate_circuit(spec, "perf");
  const auto sel = ic::locking::select_gates(
      original, 6, ic::locking::SelectionPolicy::Random, 6);
  const auto locked = ic::locking::lut_lock(original, sel);
  for (auto _ : state) {
    ic::attack::NetlistOracle oracle(original);
    benchmark::DoNotOptimize(ic::attack::sat_attack(locked.locked, oracle));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SatAttackSmall);

void BM_SparsePropagation(benchmark::State& state) {
  const auto nl = bench_circuit(static_cast<std::size_t>(state.range(0)));
  const auto s = ic::data::make_structure(nl, ic::data::StructureKind::Adjacency);
  ic::Rng rng(3);
  const auto x = ic::graph::Matrix::random_normal(nl.size(), 16, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s->spmm(x));
  }
}
BENCHMARK(BM_SparsePropagation)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ICNetForward(benchmark::State& state) {
  const auto nl = bench_circuit(static_cast<std::size_t>(state.range(0)));
  const auto s = ic::data::make_structure(nl, ic::data::StructureKind::Adjacency);
  ic::nn::GnnConfig cfg;
  cfg.in_features = 7;
  cfg.hidden = {16, 8};
  cfg.readout = ic::nn::Readout::Attention;
  ic::nn::GnnRegressor model(cfg);
  ic::Rng rng(5);
  const auto x = ic::graph::Matrix::random_uniform(nl.size(), 7, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(*s, x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ICNetForward)->Arg(256)->Arg(1529)->Arg(4096);

void BM_PolicySearchStep(benchmark::State& state) {
  // One greedy policy-search step (DESIGN.md §14): generate an 8-candidate
  // neighborhood and score it through the serving engine in a single
  // predict_batch() — the inner loop of `icnet_cli search`.
  static const auto circuit =
      std::make_shared<const ic::circuit::Netlist>(bench_circuit(256));
  static const std::string model_path = [] {
    const std::string path = (std::filesystem::temp_directory_path() /
                              "icnet_bench_search_model.txt")
                                 .string();
    ic::data::Dataset ds;
    ds.circuit = circuit;
    ic::Rng rng(11);
    for (std::size_t i = 0; i < 10; ++i) {
      ic::data::Instance inst;
      for (std::size_t g = 0; g < 1 + i % 4; ++g) {
        inst.selection.push_back(
            static_cast<ic::circuit::GateId>(rng.index(circuit->size())));
      }
      inst.runtime_seconds = 0.0005 * static_cast<double>(i + 1);
      ds.instances.push_back(inst);
    }
    ic::core::EstimatorOptions options;
    options.hidden = {6, 4};
    options.train.max_epochs = 5;
    ic::core::RuntimeEstimator estimator(options);
    estimator.fit(ds);
    estimator.save(path);
    return path;
  }();

  ic::serve::ModelRegistry registry;
  registry.load("default", model_path);
  ic::serve::InferenceEngine engine(registry);
  engine.register_circuit("default", circuit);
  ic::search::EngineOracle oracle(engine);

  ic::search::SearchOptions options;
  options.budget = 8;
  options.scheme = ic::search::LockScheme::Xor;
  options.greedy_steps = 1;
  options.sa_steps = 0;
  options.neighbors = 8;
  options.top_k = 0;  // verification attacks are a different workload
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    benchmark::DoNotOptimize(
        ic::search::policy_search(*circuit, oracle, options));
  }
  // Candidates scored per step (the neighborhood), ignoring the one-off
  // initial-selection batch.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(options.neighbors));
}
// The scoring runs on the engine's batcher thread, so the calling thread's
// CPU time would miss it: measure wall time.
BENCHMARK(BM_PolicySearchStep)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
