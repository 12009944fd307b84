// Bit-identical guard for the GNN forward and backward passes.
//
// Search reports, serve responses and trained model files are all functions
// of GnnRegressor's arithmetic, so a refactor of the nn layers must leave
// every floating-point result exactly equal. The committed golden corpus
// (tests/golden/nn_forward_backward.txt) records, as hex doubles:
//
//  * predictions of fixed-seed, untrained models for every combination of
//    conv mode (Propagate over the adjacency, Chebyshev order 3 over the
//    scaled Laplacian), readout (Sum, Mean, Attention) and exp head (on,
//    off), on a generated circuit and a few gate selections;
//  * the epoch losses and every parameter after a few epochs of train_gnn
//    for the same twelve configurations, at jobs=1 and at jobs=4 (the
//    backward pass and the gradient reduction, pinned through the weights
//    they produce).
//
// The test uses only the model's public construct/predict/parameters API and
// train_gnn, so the same corpus checks any implementation behind them.
// Regenerate (only when a numeric change is *intended*) with:
//
//     IC_REGEN_GOLDEN=tests/golden/nn_forward_backward.txt ./nn_golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ic/circuit/generator.hpp"
#include "ic/data/dataset.hpp"
#include "ic/data/features.hpp"
#include "ic/nn/trainer.hpp"
#include "ic/support/rng.hpp"

#ifndef IC_GOLDEN_FILE
#define IC_GOLDEN_FILE "tests/golden/nn_forward_backward.txt"
#endif

namespace ic::nn {
namespace {

using graph::Matrix;

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string hex_list(const double* values, std::size_t count) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out.push_back(' ');
    out += hex(values[i]);
  }
  return out;
}

struct Variant {
  ConvMode mode;
  Readout readout;
  bool exp_head;

  std::string name() const {
    std::string out = mode == ConvMode::Propagate ? "prop" : "cheb3";
    switch (readout) {
      case Readout::Sum: out += ".sum"; break;
      case Readout::Mean: out += ".mean"; break;
      case Readout::Attention: out += ".att"; break;
    }
    out += exp_head ? ".exp" : ".lin";
    return out;
  }
  data::StructureKind structure() const {
    return mode == ConvMode::Propagate ? data::StructureKind::Adjacency
                                       : data::StructureKind::ScaledLaplacian;
  }
  GnnConfig config(std::vector<std::size_t> hidden, std::uint64_t seed) const {
    GnnConfig cfg;
    cfg.conv_mode = mode;
    cfg.cheb_order = 3;
    cfg.in_features = data::feature_width(data::FeatureSet::All);
    cfg.hidden = std::move(hidden);
    cfg.readout = readout;
    cfg.exp_head = exp_head;
    cfg.seed = seed;
    return cfg;
  }
};

std::vector<Variant> all_variants() {
  std::vector<Variant> out;
  for (const ConvMode mode : {ConvMode::Propagate, ConvMode::Chebyshev}) {
    for (const Readout readout :
         {Readout::Sum, Readout::Mean, Readout::Attention}) {
      for (const bool exp_head : {true, false}) {
        out.push_back({mode, readout, exp_head});
      }
    }
  }
  return out;
}

circuit::Netlist golden_circuit() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 96;
  spec.seed = 5;
  return circuit::generate_circuit(spec, "golden96");
}

/// `count` random selections of 1..8 gates, fixed by `seed`.
std::vector<std::vector<circuit::GateId>> random_selections(
    const circuit::Netlist& circuit, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<circuit::GateId>> out(count);
  for (auto& selection : out) {
    const std::size_t k = 1 + rng.index(8);
    for (std::size_t i = 0; i < k; ++i) {
      selection.push_back(static_cast<circuit::GateId>(rng.index(circuit.size())));
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> build_corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  const circuit::Netlist circuit = golden_circuit();

  // -- Forward: untrained default-width models, several selections --------
  auto selections = random_selections(circuit, 4, 31);
  selections.insert(selections.begin(), std::vector<circuit::GateId>{});
  for (const Variant& v : all_variants()) {
    const auto s = data::make_structure(circuit, v.structure());
    GnnRegressor model(v.config({16, 8}, 42));
    for (std::size_t i = 0; i < selections.size(); ++i) {
      const Matrix x =
          data::gate_features(circuit, selections[i], data::FeatureSet::All);
      corpus.emplace_back("predict." + v.name() + "." + std::to_string(i),
                          hex(model.predict(*s, x)));
    }
  }

  // -- Backward: parameters after a few epochs of train_gnn ---------------
  const auto train_selections = random_selections(circuit, 20, 77);
  for (const Variant& v : all_variants()) {
    const auto s = data::make_structure(circuit, v.structure());
    std::vector<GraphSample> samples;
    for (const auto& selection : train_selections) {
      GraphSample sample;
      sample.structure = s;
      sample.features =
          data::gate_features(circuit, selection, data::FeatureSet::All);
      sample.target = 2.0 + 0.5 * static_cast<double>(selection.size());
      samples.push_back(std::move(sample));
    }
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      GnnRegressor model(v.config({4, 3}, 9));
      TrainOptions opt;
      opt.max_epochs = 3;
      opt.batch_size = 6;
      opt.learning_rate = 0.02;
      opt.seed = 13;
      opt.jobs = jobs;
      const TrainReport report = train_gnn(model, samples, opt);
      const std::string prefix =
          "train." + v.name() + ".j" + std::to_string(jobs);
      corpus.emplace_back(prefix + ".loss",
                          hex_list(report.epoch_losses.data(),
                                   report.epoch_losses.size()));
      const auto params = model.parameters();
      for (std::size_t p = 0; p < params.size(); ++p) {
        corpus.emplace_back(prefix + ".p" + std::to_string(p),
                            hex_list(params[p]->data(), params[p]->size()));
      }
    }
  }
  return corpus;
}

TEST(NnGolden, CorpusIsBitIdentical) {
  const auto corpus = build_corpus();

  if (const char* regen = std::getenv("IC_REGEN_GOLDEN")) {
    std::ofstream out(regen);
    ASSERT_TRUE(out.good()) << "cannot write " << regen;
    out << "# Golden GNN forward/backward corpus (hex doubles) — regenerate\n"
           "# only on an intended numeric change:\n"
           "#   IC_REGEN_GOLDEN=tests/golden/nn_forward_backward.txt "
           "./nn_golden_test\n";
    for (const auto& [name, payload] : corpus) {
      out << name << " " << payload << "\n";
    }
    GTEST_SKIP() << "regenerated golden corpus at " << regen;
  }

  std::ifstream in(IC_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "missing golden corpus " << IC_GOLDEN_FILE;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << "malformed corpus line: " << line;
    golden[line.substr(0, space)] = line.substr(space + 1);
  }
  ASSERT_EQ(golden.size(), corpus.size())
      << "corpus entry count drifted; regenerate deliberately";

  for (const auto& [name, payload] : corpus) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << name;
    EXPECT_EQ(it->second, payload) << "arithmetic diverged on " << name;
  }
}

}  // namespace
}  // namespace ic::nn
