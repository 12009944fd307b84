// Public end-to-end API: the de-obfuscation runtime estimator.
//
// Workflow (the paper's defender loop):
//   1. generate a labeled dataset for your circuit (ic::data::generate_dataset
//      runs the built-in SAT attack), or bring your own labels;
//   2. fit() an estimator — ICNet by default;
//   3. predict_seconds() candidate obfuscation gate-sets instantly and keep
//      the ones the attacker would take longest to break (rank_selections()).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ic/circuit/netlist.hpp"
#include "ic/data/dataset.hpp"
#include "ic/nn/trainer.hpp"

namespace ic::core {

/// Which graph model backs the estimator.
enum class ModelVariant {
  ICNet,    ///< adjacency structure, Propagate convs (the paper's model)
  Gcn,      ///< Kipf–Welling propagation matrix
  ChebNet,  ///< Chebyshev convs over the scaled Laplacian
  Sage,     ///< GraphSAGE-mean: {self, neighbour-mean} basis per layer
};

struct EstimatorOptions {
  ModelVariant variant = ModelVariant::ICNet;
  nn::Readout readout = nn::Readout::Attention;  ///< "-NN" flavor by default
  data::FeatureSet features = data::FeatureSet::All;
  bool exp_head = true;
  std::vector<std::size_t> hidden = {16, 8};
  std::size_t cheb_order = 3;
  nn::TrainOptions train = {};
  std::uint64_t seed = 1;
};

/// Structure operator a variant consumes (shared with ic::serve, which
/// featurizes circuits without going through a RuntimeEstimator).
data::StructureKind structure_kind_for(ModelVariant variant);

class RuntimeEstimator {
 public:
  explicit RuntimeEstimator(EstimatorOptions options = {});
  ~RuntimeEstimator();
  RuntimeEstimator(RuntimeEstimator&&) noexcept;
  RuntimeEstimator& operator=(RuntimeEstimator&&) noexcept;

  /// Train on a labeled dataset. Returns the training report.
  nn::TrainReport fit(const data::Dataset& dataset);

  /// Bind a circuit for subsequent predictions (precomputes the structure
  /// operator). fit() binds the dataset's circuit automatically.
  void set_circuit(const circuit::Netlist& circuit);

  /// Predicted label-scale value, log(1 + runtime in microseconds), for
  /// obfuscating `selection` in the bound circuit. Requires fit() and a
  /// bound circuit.
  double predict_log_runtime(const std::vector<circuit::GateId>& selection) const;

  /// Predicted de-obfuscation runtime in seconds.
  double predict_seconds(const std::vector<circuit::GateId>& selection) const;

  /// Rank candidate gate-sets by predicted runtime, hardest first. Returns
  /// indices into `candidates`.
  std::vector<std::size_t> rank_selections(
      const std::vector<std::vector<circuit::GateId>>& candidates) const;

  /// Held-out MSE on (the log targets of) a dataset.
  double evaluate(const data::Dataset& dataset) const;

  /// Feature-attention weights behind the prediction for `selection`
  /// (Attention readout only; throws otherwise): index 0 is the gate mask
  /// ("gate number" in Table III), the rest are the gate-type one-hots.
  std::vector<double> feature_attention(
      const std::vector<circuit::GateId>& selection) const;

  const EstimatorOptions& options() const { return options_; }
  bool is_fitted() const { return fitted_; }

  /// Serialize the trained parameters to / from a text file. save() writes
  /// the self-describing v2 format (DESIGN.md §9); load() accepts v1 and v2
  /// but requires this estimator's architecture to match the file.
  void save(const std::string& path) const;
  void load(const std::string& path);

  /// Construct a fitted estimator from a v2 model file alone — architecture
  /// options come from the file's header. Throws for v1 files.
  static RuntimeEstimator from_file(const std::string& path);

 private:
  data::StructureKind structure_kind() const;
  nn::GnnConfig gnn_config() const;

  EstimatorOptions options_;
  std::unique_ptr<nn::GnnRegressor> model_;
  std::shared_ptr<const graph::SparseMatrix> structure_;
  std::shared_ptr<const circuit::Netlist> circuit_;
  bool fitted_ = false;
};

}  // namespace ic::core
