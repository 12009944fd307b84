#include "ic/core/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "ic/core/model_io.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/telemetry.hpp"

namespace ic::core {

using circuit::GateId;
using circuit::Netlist;

RuntimeEstimator::RuntimeEstimator(EstimatorOptions options)
    : options_(std::move(options)) {
  model_ = std::make_unique<nn::GnnRegressor>(gnn_config());
}

RuntimeEstimator::~RuntimeEstimator() = default;
RuntimeEstimator::RuntimeEstimator(RuntimeEstimator&&) noexcept = default;
RuntimeEstimator& RuntimeEstimator::operator=(RuntimeEstimator&&) noexcept = default;

data::StructureKind structure_kind_for(ModelVariant variant) {
  switch (variant) {
    case ModelVariant::ICNet: return data::StructureKind::Adjacency;
    case ModelVariant::Gcn: return data::StructureKind::GcnNorm;
    case ModelVariant::ChebNet: return data::StructureKind::ScaledLaplacian;
    case ModelVariant::Sage: return data::StructureKind::RowNormAdjacency;
  }
  IC_ASSERT_MSG(false, "unhandled ModelVariant");
  return data::StructureKind::Adjacency;
}

data::StructureKind RuntimeEstimator::structure_kind() const {
  return structure_kind_for(options_.variant);
}

nn::GnnConfig RuntimeEstimator::gnn_config() const {
  nn::GnnConfig cfg;
  // GraphSAGE-mean is the order-2 polynomial basis {H, ŜH} with independent
  // weights over the row-normalized adjacency — exactly the Chebyshev
  // machinery with K = 2 (T_0 = I, T_1 = Ŝ).
  cfg.conv_mode = options_.variant == ModelVariant::ChebNet ||
                          options_.variant == ModelVariant::Sage
                      ? nn::ConvMode::Chebyshev
                      : nn::ConvMode::Propagate;
  cfg.cheb_order =
      options_.variant == ModelVariant::Sage ? 2 : options_.cheb_order;
  cfg.in_features = data::feature_width(options_.features);
  cfg.hidden = options_.hidden;
  cfg.readout = options_.readout;
  cfg.exp_head = options_.exp_head;
  cfg.seed = options_.seed;
  return cfg;
}

void RuntimeEstimator::set_circuit(const Netlist& circuit) {
  circuit_ = std::make_shared<const Netlist>(circuit);
  structure_ = data::make_structure(*circuit_, structure_kind());
}

nn::TrainReport RuntimeEstimator::fit(const data::Dataset& dataset) {
  IC_ASSERT(dataset.circuit != nullptr);
  telemetry::TraceSpan span("estimator/fit");
  telemetry::MetricsRegistry::global().counter("estimator.fits").add(1);
  circuit_ = dataset.circuit;
  structure_ = data::make_structure(*circuit_, structure_kind());
  const auto samples =
      data::to_gnn_samples(dataset, options_.features, structure_kind());
  const auto report = nn::train_gnn(*model_, samples, options_.train);
  fitted_ = true;
  return report;
}

double RuntimeEstimator::predict_log_runtime(
    const std::vector<GateId>& selection) const {
  IC_CHECK(fitted_, "RuntimeEstimator::predict called before fit()/load()");
  IC_CHECK(circuit_ != nullptr, "no circuit bound; call set_circuit()");
  telemetry::TraceSpan span("estimator/predict");
  telemetry::MetricsRegistry::global().counter("estimator.predictions").add(1);
  const auto x = data::gate_features(*circuit_, selection, options_.features);
  return model_->predict(*structure_, x);
}

double RuntimeEstimator::predict_seconds(
    const std::vector<GateId>& selection) const {
  // Targets are log(1 + microseconds) — see Dataset::log_targets().
  return std::expm1(predict_log_runtime(selection)) / 1e6;
}

std::vector<std::size_t> RuntimeEstimator::rank_selections(
    const std::vector<std::vector<GateId>>& candidates) const {
  telemetry::TraceSpan span("estimator/rank_selections");
  telemetry::MetricsRegistry::global()
      .counter("estimator.ranked_candidates")
      .add(candidates.size());
  std::vector<double> predicted;
  predicted.reserve(candidates.size());
  for (const auto& sel : candidates) predicted.push_back(predict_log_runtime(sel));
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return predicted[a] > predicted[b];  // hardest (longest runtime) first
  });
  return order;
}

double RuntimeEstimator::evaluate(const data::Dataset& dataset) const {
  IC_CHECK(fitted_, "RuntimeEstimator::evaluate called before fit()");
  telemetry::TraceSpan span("estimator/evaluate");
  auto samples = data::to_gnn_samples(dataset, options_.features, structure_kind());
  return nn::evaluate_mse(*model_, samples);
}

std::vector<double> RuntimeEstimator::feature_attention(
    const std::vector<GateId>& selection) const {
  IC_CHECK(options_.readout == nn::Readout::Attention,
           "feature attention requires the Attention readout");
  IC_CHECK(fitted_, "RuntimeEstimator::feature_attention called before fit()/load()");
  IC_CHECK(circuit_ != nullptr, "no circuit bound; call set_circuit()");
  const auto x = data::gate_features(*circuit_, selection, options_.features);
  nn::GnnRegressor::ForwardCache cache;
  model_->forward(*structure_, x, cache);
  return cache.feat_attention;
}

void RuntimeEstimator::save(const std::string& path) const {
  IC_CHECK(fitted_, "cannot save an unfitted estimator");
  save_model(*model_, path, options_.variant, options_.features);
}

void RuntimeEstimator::load(const std::string& path) {
  load_parameters(*model_, path);
  fitted_ = true;
}

RuntimeEstimator RuntimeEstimator::from_file(const std::string& path) {
  const ModelSpec spec = read_model_spec(path);
  IC_CHECK(spec.version >= 2,
           "'" << path << "' is a v1 parameter file; construct an estimator "
                          "with the matching options and call load()");
  EstimatorOptions options;
  options.variant = spec.variant;
  options.features = spec.features;
  options.readout = spec.config.readout;
  options.exp_head = spec.config.exp_head;
  options.hidden = spec.config.hidden;
  options.cheb_order = spec.config.cheb_order;
  RuntimeEstimator estimator(options);
  estimator.load(path);
  return estimator;
}

}  // namespace ic::core
