#include "ic/search/oracle.hpp"

#include "ic/core/estimator.hpp"
#include "ic/serve/client.hpp"
#include "ic/serve/engine.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/metrics.hpp"

namespace ic::search {

std::vector<double> FitnessOracle::predict_log_batch(
    const std::vector<std::vector<circuit::GateId>>& selections) {
  if (selections.empty()) return {};
  std::vector<double> out = predict_batch_impl(selections);
  IC_ASSERT(out.size() == selections.size());
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("search.oracle_calls").add(selections.size());
  metrics.counter("search.oracle_batches").add(1);
  return out;
}

EngineOracle::EngineOracle(serve::InferenceEngine& engine, std::string model,
                           std::string circuit)
    : engine_(engine), model_(std::move(model)), circuit_(std::move(circuit)) {}

std::vector<double> EngineOracle::predict_batch_impl(
    const std::vector<std::vector<circuit::GateId>>& selections) {
  std::vector<serve::PredictRequest> requests;
  requests.reserve(selections.size());
  for (const auto& selection : selections) {
    serve::PredictRequest request;
    request.model = model_;
    request.circuit = circuit_;
    request.selection = selection;
    requests.push_back(std::move(request));
  }
  const auto results = engine_.predict_batch(std::move(requests));
  std::vector<double> out;
  out.reserve(results.size());
  for (const auto& result : results) {
    IC_CHECK(result.ok(), "oracle prediction failed ("
                              << serve::status_name(result.status)
                              << "): " << result.error);
    out.push_back(result.log_runtime);
  }
  return out;
}

ClientOracle::ClientOracle(serve::Client& client, std::string model,
                           std::string circuit)
    : client_(client), model_(std::move(model)), circuit_(std::move(circuit)) {}

std::vector<double> ClientOracle::predict_batch_impl(
    const std::vector<std::vector<circuit::GateId>>& selections) {
  std::vector<serve::WireRequest> requests;
  requests.reserve(selections.size());
  for (const auto& selection : selections) {
    serve::WireRequest request;
    request.op = "predict";
    request.model = model_;
    request.circuit = circuit_;
    request.select = selection;
    requests.push_back(std::move(request));
  }
  const auto responses = client_.predict_batch(requests);
  std::vector<double> out;
  out.reserve(responses.size());
  for (const auto& response : responses) {
    IC_CHECK(response.ok, "oracle prediction failed ("
                              << response.status << "): " << response.error);
    out.push_back(response.log_runtime);
  }
  return out;
}

EstimatorOracle::EstimatorOracle(const core::RuntimeEstimator& estimator)
    : estimator_(estimator) {}

std::vector<double> EstimatorOracle::predict_batch_impl(
    const std::vector<std::vector<circuit::GateId>>& selections) {
  std::vector<double> out;
  out.reserve(selections.size());
  for (const auto& selection : selections) {
    out.push_back(estimator_.predict_log_runtime(selection));
  }
  return out;
}

}  // namespace ic::search
