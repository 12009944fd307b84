// Whole-graph regressor: graph convolutions + readout + scalar head.
//
// This single class instantiates the three models of the paper's evaluation:
//   * ICNet   — Propagate convs over the raw adjacency matrix, attention
//               (Θ_feat, Θ_gate) or sum/mean readout, exp output head (Eq. 3)
//   * GCN     — Propagate convs over D̃^{-1/2}(A+I)D̃^{-1/2}
//   * ChebNet — Chebyshev convs over the scaled normalized Laplacian
// The variant is decided purely by which structure operator the caller feeds
// in and by the config flags, so ablations (DESIGN.md §4) swap one knob at a
// time.
//
// Output head: with exp_head the raw-scale prediction is exp(z) (runtime
// grows exponentially in key bits, §III.B); trained against log-scale
// targets this is exactly softplus(z) = log(1 + exp(z)), which is how it is
// computed here (numerically stable; see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ic/nn/graph_conv.hpp"

namespace ic::nn {

enum class Readout {
  Sum,        ///< r_j = Σ_g H[g,j]
  Mean,       ///< r_j = (1/n) Σ_g H[g,j]
  Attention,  ///< learned feature- then gate-attention (the "-NN" variants)
};

struct GnnConfig {
  ConvMode conv_mode = ConvMode::Propagate;
  std::size_t cheb_order = 3;       ///< used when conv_mode == Chebyshev
  std::size_t in_features = 7;      ///< gate mask + one-hot type
  std::vector<std::size_t> hidden = {16, 8};  ///< two graph convolutions (Fig. 2)
  Readout readout = Readout::Attention;
  bool exp_head = true;
  std::uint64_t seed = 1;
};

class GnnRegressor {
 public:
  /// Activations of one forward(), read by backward().
  struct ForwardCache {
    const graph::SparseMatrix* structure = nullptr;
    std::vector<GraphConv::Cache> convs;  ///< per layer; convs.back().output is H
    std::vector<double> readout;          ///< r (d, or 1 for attention)
    std::vector<double> feat_means;       ///< m_j
    /// Feature-attention weights a_j (Attention readout only) — the quantity
    /// behind the paper's Table III case study.
    std::vector<double> feat_attention;
    std::vector<double> gate_repr;       ///< p_g
    std::vector<double> gate_attention;  ///< b_g (Attention readout only)
    double z = 0.0;                      ///< head pre-activation
  };

  explicit GnnRegressor(const GnnConfig& config);

  /// Predict the (log-scale) runtime for one graph. A pure function of the
  /// parameters and its arguments that keeps no activations, so any number
  /// of threads may call it on one shared model.
  double predict(const graph::SparseMatrix& structure,
                 const graph::Matrix& features) const;

  /// predict() that also keeps the activations backward() needs in `cache`.
  double forward(const graph::SparseMatrix& structure,
                 const graph::Matrix& features, ForwardCache& cache) const;

  /// Backpropagate dL/d(prediction) through the forward() that filled
  /// `cache`, adding each parameter's gradient into `grads` (one matrix per
  /// parameters() entry, e.g. from zero_gradients()).
  void backward(const ForwardCache& cache, double d_prediction,
                std::vector<graph::Matrix>& grads) const;

  /// A zero gradient buffer shaped like parameters().
  std::vector<graph::Matrix> zero_gradients() const;

  /// Initialize the output head so the untrained model predicts roughly
  /// `target_mean`. Adam moves each scalar by ~learning-rate per step, so
  /// without this the head bias needs thousands of steps just to reach the
  /// label offset. Called by train_gnn before the first epoch.
  void warm_start_head(double target_mean);

  std::vector<graph::Matrix*> parameters();
  std::vector<const graph::Matrix*> parameters() const;
  std::size_t parameter_count() const;

  const GnnConfig& config() const { return config_; }

 private:
  double run(const graph::SparseMatrix& structure,
             const graph::Matrix& features, ForwardCache& cache,
             bool keep_activations) const;

  GnnConfig config_;
  std::vector<GraphConv> convs_;

  // Attention parameters (1×d / 1×1 matrices so the optimizer is uniform).
  graph::Matrix theta_feat_;  // 1×d
  graph::Matrix phi_gate_;    // 1×1
  // Head parameters.
  graph::Matrix head_w_;  // r_dim×1
  graph::Matrix head_b_;  // 1×1
};

}  // namespace ic::nn
