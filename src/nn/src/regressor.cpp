#include "ic/nn/regressor.hpp"

#include <cmath>

#include "ic/support/timeline.hpp"

namespace ic::nn {

using graph::Matrix;
using graph::SparseMatrix;

namespace {

double softplus(double z) {
  // log(1 + exp(z)) without overflow.
  if (z > 30.0) return z;
  if (z < -30.0) return std::exp(z);
  return std::log1p(std::exp(z));
}

double sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

void softmax_inplace(std::vector<double>& v) {
  double mx = v[0];
  for (double x : v) mx = std::max(mx, x);
  double sum = 0.0;
  for (double& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : v) x /= sum;
}

}  // namespace

GnnRegressor::GnnRegressor(const GnnConfig& config) : config_(config) {
  IC_ASSERT(!config.hidden.empty());
  Rng rng(config.seed);
  std::size_t in = config.in_features;
  for (std::size_t h : config.hidden) {
    const std::size_t order =
        config.conv_mode == ConvMode::Chebyshev ? config.cheb_order : 1;
    convs_.emplace_back(config.conv_mode, order, in, h, rng);
    in = h;
  }
  const std::size_t d = config.hidden.back();
  const std::size_t r_dim = config.readout == Readout::Attention ? 1 : d;

  theta_feat_ = Matrix::random_uniform(1, d, 0.5, rng);
  phi_gate_ = Matrix::random_uniform(1, 1, 0.5, rng);
  head_w_ = Matrix::random_uniform(r_dim, 1, std::sqrt(6.0 / (r_dim + 1.0)), rng);
  head_b_ = Matrix(1, 1);
  // Start the exponential head in its linear region: softplus saturates to
  // zero gradient for z << 0, which would freeze training if the first
  // updates overshoot.
  if (config.exp_head) head_b_(0, 0) = 1.0;
}

void GnnRegressor::warm_start_head(double target_mean) {
  if (config_.exp_head) {
    // softplus(b) = m  =>  b = log(exp(m) − 1); for m ≳ 3 that is ≈ m.
    head_b_(0, 0) = target_mean > 3.0 ? target_mean
                                      : std::log(std::expm1(std::max(0.05, target_mean)));
  } else {
    head_b_(0, 0) = target_mean;
  }
}

double GnnRegressor::predict(const SparseMatrix& s, const Matrix& x) const {
  ForwardCache readout_only;
  return run(s, x, readout_only, false);
}

double GnnRegressor::forward(const SparseMatrix& s, const Matrix& x,
                             ForwardCache& cache) const {
  return run(s, x, cache, true);
}

double GnnRegressor::run(const SparseMatrix& s, const Matrix& x,
                         ForwardCache& c, bool keep_activations) const {
  IC_ASSERT(x.cols() == config_.in_features);
  c.structure = &s;
  c.convs.resize(keep_activations ? convs_.size() : 0);
  const Matrix* in = &x;
  Matrix h;
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    h = convs_[i].forward(s, *in, keep_activations ? &c.convs[i] : nullptr);
    in = &h;
  }
  const std::size_t d = h.cols();
  const std::size_t n = h.rows();

  c.readout.clear();
  switch (config_.readout) {
    case Readout::Sum:
      c.readout = h.col_sums();
      break;
    case Readout::Mean:
      c.readout = h.col_means();
      break;
    case Readout::Attention: {
      // Feature attention: a = softmax_j(θ_j · mean_g H[g,j]).
      c.feat_means = h.col_means();
      c.feat_attention.assign(d, 0.0);
      for (std::size_t j = 0; j < d; ++j) {
        c.feat_attention[j] = theta_feat_(0, j) * c.feat_means[j];
      }
      softmax_inplace(c.feat_attention);
      // Per-gate scalar p_g = Σ_j a_j H[g,j].
      c.gate_repr.assign(n, 0.0);
      for (std::size_t g = 0; g < n; ++g) {
        double acc = 0.0;
        for (std::size_t j = 0; j < d; ++j) acc += c.feat_attention[j] * h(g, j);
        c.gate_repr[g] = acc;
      }
      // Gate attention: b = softmax_g(φ · p_g); r = Σ_g b_g p_g.
      c.gate_attention = c.gate_repr;
      for (double& sgi : c.gate_attention) sgi *= phi_gate_(0, 0);
      softmax_inplace(c.gate_attention);
      double r = 0.0;
      for (std::size_t g = 0; g < n; ++g) r += c.gate_attention[g] * c.gate_repr[g];
      c.readout.push_back(r);
      break;
    }
  }

  IC_ASSERT(c.readout.size() == head_w_.rows());
  double z = head_b_(0, 0);
  for (std::size_t i = 0; i < c.readout.size(); ++i) z += c.readout[i] * head_w_(i, 0);
  c.z = z;
  const double prediction = config_.exp_head ? softplus(z) : z;
  telemetry::mark_stage(telemetry::Stage::Readout);
  return prediction;
}

void GnnRegressor::backward(const ForwardCache& cache, double d_pred,
                            std::vector<Matrix>& grads) const {
  IC_ASSERT_MSG(cache.convs.size() == convs_.size(), "backward without forward");
  IC_ASSERT(grads.size() == parameters().size());
  const SparseMatrix& s = *cache.structure;
  const Matrix& h = cache.convs.back().output;
  const std::size_t d = h.cols();
  const std::size_t n = h.rows();
  // grads is laid out like parameters(): convs, [θ, φ], head w, head b.
  std::size_t next = grads.size() - 2;

  // Head.
  const double dz = config_.exp_head ? d_pred * sigmoid(cache.z) : d_pred;
  grads[next + 1](0, 0) += dz;
  std::vector<double> dr(cache.readout.size());
  for (std::size_t i = 0; i < cache.readout.size(); ++i) {
    grads[next](i, 0) += dz * cache.readout[i];
    dr[i] = dz * head_w_(i, 0);
  }

  Matrix dh(n, d);
  switch (config_.readout) {
    case Readout::Sum:
      for (std::size_t g = 0; g < n; ++g) {
        for (std::size_t j = 0; j < d; ++j) dh(g, j) = dr[j];
      }
      break;
    case Readout::Mean: {
      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t g = 0; g < n; ++g) {
        for (std::size_t j = 0; j < d; ++j) dh(g, j) = dr[j] * inv_n;
      }
      break;
    }
    case Readout::Attention: {
      next -= 2;
      Matrix& d_theta_feat = grads[next];
      Matrix& d_phi_gate = grads[next + 1];
      const std::vector<double>& a = cache.feat_attention;
      const double drs = dr[0];
      const double phi = phi_gate_(0, 0);
      // r = Σ_g b_g p_g with b = softmax(φ p).
      // dr/dp_g = b_g + φ b_g (p_g − r).
      const double r = cache.readout[0];
      std::vector<double> dp(n);
      double dphi = 0.0;
      for (std::size_t g = 0; g < n; ++g) {
        const double bg = cache.gate_attention[g];
        const double pg = cache.gate_repr[g];
        dp[g] = drs * (bg + phi * bg * (pg - r));
        dphi += drs * bg * (pg - r) * pg;
      }
      d_phi_gate(0, 0) += dphi;

      // p_g = Σ_j a_j H[g,j]; a = softmax(e), e_j = θ_j m_j, m = col means.
      std::vector<double> da(d, 0.0);
      for (std::size_t g = 0; g < n; ++g) {
        for (std::size_t j = 0; j < d; ++j) {
          dh(g, j) = dp[g] * a[j];  // direct path
          da[j] += dp[g] * h(g, j);
        }
      }
      // Softmax backward.
      double dot = 0.0;
      for (std::size_t j = 0; j < d; ++j) dot += a[j] * da[j];
      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t j = 0; j < d; ++j) {
        const double de = a[j] * (da[j] - dot);
        d_theta_feat(0, j) += de * cache.feat_means[j];
        const double dm = de * theta_feat_(0, j);
        for (std::size_t g = 0; g < n; ++g) dh(g, j) += dm * inv_n;
      }
      break;
    }
  }

  // Conv stack in reverse.
  for (std::size_t i = convs_.size(); i-- > 0;) {
    next -= convs_[i].order() + 1;
    dh = convs_[i].backward(s, cache.convs[i], std::move(dh), &grads[next]);
  }
  IC_ASSERT(next == 0);
}

std::vector<Matrix> GnnRegressor::zero_gradients() const {
  std::vector<Matrix> out;
  for (const Matrix* p : parameters()) out.emplace_back(p->rows(), p->cols());
  return out;
}

std::vector<Matrix*> GnnRegressor::parameters() {
  std::vector<Matrix*> out;
  for (auto& c : convs_) {
    for (auto* p : c.parameters()) out.push_back(p);
  }
  if (config_.readout == Readout::Attention) {
    out.push_back(&theta_feat_);
    out.push_back(&phi_gate_);
  }
  out.push_back(&head_w_);
  out.push_back(&head_b_);
  return out;
}

std::vector<const Matrix*> GnnRegressor::parameters() const {
  std::vector<const Matrix*> out;
  for (const auto& c : convs_) {
    for (const auto* p : c.parameters()) out.push_back(p);
  }
  if (config_.readout == Readout::Attention) {
    out.push_back(&theta_feat_);
    out.push_back(&phi_gate_);
  }
  out.push_back(&head_w_);
  out.push_back(&head_b_);
  return out;
}

std::size_t GnnRegressor::parameter_count() const {
  std::size_t count = 0;
  for (const Matrix* p : parameters()) count += p->size();
  return count;
}

}  // namespace ic::nn
