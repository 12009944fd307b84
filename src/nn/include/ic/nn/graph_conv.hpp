// Graph convolution layer with a pluggable structure operator.
//
// Two modes, both followed by an elementwise ReLU:
//   * Propagate  — H_out = ReLU(S · H · W + b)      (GCN and ICNet; S is the
//     renormalized propagation matrix or, for ICNet, the raw adjacency)
//   * Chebyshev  — H_out = ReLU(Σ_k T_k(S) · H · W_k + b) with the recurrence
//     T_0 = I, T_1 = S, T_k = 2 S T_{k−1} − T_{k−2}   (ChebNet; S is the
//     scaled normalized Laplacian)
// forward() is a const function of the parameters and its arguments. The
// manual backward pass reads the activations a forward() left in a
// caller-owned Cache and adds into a caller-owned gradient buffer, so one
// layer can serve any number of concurrent callers.
#pragma once

#include <cstdint>
#include <vector>

#include "ic/graph/matrix.hpp"
#include "ic/graph/sparse.hpp"

namespace ic::nn {

enum class ConvMode { Propagate, Chebyshev };

class GraphConv {
 public:
  /// Activations one forward() keeps for backward().
  struct Cache {
    std::vector<graph::Matrix> basis;  ///< Z_k (Chebyshev) or {S·H} (Propagate)
    graph::Matrix output;              ///< the ReLU output H_out
  };

  /// `order` is the number of weight matrices: 1 for Propagate, the
  /// Chebyshev polynomial order K for Chebyshev.
  GraphConv(ConvMode mode, std::size_t order, std::size_t in_features,
            std::size_t out_features, Rng& rng);

  /// H_out for `input`. With `cache`, also keeps what backward() needs.
  graph::Matrix forward(const graph::SparseMatrix& structure,
                        const graph::Matrix& input, Cache* cache = nullptr) const;

  /// Backward through the ReLU and the convolution of the forward() that
  /// filled `cache`. Adds dL/dW_k and dL/db into `grads`, which points at
  /// order()+1 matrices shaped like parameters(); returns dL/d(input).
  graph::Matrix backward(const graph::SparseMatrix& structure,
                         const Cache& cache, graph::Matrix d_output,
                         graph::Matrix* grads) const;

  /// W_0 … W_{order−1}, then b.
  std::vector<graph::Matrix*> parameters();
  std::vector<const graph::Matrix*> parameters() const;

  std::size_t order() const { return order_; }
  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }
  ConvMode mode() const { return mode_; }

 private:
  ConvMode mode_;
  std::size_t order_;
  std::size_t in_features_;
  std::size_t out_features_;

  std::vector<graph::Matrix> weights_;  // order_ matrices (in×out)
  graph::Matrix bias_;                  // 1×out, broadcast over gates
};

}  // namespace ic::nn
