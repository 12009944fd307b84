#include "ic/graph/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "ic/support/thread_pool.hpp"

namespace ic::graph {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    IC_ASSERT_MSG(r.size() == cols_, "ragged initializer for Matrix");
    for (double v : r) data_.push_back(v);
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::random_uniform(std::size_t rows, std::size_t cols, double limit,
                              Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.uniform(-limit, limit);
  return m;
}

Matrix Matrix::random_normal(std::size_t rows, std::size_t cols, double stddev,
                             Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

Matrix Matrix::column(const std::vector<double>& values) {
  Matrix m(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) m(i, 0) = values[i];
  return m;
}

Matrix Matrix::row(const std::vector<double>& values) {
  Matrix m(1, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) m(0, i) = values[i];
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  IC_ASSERT(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  IC_ASSERT(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

namespace {

/// Flop threshold below which threading a matmul costs more than it saves.
constexpr std::size_t kParallelMatmulFlops = std::size_t{1} << 17;

}  // namespace

Matrix Matrix::matmul(const Matrix& other) const {
  IC_ASSERT_MSG(cols_ == other.rows_, "matmul shape mismatch: (" << rows_ << 'x'
                                      << cols_ << ") * (" << other.rows_ << 'x'
                                      << other.cols_ << ')');
  Matrix out(rows_, other.cols_);
  // i-k-j loop order keeps the inner loop contiguous in both operands.
  auto row_range = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const double aik = data_[i * cols_ + k];
        if (aik == 0.0) continue;
        const double* brow = other.data_.data() + k * other.cols_;
        double* orow = out.data_.data() + i * other.cols_;
        for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
      }
    }
  };

  // Large products split by output row across the global pool (sized by
  // IC_JOBS; 1 worker when unset, which keeps this branch cold). Every
  // output row is written by exactly one task and reads only shared inputs,
  // so the result is bit-identical to the serial loop for any worker count.
  auto& pool = support::ThreadPool::global();
  if (pool.worker_count() > 1 &&
      rows_ * cols_ * other.cols_ >= kParallelMatmulFlops && rows_ > 1) {
    const std::size_t executors = std::min(pool.worker_count() + 1, rows_);
    const std::size_t chunk = (rows_ + executors - 1) / executors;
    pool.parallel_for(0, executors, [&](std::size_t e, std::size_t) {
      const std::size_t lo = e * chunk;
      row_range(lo, std::min(rows_, lo + chunk));
    });
  } else {
    row_range(0, rows_);
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

std::vector<double> Matrix::row_sums() const {
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out[i] += (*this)(i, j);
  }
  return out;
}

std::vector<double> Matrix::col_sums() const {
  std::vector<double> out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out[j] += (*this)(i, j);
  }
  return out;
}

std::vector<double> Matrix::row_means() const {
  auto out = row_sums();
  if (cols_ > 0) {
    for (double& v : out) v /= static_cast<double>(cols_);
  }
  return out;
}

std::vector<double> Matrix::col_means() const {
  auto out = col_sums();
  if (rows_ > 0) {
    for (double& v : out) v /= static_cast<double>(rows_);
  }
  return out;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

std::vector<double> Matrix::column_vec(std::size_t c) const {
  IC_ASSERT(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, c);
  return out;
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  IC_ASSERT(a.same_shape(b));
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

Matrix solve_linear(Matrix a, Matrix b) {
  IC_ASSERT(a.rows() == a.cols());
  IC_ASSERT(a.rows() == b.rows());
  const std::size_t n = a.rows();
  const std::size_t m = b.cols();
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a(r, col)) > std::fabs(a(pivot, col))) pivot = r;
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(col, j), a(pivot, j));
      for (std::size_t j = 0; j < m; ++j) std::swap(b(col, j), b(pivot, j));
    }
    const double p = a(col, col);
    IC_CHECK(p != 0.0, "solve_linear: exactly singular matrix at column " << col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / p;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a(r, j) -= factor * a(col, j);
      for (std::size_t j = 0; j < m; ++j) b(r, j) -= factor * b(col, j);
    }
  }
  // Back substitution.
  Matrix x(n, m);
  for (std::size_t ri = n; ri-- > 0;) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = b(ri, j);
      for (std::size_t k = ri + 1; k < n; ++k) acc -= a(ri, k) * x(k, j);
      x(ri, j) = acc / a(ri, ri);
    }
  }
  return x;
}

Matrix solve_spd(Matrix a, Matrix b) {
  IC_ASSERT(a.rows() == a.cols());
  IC_ASSERT(a.rows() == b.rows());
  const std::size_t n = a.rows();
  // In-place Cholesky: a becomes lower-triangular L with A = L Lᵀ.
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    IC_CHECK(d > 0.0, "solve_spd: matrix not positive definite at column " << j);
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / ljj;
    }
  }
  const std::size_t m = b.cols();
  // Forward solve L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = b(i, j);
      for (std::size_t k = 0; k < i; ++k) acc -= a(i, k) * b(k, j);
      b(i, j) = acc / a(i, i);
    }
  }
  // Back solve Lᵀ x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = b(ii, j);
      for (std::size_t k = ii + 1; k < n; ++k) acc -= a(k, ii) * b(k, j);
      b(ii, j) = acc / a(ii, ii);
    }
  }
  return b;
}

}  // namespace ic::graph
