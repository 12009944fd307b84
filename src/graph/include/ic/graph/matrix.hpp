// Dense row-major matrix of doubles.
//
// This is the numeric workhorse for the learning code. It is deliberately a
// simple value type: sizes are fixed at construction, storage is contiguous,
// and all operations check shapes via IC_ASSERT.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"

namespace ic::graph {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested braces: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Entries ~ U(-limit, limit); Xavier/Glorot when limit = sqrt(6/(in+out)).
  static Matrix random_uniform(std::size_t rows, std::size_t cols, double limit,
                               Rng& rng);
  static Matrix random_normal(std::size_t rows, std::size_t cols, double stddev,
                              Rng& rng);
  /// Column vector from values.
  static Matrix column(const std::vector<double>& values);
  /// Row vector from values.
  static Matrix row(const std::vector<double>& values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    IC_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    IC_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  // ---- elementwise -------------------------------------------------------
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  // ---- products ----------------------------------------------------------
  /// Matrix product this(rows,k) * other(k,cols).
  Matrix matmul(const Matrix& other) const;
  Matrix transpose() const;

  // ---- reductions --------------------------------------------------------
  std::vector<double> row_sums() const;
  std::vector<double> col_sums() const;
  std::vector<double> row_means() const;
  std::vector<double> col_means() const;
  double sum() const;
  double frobenius_norm() const;

  /// Extract column c as a std::vector.
  std::vector<double> column_vec(std::size_t c) const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Max |a - b| over entries; shapes must match.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b by Gaussian elimination with partial pivoting. A is n×n,
/// b is n×m; returns x (n×m). Near-singular systems are solved anyway with
/// whatever tiny pivots remain (mirroring the numeric blow-ups the paper
/// reports for plain linear regression); exactly-zero pivots throw.
Matrix solve_linear(Matrix a, Matrix b);

/// Cholesky solve for symmetric positive definite A (used by ridge-type
/// estimators). Throws std::runtime_error if A is not SPD.
Matrix solve_spd(Matrix a, Matrix b);

}  // namespace ic::graph
