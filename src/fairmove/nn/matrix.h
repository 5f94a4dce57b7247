#ifndef FAIRMOVE_NN_MATRIX_H_
#define FAIRMOVE_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "fairmove/common/macros.h"
#include "fairmove/common/rng.h"

namespace fairmove {

/// Dense row-major float matrix. Minimal by design: exactly the operations
/// the MLP forward/backward passes need, no expression templates, no BLAS
/// dependency (the policy networks here are small: tens of inputs, two
/// hidden layers).
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) { Resize(rows, cols); }

  void Resize(int rows, int cols) {
    FM_CHECK(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows) * cols, 0.0f);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* Row(int r) { return &data_[static_cast<size_t>(r) * cols_]; }
  const float* Row(int r) const {
    return &data_[static_cast<size_t>(r) * cols_];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

  /// Fills with N(0, stddev) entries.
  void RandomGaussian(Rng& rng, double stddev);

  /// He/Kaiming initialisation for a [in x out] weight matrix feeding ReLU.
  void HeInit(Rng& rng) { RandomGaussian(rng, std::sqrt(2.0 / rows_)); }
  /// Xavier/Glorot initialisation (tanh/linear layers).
  void XavierInit(Rng& rng) {
    RandomGaussian(rng, std::sqrt(2.0 / (rows_ + cols_)));
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// The one GEMM core under every product here: for i < m, j < n,
///   c[i * ldc + j] += sum over p < k of A(i, p) * b[p * ldb + j],
/// A(i, p) = a[i * a_row_stride + p * a_col_stride] (a row-major matrix or
/// the transpose of one). Each element adds its k contributions in
/// ascending p, one unfused Add(acc, Mul(a, b)) each, to what `c` holds
/// (callers zero it first). That order never depends on the tile an element
/// lands in or on which rows a call covers, so any split of the output rows
/// is bit-identical to one call, and every SIMD backend to scalar.
void GemmAccumulate(int m, int n, int k, const float* a, int a_row_stride,
                    int a_col_stride, const float* b, int ldb, float* c,
                    int ldc);

/// out = a * b. Shapes: [m x k] * [k x n] -> [m x n]. `out` is resized.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. Shapes: [k x m]^T * [k x n] -> [m x n].
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T. Shapes: [m x k] * [n x k]^T -> [m x n]. Runs the core over
/// a transposed copy of `b` (a local here; Mlp keeps its own in a Workspace).
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// out = m^T. `out` is resized.
void Transpose(const Matrix& m, Matrix* out);

/// Adds row-vector `bias` (size cols) to every row of `m`.
void AddRowBias(const std::vector<float>& bias, Matrix* m);

/// Sums the rows of `m` into `out` (size cols).
void SumRows(const Matrix& m, std::vector<float>* out);

}  // namespace fairmove

#endif  // FAIRMOVE_NN_MATRIX_H_
