#include "fairmove/nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "fairmove/nn/simd.h"

namespace fairmove {

namespace {

using simd::kFloatLanes;
using simd::VecF;

// Register tile of the GEMM core: kTileRows output rows x kTileVecs SIMD
// vectors of output columns, held in registers across the whole depth loop
// (8 accumulators + 2 B vectors + 1 broadcast: fits the 16 SSE2/AVX2/NEON
// registers).
constexpr int kTileRows = 4;
constexpr int kTileVecs = 2;
constexpr int kTileCols = kTileVecs * kFloatLanes;
// The depth is walked in blocks so the A and B panels a row block sweeps stay
// in L1 on long reductions (dW = input^T * delta reduces over the whole
// batch). A block boundary only stores and reloads the accumulators, which
// changes no bit.
constexpr int kDepthBlock = 128;

// One R x (V * kFloatLanes) tile over k depth steps. Lanes are independent
// output elements and simd::Add/Mul are unfused single IEEE ops, so every
// element gets exactly the float sequence of the scalar reference loop.
template <int R, int V>
void VecTile(const float* a, ptrdiff_t a_rs, ptrdiff_t a_cs, const float* b,
             ptrdiff_t ldb, float* c, ptrdiff_t ldc, int k) {
  VecF acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = simd::LoadU(c + r * ldc + v * kFloatLanes);
    }
  }
  for (int p = 0; p < k; ++p, a += a_cs, b += ldb) {
    VecF bv[V];
    for (int v = 0; v < V; ++v) bv[v] = simd::LoadU(b + v * kFloatLanes);
    for (int r = 0; r < R; ++r) {
      const VecF av = simd::Set1(a[r * a_rs]);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = simd::Add(acc[r][v], simd::Mul(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      simd::StoreU(c + r * ldc + v * kFloatLanes, acc[r][v]);
    }
  }
}

// One column of R rows: the n % kFloatLanes tail, same element sequence.
template <int R>
void ColumnTile(const float* a, ptrdiff_t a_rs, ptrdiff_t a_cs,
                const float* b, ptrdiff_t ldb, float* c, ptrdiff_t ldc,
                int k) {
  float acc[R];
  for (int r = 0; r < R; ++r) acc[r] = c[r * ldc];
  for (int p = 0; p < k; ++p, a += a_cs, b += ldb) {
    const float bv = *b;
    for (int r = 0; r < R; ++r) acc[r] += a[r * a_rs] * bv;
  }
  for (int r = 0; r < R; ++r) c[r * ldc] = acc[r];
}

// R output rows across all n columns.
template <int R>
void RowBlock(int n, int k, const float* a, ptrdiff_t a_rs, ptrdiff_t a_cs,
              const float* b, ptrdiff_t ldb, float* c, ptrdiff_t ldc) {
  int j = 0;
  for (; j + kTileCols <= n; j += kTileCols) {
    VecTile<R, kTileVecs>(a, a_rs, a_cs, b + j, ldb, c + j, ldc, k);
  }
  if (j + kFloatLanes <= n) {  // at most one whole vector is left
    VecTile<R, 1>(a, a_rs, a_cs, b + j, ldb, c + j, ldc, k);
    j += kFloatLanes;
  }
  for (; j < n; ++j) ColumnTile<R>(a, a_rs, a_cs, b + j, ldb, c + j, ldc, k);
}

}  // namespace

void Matrix::RandomGaussian(Rng& rng, double stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.Gaussian(0.0, stddev));
  }
}

// There is deliberately NO zero-skip on A(i, p): it would silently drop
// 0 * NaN / 0 * Inf contributions from a diverged weight matrix and let it
// pass output-side NaN screening.
void GemmAccumulate(int m, int n, int k, const float* a, int a_row_stride,
                    int a_col_stride, const float* b, int ldb, float* c,
                    int ldc) {
  if (m == 0 || n == 0) return;  // `a`/`c` may be null: offset nothing
  const ptrdiff_t a_rs = a_row_stride, a_cs = a_col_stride;
  for (int p0 = 0; p0 < k; p0 += kDepthBlock) {
    const int kb = std::min(kDepthBlock, k - p0);
    const float* ap = a + p0 * a_cs;
    const float* bp = b + static_cast<ptrdiff_t>(p0) * ldb;
    int i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      RowBlock<kTileRows>(n, kb, ap + i * a_rs, a_rs, a_cs, bp, ldb,
                          c + static_cast<ptrdiff_t>(i) * ldc, ldc);
    }
    for (; i < m; ++i) {
      RowBlock<1>(n, kb, ap + i * a_rs, a_rs, a_cs, bp, ldb,
                  c + static_cast<ptrdiff_t>(i) * ldc, ldc);
    }
  }
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  FM_CHECK(a.cols() == b.rows())
      << "MatMul shape mismatch: " << a.cols() << " vs " << b.rows();
  out->Resize(a.rows(), b.cols());
  GemmAccumulate(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), 1,
                 b.data(), b.cols(), out->data(), out->cols());
}

void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  FM_CHECK(a.rows() == b.rows())
      << "MatMulTransA shape mismatch: " << a.rows() << " vs " << b.rows();
  out->Resize(a.cols(), b.cols());
  GemmAccumulate(a.cols(), b.cols(), a.rows(), a.data(), 1, a.cols(),
                 b.data(), b.cols(), out->data(), out->cols());
}

void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  FM_CHECK(a.cols() == b.cols())
      << "MatMulTransB shape mismatch: " << a.cols() << " vs " << b.cols();
  Matrix bt;
  Transpose(b, &bt);
  MatMul(a, bt, out);
}

void Transpose(const Matrix& m, Matrix* out) {
  out->Resize(m.cols(), m.rows());
  for (int i = 0; i < m.rows(); ++i) {
    const float* row = m.Row(i);
    for (int j = 0; j < m.cols(); ++j) out->At(j, i) = row[j];
  }
}

void AddRowBias(const std::vector<float>& bias, Matrix* m) {
  FM_CHECK(static_cast<int>(bias.size()) == m->cols());
  for (int i = 0; i < m->rows(); ++i) {
    float* row = m->Row(i);
    for (int j = 0; j < m->cols(); ++j) row[j] += bias[static_cast<size_t>(j)];
  }
}

void SumRows(const Matrix& m, std::vector<float>* out) {
  out->assign(static_cast<size_t>(m.cols()), 0.0f);
  for (int i = 0; i < m.rows(); ++i) {
    const float* row = m.Row(i);
    for (int j = 0; j < m.cols(); ++j) (*out)[static_cast<size_t>(j)] += row[j];
  }
}

}  // namespace fairmove
