// Kernel-equivalence suite for the explicit SIMD paths in nn/ (simd.h).
// The library's documented contract is that SIMD changes throughput, never
// bits: every output element accumulates its k contributions in ascending-p
// order, one unfused IEEE op per contribution, and NaN/Inf propagate
// exactly as in the scalar loops. Each test compares the shipped kernels
// bit-for-bit (memcmp of float bits, so -0.0f vs 0.0f and differing NaN
// payloads fail) against a naive scalar triple loop written here, across
// shapes chosen to hit every edge of the GEMM core's 4-row x 2-vector
// register tile: row remainders (m % 4 != 0), column tails (n around one
// and two lane widths), depth-block boundaries (k around 128, up to 3500),
// and non-finite inputs. The threaded tests pin the same property through
// Mlp::Forward, ForwardTape and Backward at 1 and 4 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "fairmove/common/parallel.h"
#include "fairmove/nn/matrix.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/nn/simd.h"

namespace fairmove {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

bool BitEqual(float x, float y) {
  uint32_t xb, yb;
  std::memcpy(&xb, &x, 4);
  std::memcpy(&yb, &y, 4);
  return xb == yb;
}

void ExpectBitEqual(const Matrix& got, const Matrix& want,
                    const char* label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      ASSERT_TRUE(BitEqual(got.At(i, j), want.At(i, j)))
          << label << " mismatch at (" << i << ", " << j
          << "): " << got.At(i, j) << " vs " << want.At(i, j);
    }
  }
}

/// Deterministic fill mixing magnitudes and signs (plus exact zeros, which
/// matter for the no-zero-skip x NaN contract).
void Fill(Matrix* m, uint64_t salt) {
  uint64_t state = 0x9E3779B97F4A7C15ULL ^ salt;
  for (size_t i = 0; i < m->size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int bucket = static_cast<int>(state >> 61);
    const double u =
        static_cast<double>(state >> 11) / 9007199254740992.0;  // [0, 1)
    float v;
    if (bucket == 0) {
      v = 0.0f;
    } else if (bucket == 1) {
      v = static_cast<float>((u - 0.5) * 1e-6);
    } else if (bucket == 2) {
      v = static_cast<float>((u - 0.5) * 1e6);
    } else {
      v = static_cast<float>(u * 4.0 - 2.0);
    }
    m->data()[i] = v;
  }
}

// --- Naive ascending-p references (the documented element order) ---------

void RefMatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Resize(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < a.cols(); ++p) acc += a.At(i, p) * b.At(p, j);
      out->Row(i)[j] = acc;
    }
  }
}

void RefMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Resize(a.cols(), b.cols());
  for (int i = 0; i < a.cols(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < a.rows(); ++p) acc += a.At(p, i) * b.At(p, j);
      out->Row(i)[j] = acc;
    }
  }
}

void RefMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Resize(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < a.cols(); ++p) acc += a.At(i, p) * b.At(j, p);
      out->Row(i)[j] = acc;
    }
  }
}

struct Shape {
  int m, k, n;
};

/// Small mixed shapes: lane tails (n % 4 and n % 8 nonzero), single rows
/// and columns, wide outputs (n = 256, 257, 300).
const Shape kShapes[] = {
    {1, 1, 1},   {1, 4, 8},    {3, 7, 5},    {5, 13, 65}, {2, 5, 3},
    {4, 16, 32}, {3, 9, 256},  {2, 11, 257}, {2, 6, 300}, {7, 31, 33},
};

/// Every edge of the register tile: m = 1..3 leave a row remainder after
/// the 4-row blocks (and 7 adds one whole block before it); n covers one
/// column, the 14-wide actor head, one lane width L, one column short of
/// and past the 2L-wide tile, and the 64-wide hidden layers; k crosses the
/// 128-deep block boundary and reaches a 3500-row batch reduction.
std::vector<Shape> TileEdgeShapes() {
  constexpr int kL = simd::kFloatLanes;
  std::vector<Shape> shapes;
  for (int m : {1, 2, 3, 7}) {
    for (int n : {1, 14, kL, 2 * kL - 1, 2 * kL + 1, 64}) {
      for (int k : {1, 5, 128, 129, 3500}) shapes.push_back({m, k, n});
    }
  }
  return shapes;
}

TEST(SimdKernelEquivalence, TileEdgesMatchNaiveReferenceBitForBit) {
  uint64_t salt = 100;
  for (const Shape& s : TileEdgeShapes()) {
    SCOPED_TRACE(testing::Message() << "m=" << s.m << " k=" << s.k
                                    << " n=" << s.n);
    Matrix a(s.m, s.k), b(s.k, s.n), at(s.k, s.m), bt(s.n, s.k);
    Fill(&a, ++salt);
    Fill(&b, ++salt);
    Fill(&at, ++salt);
    Fill(&bt, ++salt);
    Matrix got, want;
    MatMul(a, b, &got);
    RefMatMul(a, b, &want);
    ExpectBitEqual(got, want, "MatMul");
    MatMulTransA(at, b, &got);
    RefMatMulTransA(at, b, &want);
    ExpectBitEqual(got, want, "MatMulTransA");
    MatMulTransB(a, bt, &got);
    RefMatMulTransB(a, bt, &want);
    ExpectBitEqual(got, want, "MatMulTransB");
  }
}

TEST(SimdKernelEquivalence, AccumulatorsStartAtPositiveZero) {
  // -1 * 0 is -0.0; added to the +0.0 every element starts from it gives
  // +0.0. A kernel that seeded its accumulator with the first product
  // would return -0.0 instead.
  for (int n : {1, simd::kFloatLanes, 2 * simd::kFloatLanes + 1}) {
    Matrix a(5, 1), b(1, n), at(1, 5), bt(n, 1);
    for (int i = 0; i < 5; ++i) {
      a.At(i, 0) = -1.0f;
      at.At(0, i) = -1.0f;
    }
    Matrix got;
    for (int pass = 0; pass < 3; ++pass) {
      if (pass == 0) MatMul(a, b, &got);
      if (pass == 1) MatMulTransA(at, b, &got);
      if (pass == 2) MatMulTransB(a, bt, &got);
      for (int i = 0; i < got.rows(); ++i) {
        for (int j = 0; j < got.cols(); ++j) {
          EXPECT_TRUE(BitEqual(got.At(i, j), 0.0f))
              << "pass " << pass << " n=" << n << " (" << i << ", " << j
              << ") is " << (std::signbit(got.At(i, j)) ? "-0" : "+0");
        }
      }
    }
  }
}

TEST(SimdKernelEquivalence, MatMulMatchesNaiveReferenceBitForBit) {
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    Fill(&a, 1);
    Fill(&b, 2);
    Matrix got, want;
    MatMul(a, b, &got);
    RefMatMul(a, b, &want);
    ExpectBitEqual(got, want, "MatMul");
  }
}

TEST(SimdKernelEquivalence, MatMulTransAMatchesNaiveReferenceBitForBit) {
  for (const Shape& s : kShapes) {
    Matrix a(s.k, s.m), b(s.k, s.n);  // a is [k x m]: out = a^T b
    Fill(&a, 3);
    Fill(&b, 4);
    Matrix got, want;
    MatMulTransA(a, b, &got);
    RefMatMulTransA(a, b, &want);
    ExpectBitEqual(got, want, "MatMulTransA");
  }
}

TEST(SimdKernelEquivalence, MatMulTransBMatchesNaiveReferenceBitForBit) {
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.n, s.k);  // b is [n x k]: out = a b^T
    Fill(&a, 5);
    Fill(&b, 6);
    Matrix got, want;
    MatMulTransB(a, b, &got);
    RefMatMulTransB(a, b, &want);
    ExpectBitEqual(got, want, "MatMulTransB");
  }
}

// Non-finite coverage is split into a NaN pass and an Inf pass on purpose.
// When two DIFFERENT NaN bit patterns meet in one add (e.g. the x86
// indefinite 0xFFC00000 from 0 * Inf against a propagated quiet NaN
// 0x7FC00000), the surviving payload is chosen by instruction operand
// order, which neither IEEE 754 nor the compiler pins — the same source
// expression can legally resolve either way under register allocation. The
// kernels' contract covers contribution ORDER and propagation, not payload
// arbitration between distinct NaNs, so each pass plants non-finites such
// that every NaN reaching a given output element carries one well-defined
// bit pattern; within that, the comparison is still bit-for-bit.

TEST(SimdKernelEquivalence, NaNInputsPropagateBitForBit) {
  // Quiet NaNs in both operands, placed to hit vector lanes and scalar
  // tails, plus an exact zero against a NaN (the documented no-zero-skip
  // case: 0 * NaN must poison the output, not be dropped). Every planted
  // NaN is the default quiet NaN, and x86 mul/add preserve a lone NaN
  // operand's payload, so all collisions are same-bits and harmless.
  const Shape shapes[] = {{3, 7, 5}, {2, 9, 300}, {4, 13, 31}};
  for (const Shape& s : shapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    Fill(&a, 7);
    Fill(&b, 8);
    a.Row(0)[s.k - 1] = kNaN;      // poisons output row 0
    b.Row(s.k - 1)[s.n - 1] = kNaN;  // poisons output column n-1
    // 0 * NaN: zero on the a side, NaN on the b side of the same p.
    a.Row(0)[0] = 0.0f;
    b.Row(0)[0] = kNaN;  // poisons output column 0 — including (0, 0)
    Matrix got, want;
    MatMul(a, b, &got);
    RefMatMul(a, b, &want);
    ExpectBitEqual(got, want, "MatMul NaN");
    EXPECT_TRUE(std::isnan(got.At(0, 0))) << "0 * NaN was zero-skipped";
    // The same operands through the transposed kernel.
    Matrix got_tb, want_tb;
    Matrix bt(s.n, s.k);
    for (int i = 0; i < s.k; ++i) {
      for (int j = 0; j < s.n; ++j) bt.Row(j)[i] = b.At(i, j);
    }
    MatMulTransB(a, bt, &got_tb);
    RefMatMulTransB(a, bt, &want_tb);
    ExpectBitEqual(got_tb, want_tb, "MatMulTransB NaN");
  }
}

TEST(SimdKernelEquivalence, InfInputsPropagateBitForBit) {
  // Infinities only: products saturate to +/-Inf, and the invalid forms
  // (0 * Inf from the Fill's exact zeros, Inf - Inf from opposite-signed
  // contributions) all generate the one x86 indefinite QNaN — so every NaN
  // that can arise shares a single bit pattern and the bitwise comparison
  // stays well-defined.
  const Shape shapes[] = {{3, 7, 5}, {2, 9, 300}, {4, 13, 31}};
  for (const Shape& s : shapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    Fill(&a, 7);
    Fill(&b, 8);
    a.Row(s.m - 1)[0] = kInf;
    a.Row(s.m / 2)[s.k / 2] = -kInf;
    b.Row(0)[s.n / 2] = kInf;
    Matrix got, want;
    MatMul(a, b, &got);
    RefMatMul(a, b, &want);
    ExpectBitEqual(got, want, "MatMul Inf");
    Matrix got_tb, want_tb;
    Matrix bt(s.n, s.k);
    for (int i = 0; i < s.k; ++i) {
      for (int j = 0; j < s.n; ++j) bt.Row(j)[i] = b.At(i, j);
    }
    MatMulTransB(a, bt, &got_tb);
    RefMatMulTransB(a, bt, &want_tb);
    ExpectBitEqual(got_tb, want_tb, "MatMulTransB Inf");
  }
}

TEST(SimdKernelEquivalence, FastTanhNMatchesScalarFastTanhBitForBit) {
  // Odd length so the vector loop leaves a scalar tail; values cover both
  // clamp branches, the saturation region, tiny inputs, zeros and NaN/Inf
  // in vector-lane positions.
  std::vector<float> values;
  for (int i = 0; i < 1003; ++i) {
    values.push_back(static_cast<float>(i - 501) * 0.031f);
  }
  values[8] = kNaN;
  values[9] = -kNaN;
  values[16] = kInf;
  values[17] = -kInf;
  values[24] = 0.0f;
  values[25] = -0.0f;
  values[32] = 11.0f;    // above the +10 clamp
  values[33] = -11.0f;   // below the -10 clamp
  values[40] = 1e-20f;   // subnormal-adjacent
  std::vector<float> got = values;
  FastTanhN(got.data(), got.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(BitEqual(got[i], FastTanh(values[i])))
        << "FastTanhN mismatch at " << i << " for input " << values[i]
        << ": " << got[i] << " vs " << FastTanh(values[i]);
  }
}

TEST(SimdKernelEquivalence, ThreadedForwardBitIdenticalAcrossThreadCounts) {
  // 200 rows forces multiple shards at 4 threads (kMinRowsPerShard = 64).
  // Every (pool, shard count) must reproduce the serial result bit-for-bit
  // because each row runs the identical per-row kernel.
  Mlp net({19, 32, 32, 7}, Activation::kTanh, /*seed=*/99);
  Matrix x(200, 19);
  Fill(&x, 11);
  x.Row(3)[5] = kNaN;  // a poisoned row must poison identically everywhere

  Matrix serial;
  net.Forward(x, &serial);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    Mlp::ShardedWorkspace ws;
    Matrix threaded;
    net.Forward(x, &threaded, &pool, &ws);
    ExpectBitEqual(threaded, serial, "threaded Forward");
  }
}

/// Byte-compares everything one taped pass and its backprop produce.
struct TrainPass {
  Mlp::Tape tape;
  Mlp::Gradients grads;
};

void ExpectSamePass(const TrainPass& got, const TrainPass& want,
                    const char* label) {
  ASSERT_EQ(got.tape.post.size(), want.tape.post.size());
  for (size_t l = 0; l < want.tape.post.size(); ++l) {
    ExpectBitEqual(got.tape.pre[l], want.tape.pre[l], label);
    ExpectBitEqual(got.tape.post[l], want.tape.post[l], label);
    ExpectBitEqual(got.grads.dw[l], want.grads.dw[l], label);
    ASSERT_EQ(got.grads.db[l].size(), want.grads.db[l].size());
    for (size_t j = 0; j < want.grads.db[l].size(); ++j) {
      ASSERT_TRUE(BitEqual(got.grads.db[l][j], want.grads.db[l][j]))
          << label << " db[" << l << "][" << j << "]";
    }
  }
}

TEST(SimdKernelEquivalence, ShardedTrainingPassBitIdenticalAcrossThreadCounts) {
  // A CMA2C-sized batch: 3500 rows shard ForwardTape and delta * W^T by
  // batch rows, and every dW into 4-row blocks. Gradients accumulate into
  // non-zero buffers (a second Backward on top of the first) so the dW
  // add-in is covered too.
  for (Activation act : {Activation::kTanh, Activation::kRelu}) {
    Mlp net({40, 64, 64, 14}, act, /*seed=*/17);
    Matrix x(3500, 40), grad_out(3500, 14);
    Fill(&x, 21);
    Fill(&grad_out, 22);
    x.Row(1234)[7] = kNaN;  // one poisoned row must poison identically
    auto run = [&](ThreadPool* pool) {
      TrainPass pass;
      Mlp::Workspace ws;
      pass.grads = net.MakeGradients();
      net.ForwardTape(x, &pass.tape, pool);
      net.Backward(pass.tape, grad_out, &pass.grads, &ws, pool);
      net.Backward(pass.tape, grad_out, &pass.grads, &ws, pool);
      return pass;
    };
    const TrainPass serial = run(nullptr);
    ThreadPool one(1), four(4);
    ExpectSamePass(run(&one), serial, "1-thread pass");
    ExpectSamePass(run(&four), serial, "4-thread pass");
  }
}

TEST(SimdKernelEquivalence, ReportsActiveBackend) {
  // Not an assertion — makes the exercised backend visible in the test log
  // so a CI run shows which ISA the equivalence suite actually covered.
  RecordProperty("simd_backend", simd::kIsaName);
  RecordProperty("float_lanes", simd::kFloatLanes);
  SUCCEED() << "simd backend: " << simd::kIsaName
            << " (lanes=" << simd::kFloatLanes << ")";
}

}  // namespace
}  // namespace fairmove
