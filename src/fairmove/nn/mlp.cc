#include "fairmove/nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "fairmove/io/atomic_file.h"
#include "fairmove/nn/simd.h"

namespace fairmove {

float FastTanh(float x) {
  // Clamp via ternaries: both comparisons are false for NaN, so a NaN
  // input falls through unclamped and poisons the polynomial below.
  // Beyond |x| = 10, float tanh is exactly +/-1 anyway.
  const float xc = x > 10.0f ? 10.0f : (x < -10.0f ? -10.0f : x);
  // tanh(x) = (e - 1) / (e + 1), e = exp(2x) = 2^v, v = 2x * log2(e).
  const float v = xc * 2.885390081777927f;
  // Round-to-nearest-even split v = n + f, f in [-0.5, 0.5], using the
  // 1.5 * 2^23 magic constant (valid since |v| < 2^22). The bit pattern of
  // (v + magic) is 0x4B400000 + n, which hands us n without a float->int
  // cast — a NaN v must not reach such a cast (UB, and it would trap
  // under -fsanitize=float-cast-overflow).
  const float magic = 12582912.0f;  // 1.5 * 2^23
  const float shifted = v + magic;
  uint32_t sbits;
  std::memcpy(&sbits, &shifted, sizeof(sbits));
  const float nf = shifted - magic;
  const float f = v - nf;  // exact (Sterbenz)
  // 2^f = exp(t), t = f * ln(2), |t| <= 0.347: degree-6 Taylor keeps the
  // truncation error below 1.3e-7 relative.
  const float t = f * 0.6931471805599453f;
  const float p =
      1.0f +
      t * (1.0f +
           t * (0.5f +
                t * (1.0f / 6.0f +
                     t * (1.0f / 24.0f +
                          t * (1.0f / 120.0f + t * (1.0f / 720.0f))))));
  // Splice 2^n in as float bits: exponent field (n + 127) << 23. n is in
  // [-29, 29] for finite inputs; for NaN the scale is garbage but p is
  // already NaN, which is what we want to return.
  float scale;
  const uint32_t ebits = (sbits - 0x4B400000u + 127u) << 23;
  std::memcpy(&scale, &ebits, sizeof(scale));
  const float e = p * scale;
  return (e - 1.0f) / (e + 1.0f);
}

void FastTanhN(float* data, size_t n) {
  using simd::kFloatLanes;
  size_t i = 0;
  if constexpr (kFloatLanes > 1) {
    // Lane-for-lane transcription of scalar FastTanh above: same constants,
    // same operation order, unfused mul/add, and a compare/select clamp
    // that (like the scalar ternaries) is false on NaN so a NaN input runs
    // the polynomial unclamped and propagates. Keep the two in sync.
    const simd::VecF ten = simd::Set1(10.0f);
    const simd::VecF neg_ten = simd::Set1(-10.0f);
    const simd::VecF two_log2e = simd::Set1(2.885390081777927f);
    const simd::VecF magic = simd::Set1(12582912.0f);  // 1.5 * 2^23
    const simd::VecF ln2 = simd::Set1(0.6931471805599453f);
    const simd::VecF one = simd::Set1(1.0f);
    const simd::VecF c2 = simd::Set1(0.5f);
    const simd::VecF c3 = simd::Set1(1.0f / 6.0f);
    const simd::VecF c4 = simd::Set1(1.0f / 24.0f);
    const simd::VecF c5 = simd::Set1(1.0f / 120.0f);
    const simd::VecF c6 = simd::Set1(1.0f / 720.0f);
    const simd::VecI exp_bias = simd::Set1I(127 - 0x4B400000);
    for (; i + kFloatLanes <= n; i += kFloatLanes) {
      const simd::VecF x = simd::LoadU(data + i);
      const simd::VecF xc = simd::Select(
          simd::CmpGt(x, ten), ten,
          simd::Select(simd::CmpLt(x, neg_ten), neg_ten, x));
      const simd::VecF v = simd::Mul(xc, two_log2e);
      const simd::VecF shifted = simd::Add(v, magic);
      const simd::VecI sbits = simd::CastToInt(shifted);
      const simd::VecF nf = simd::Sub(shifted, magic);
      const simd::VecF f = simd::Sub(v, nf);
      const simd::VecF t = simd::Mul(f, ln2);
      simd::VecF p = simd::Add(c5, simd::Mul(t, c6));
      p = simd::Add(c4, simd::Mul(t, p));
      p = simd::Add(c3, simd::Mul(t, p));
      p = simd::Add(c2, simd::Mul(t, p));
      p = simd::Add(one, simd::Mul(t, p));
      p = simd::Add(one, simd::Mul(t, p));
      const simd::VecF scale =
          simd::CastToFloat(simd::ShlI32<23>(simd::AddI32(sbits, exp_bias)));
      const simd::VecF e = simd::Mul(p, scale);
      simd::StoreU(data + i,
                   simd::Div(simd::Sub(e, one), simd::Add(e, one)));
    }
  }
  for (; i < n; ++i) data[i] = FastTanh(data[i]);
}

namespace {

/// In-place ReLU matching std::max(0.0f, v) bit-for-bit: (0 < v) ? v : 0,
/// so NaN and -0.0f both map to +0.0f exactly as the scalar loop did.
void ReluN(float* data, size_t n) {
  using simd::kFloatLanes;
  size_t i = 0;
  if constexpr (kFloatLanes > 1) {
    const simd::VecF zero = simd::Zero();
    for (; i + kFloatLanes <= n; i += kFloatLanes) {
      const simd::VecF v = simd::LoadU(data + i);
      simd::StoreU(data + i, simd::Select(simd::CmpLt(zero, v), v, zero));
    }
  }
  for (; i < n; ++i) data[i] = std::max(0.0f, data[i]);
}

void ActivateN(Activation activation, float* data, size_t n) {
  switch (activation) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      ReluN(data, n);
      return;
    case Activation::kTanh:
      FastTanhN(data, n);
      return;
  }
}

// Below this many batch rows per shard the fork/join overhead beats the win
// on these small policy networks; ForwardRows also walks rows in chunks of
// this many through the whole network.
constexpr int kMinRowsPerShard = 64;
// A dW shard must carry at least this many multiply-adds (the 64 x 64 x 64
// of one kMinRowsPerShard-row layer).
constexpr int64_t kMinShardMadds = int64_t{1} << 18;
// Shard boundaries fall on whole GEMM register tiles (4 rows).
constexpr int kShardAlign = 4;

/// Shards for `rows` output rows when each shard needs `min_rows`: one per
/// `min_rows`, at most one per pool lane.
int ShardCount(const ThreadPool* pool, int rows, int64_t min_rows) {
  if (pool == nullptr || pool->num_threads() <= 1) return 1;
  return static_cast<int>(
      std::clamp<int64_t>(rows / min_rows, 1, pool->num_threads()));
}

/// Rows [first, second) of shard `s` of `shards` balanced contiguous
/// ranges over `rows`, split on kShardAlign boundaries.
std::pair<int, int> ShardRange(int rows, int shards, int s) {
  const int groups = (rows + kShardAlign - 1) / kShardAlign;
  const int quot = groups / shards, rem = groups % shards;
  const int begin = (s * quot + std::min(s, rem)) * kShardAlign;
  const int end = begin + (quot + (s < rem ? 1 : 0)) * kShardAlign;
  return {std::min(begin, rows), std::min(end, rows)};
}

/// Runs fn(0) ... fn(n - 1): inline in index order on a null or one-lane
/// pool, else as one ParallelFor region whose std::function holds a single
/// reference (it fits the inline buffer, so nothing is allocated).
template <typename Fn>
void RunTasks(ThreadPool* pool, int n, const Fn& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    for (int t = 0; t < n; ++t) fn(t);
    return;
  }
  pool->ParallelFor(n, [&fn](int64_t t) { fn(static_cast<int>(t)); });
}

}  // namespace

Mlp::Mlp(const std::vector<int>& sizes, Activation hidden_activation,
         uint64_t seed)
    : sizes_(sizes), hidden_activation_(hidden_activation) {
  FM_CHECK(sizes.size() >= 2) << "need at least input and output sizes";
  for (int s : sizes) FM_CHECK(s > 0) << "layer size " << s;
  Rng rng(seed);
  weights_.reserve(sizes.size() - 1);
  biases_.reserve(sizes.size() - 1);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    Matrix w(sizes[i], sizes[i + 1]);
    const bool last = i + 2 == sizes.size();
    if (!last && hidden_activation == Activation::kRelu) {
      w.HeInit(rng);
    } else {
      w.XavierInit(rng);
    }
    weights_.push_back(std::move(w));
    biases_.emplace_back(static_cast<size_t>(sizes[i + 1]), 0.0f);
  }
}

void Mlp::Forward(const Matrix& x, Matrix* y, Workspace* ws) const {
  FM_CHECK(x.cols() == input_dim())
      << "input dim " << x.cols() << " != " << input_dim();
  FM_CHECK(y != &x) << "Forward output must not alias the input";
  y->Resize(x.rows(), output_dim());
  Workspace local;
  ForwardRows(x, 0, x.rows(), y, ws != nullptr ? ws : &local);
}

void Mlp::ForwardRows(const Matrix& x, int row_begin, int row_end, Matrix* y,
                      Workspace* ws) const {
  // Rows pass through all layers in chunks, so the hidden activations stay
  // small and cache-resident whatever the batch size.
  for (int chunk = row_begin; chunk < row_end; chunk += kMinRowsPerShard) {
    const int len = std::min(kMinRowsPerShard, row_end - chunk);
    const Matrix* current = &x;
    int base = chunk;
    for (int layer = 0; layer < num_layers(); ++layer) {
      const size_t li = static_cast<size_t>(layer);
      const bool last = layer + 1 == num_layers();
      const int in_cols = sizes_[li], out_cols = sizes_[li + 1];
      // The last layer writes straight into `y` at the chunk's row offset;
      // hidden layers ping-pong between the two workspace buffers (the
      // alternation guarantees the input of a layer is never its output).
      Matrix* dst = last ? y : &ws->act[li % 2];
      int out_base = chunk;
      if (!last) {
        dst->Resize(len, out_cols);  // also zeroes for the accumulate kernel
        out_base = 0;
      }
      const std::vector<float>& bias = biases_[li];
      GemmAccumulate(len, out_cols, in_cols, current->Row(base), in_cols, 1,
                     weights_[li].data(), out_cols, dst->Row(out_base),
                     out_cols);
      for (int i = 0; i < len; ++i) {
        float* out_row = dst->Row(out_base + i);
        for (int j = 0; j < out_cols; ++j) {
          out_row[j] += bias[static_cast<size_t>(j)];
        }
        if (!last) {
          ActivateN(hidden_activation_, out_row, static_cast<size_t>(out_cols));
        }
      }
      current = dst;
      base = 0;
    }
  }
}

void Mlp::Forward(const Matrix& x, Matrix* y, ThreadPool* pool,
                  ShardedWorkspace* ws) const {
  FM_CHECK(x.cols() == input_dim())
      << "input dim " << x.cols() << " != " << input_dim();
  FM_CHECK(y != &x) << "Forward output must not alias the input";
  const int rows = x.rows();
  y->Resize(rows, output_dim());
  const int shards = ShardCount(pool, rows, kMinRowsPerShard);
  if (static_cast<int>(ws->shards.size()) < shards) {
    ws->shards.resize(static_cast<size_t>(shards));
  }
  // Shard s writes only its own rows of `y`, so shards race on nothing and
  // `y` is bit-identical for any shard count.
  RunTasks(pool, shards, [&](int s) {
    const auto [begin, end] = ShardRange(rows, shards, s);
    ForwardRows(x, begin, end, y, &ws->shards[static_cast<size_t>(s)]);
  });
}

std::vector<float> Mlp::Forward1(const std::vector<float>& x) const {
  FM_CHECK(static_cast<int>(x.size()) == input_dim());
  Matrix in(1, input_dim());
  std::copy(x.begin(), x.end(), in.Row(0));
  Matrix out;
  Forward(in, &out);
  return std::vector<float>(out.Row(0), out.Row(0) + out.cols());
}

void Mlp::ForwardTape(const Matrix& x, Tape* tape, ThreadPool* pool) const {
  FM_CHECK(x.cols() == input_dim());
  tape->input = x;
  // resize (not assign) keeps existing per-layer matrices alive so their
  // buffers are reused on every pass through the same tape.
  tape->pre.resize(static_cast<size_t>(num_layers()));
  tape->post.resize(static_cast<size_t>(num_layers()));
  const int rows = x.rows();
  for (int layer = 0; layer < num_layers(); ++layer) {
    const size_t li = static_cast<size_t>(layer);
    tape->pre[li].Resize(rows, sizes_[li + 1]);
    tape->post[li].Resize(rows, sizes_[li + 1]);
  }
  // A batch row depends only on the same row of the layer below, so each
  // shard runs its rows through every layer with no barrier in between.
  const int shards = ShardCount(pool, rows, kMinRowsPerShard);
  RunTasks(pool, shards, [&](int s) {
    const auto [begin, end] = ShardRange(rows, shards, s);
    const Matrix* current = &tape->input;
    for (int layer = 0; layer < num_layers() && begin < end; ++layer) {
      const size_t li = static_cast<size_t>(layer);
      const int in_cols = sizes_[li], out_cols = sizes_[li + 1];
      Matrix& pre = tape->pre[li];
      Matrix& post = tape->post[li];
      GemmAccumulate(end - begin, out_cols, in_cols, current->Row(begin),
                     in_cols, 1, weights_[li].data(), out_cols,
                     pre.Row(begin), out_cols);
      const std::vector<float>& bias = biases_[li];
      for (int i = begin; i < end; ++i) {
        float* pre_row = pre.Row(i);
        float* post_row = post.Row(i);
        for (int j = 0; j < out_cols; ++j) {
          pre_row[j] += bias[static_cast<size_t>(j)];
          post_row[j] = pre_row[j];
        }
        if (layer + 1 < num_layers()) {
          ActivateN(hidden_activation_, post_row,
                    static_cast<size_t>(out_cols));
        }
      }
      current = &post;
    }
  });
}

Mlp::Gradients Mlp::MakeGradients() const {
  Gradients g;
  g.dw.reserve(weights_.size());
  g.db.reserve(biases_.size());
  for (size_t i = 0; i < weights_.size(); ++i) {
    g.dw.emplace_back(weights_[i].rows(), weights_[i].cols());
    g.db.emplace_back(biases_[i].size(), 0.0f);
  }
  return g;
}

void Mlp::Gradients::Zero() {
  for (Matrix& m : dw) m.Zero();
  for (auto& b : db) std::fill(b.begin(), b.end(), 0.0f);
}

void Mlp::Backward(const Tape& tape, const Matrix& grad_output,
                   Gradients* grads, Workspace* ws, ThreadPool* pool) const {
  FM_CHECK(grad_output.cols() == output_dim());
  FM_CHECK(grad_output.rows() == tape.input.rows());
  FM_CHECK(grads->dw.size() == weights_.size());
  const int rows = tape.input.rows();
  Workspace local;
  if (ws == nullptr) ws = &local;

  // dL/d(pre) of the current layer. The output layer is linear; the hidden
  // layers' activation derivative is applied by the propagation that
  // produces their delta.
  Matrix& delta = ws->delta;
  delta = grad_output;
  for (int layer = num_layers() - 1; layer >= 0; --layer) {
    const size_t li = static_cast<size_t>(layer);
    const int in_cols = sizes_[li], out_cols = sizes_[li + 1];
    const Matrix& layer_input = layer == 0 ? tape.input : tape.post[li - 1];
    Matrix& dw = ws->dw;
    dw.Resize(in_cols, out_cols);
    Matrix& acc = grads->dw[li];
    FM_CHECK(acc.rows() == in_cols && acc.cols() == out_cols);
    if (layer > 0) {
      Transpose(weights_[li], &ws->wt);
      ws->delta_prev.Resize(rows, in_cols);
    }
    // One region per layer, all reading `delta`: task 0 sums db, then the
    // dW row blocks of input^T * delta, then the batch-row blocks of
    // delta * W^T. Every task writes its own outputs only.
    const int64_t dw_row_madds = std::max<int64_t>(int64_t{rows} * out_cols, 1);
    const int dw_shards = ShardCount(
        pool, in_cols,
        std::max<int64_t>(kShardAlign, kMinShardMadds / dw_row_madds));
    const int prop_shards =
        layer > 0 ? ShardCount(pool, rows, kMinRowsPerShard) : 0;
    const bool split = dw_shards > 1 || prop_shards > 1;
    RunTasks(split ? pool : nullptr, 1 + dw_shards + prop_shards, [&](int t) {
      if (t == 0) {
        SumRows(delta, &ws->db);
        std::vector<float>& db = grads->db[li];
        for (size_t i = 0; i < db.size(); ++i) db[i] += ws->db[i];
      } else if (t <= dw_shards) {
        const auto [begin, end] = ShardRange(in_cols, dw_shards, t - 1);
        GemmAccumulate(end - begin, out_cols, rows, layer_input.data() + begin,
                       1, in_cols, delta.data(), out_cols, dw.Row(begin),
                       out_cols);
        for (size_t i = static_cast<size_t>(begin) * out_cols;
             i < static_cast<size_t>(end) * out_cols; ++i) {
          acc.data()[i] += dw.data()[i];
        }
      } else {
        const auto [begin, end] =
            ShardRange(rows, prop_shards, t - 1 - dw_shards);
        const size_t first = static_cast<size_t>(begin) * in_cols;
        float* d = ws->delta_prev.data() + first;
        GemmAccumulate(end - begin, in_cols, out_cols,
                       delta.data() + static_cast<size_t>(begin) * out_cols,
                       out_cols, 1, ws->wt.data(), in_cols, d, in_cols);
        const float* post = tape.post[li - 1].data() + first;
        const size_t n = static_cast<size_t>(end - begin) * in_cols;
        if (hidden_activation_ == Activation::kRelu) {
          for (size_t i = 0; i < n; ++i) {
            if (post[i] <= 0.0f) d[i] = 0.0f;
          }
        } else if (hidden_activation_ == Activation::kTanh) {
          for (size_t i = 0; i < n; ++i) d[i] *= 1.0f - post[i] * post[i];
        }
      }
    });
    if (layer > 0) std::swap(delta, ws->delta_prev);
  }
}

void Mlp::CopyParametersFrom(const Mlp& other) {
  FM_CHECK(sizes_ == other.sizes_) << "network shape mismatch";
  weights_ = other.weights_;
  biases_ = other.biases_;
}

void Mlp::SoftUpdateFrom(const Mlp& other, double tau) {
  FM_CHECK(sizes_ == other.sizes_) << "network shape mismatch";
  FM_CHECK(tau >= 0.0 && tau <= 1.0);
  const float t = static_cast<float>(tau);
  for (size_t l = 0; l < weights_.size(); ++l) {
    for (size_t i = 0; i < weights_[l].size(); ++i) {
      weights_[l].data()[i] = (1.0f - t) * weights_[l].data()[i] +
                              t * other.weights_[l].data()[i];
    }
    for (size_t i = 0; i < biases_[l].size(); ++i) {
      biases_[l][i] = (1.0f - t) * biases_[l][i] + t * other.biases_[l][i];
    }
  }
}

size_t Mlp::num_parameters() const {
  size_t n = 0;
  for (const Matrix& w : weights_) n += w.size();
  for (const auto& b : biases_) n += b.size();
  return n;
}

namespace {

constexpr char kMlpMagic[5] = {'F', 'M', 'L', 'P', '1'};

template <typename T>
void WritePod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status Mlp::Serialize(std::ostream& out) const {
  out.write(kMlpMagic, sizeof(kMlpMagic));
  WritePod(out, static_cast<int32_t>(hidden_activation_));
  WritePod(out, static_cast<int32_t>(sizes_.size()));
  for (int s : sizes_) WritePod(out, static_cast<int32_t>(s));
  for (size_t l = 0; l < weights_.size(); ++l) {
    out.write(reinterpret_cast<const char*>(weights_[l].data()),
              static_cast<std::streamsize>(weights_[l].size() *
                                           sizeof(float)));
    out.write(reinterpret_cast<const char*>(biases_[l].data()),
              static_cast<std::streamsize>(biases_[l].size() *
                                           sizeof(float)));
  }
  if (!out) return Status::IOError("MLP serialization write failed");
  return Status::OK();
}

StatusOr<Mlp> Mlp::Deserialize(std::istream& in) {
  char magic[sizeof(kMlpMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMlpMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an FMLP1 network blob");
  }
  int32_t activation = 0, num_sizes = 0;
  if (!ReadPod(in, &activation) || !ReadPod(in, &num_sizes)) {
    return Status::InvalidArgument("truncated MLP header");
  }
  if (activation < 0 || activation > 2 || num_sizes < 2 ||
      num_sizes > 64) {
    return Status::InvalidArgument("corrupt MLP header");
  }
  std::vector<int> sizes;
  sizes.reserve(static_cast<size_t>(num_sizes));
  for (int i = 0; i < num_sizes; ++i) {
    int32_t s = 0;
    if (!ReadPod(in, &s) || s <= 0 || s > 1 << 20) {
      return Status::InvalidArgument("corrupt MLP layer size");
    }
    sizes.push_back(s);
  }
  Mlp net(sizes, static_cast<Activation>(activation), /*seed=*/0);
  for (size_t l = 0; l < net.weights_.size(); ++l) {
    in.read(reinterpret_cast<char*>(net.weights_[l].data()),
            static_cast<std::streamsize>(net.weights_[l].size() *
                                         sizeof(float)));
    in.read(reinterpret_cast<char*>(net.biases_[l].data()),
            static_cast<std::streamsize>(net.biases_[l].size() *
                                         sizeof(float)));
    if (!in) return Status::InvalidArgument("truncated MLP parameters");
    // Mirror of the Adam non-finite-gradient skip, applied at load time: a
    // NaN/Inf weight would poison every later forward pass silently, so a
    // blob carrying one is rejected here instead of trusted.
    for (size_t i = 0; i < net.weights_[l].size(); ++i) {
      if (!std::isfinite(net.weights_[l].data()[i])) {
        return Status::InvalidArgument(
            "non-finite weight in MLP blob (layer " + std::to_string(l) +
            ")");
      }
    }
    for (float b : net.biases_[l]) {
      if (!std::isfinite(b)) {
        return Status::InvalidArgument(
            "non-finite bias in MLP blob (layer " + std::to_string(l) + ")");
      }
    }
  }
  return net;
}

StatusOr<std::string> Mlp::SerializeToString() const {
  std::ostringstream out;
  FM_RETURN_IF_ERROR(Serialize(out));
  return std::move(out).str();
}

StatusOr<Mlp> Mlp::DeserializeFromString(const std::string& blob) {
  std::istringstream in(blob);
  return Deserialize(in);
}

Status Mlp::SaveToFile(const std::string& path) const {
  FM_ASSIGN_OR_RETURN(const std::string blob, SerializeToString());
  return AtomicWriteFile(path, blob);
}

StatusOr<Mlp> Mlp::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  return Deserialize(in);
}

void MaskedSoftmax(const std::vector<bool>& valid,
                   std::vector<float>* logits) {
  FM_CHECK(valid.size() == logits->size());
  MaskedSoftmax(valid, logits->data(), logits->size());
}

void MaskedSoftmax(const std::vector<bool>& valid, float* logits, size_t n) {
  FM_CHECK(valid.size() == n);
  float max_logit = -1e30f;
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    if (valid[i]) {
      max_logit = std::max(max_logit, logits[i]);
      any = true;
    }
  }
  FM_CHECK(any) << "masked softmax with no valid action";
  float total = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    if (valid[i]) {
      logits[i] = std::exp(logits[i] - max_logit);
      total += logits[i];
    } else {
      logits[i] = 0.0f;
    }
  }
  for (size_t i = 0; i < n; ++i) logits[i] /= total;
}

}  // namespace fairmove
