// Post-training int8 quantization of a MergeNet (DESIGN.md §13).
//
// The flow mirrors the torch.ao.quantization observer → calibrate → convert
// idiom:
//
//   1. *Observe.* A calibration pass walks the fp32 net layer by layer over
//      a held-out corpus slice, recording the exact input range of every
//      conv/dense layer with a MinMaxObserver. Representation tensors are
//      normalized and bounded (no outlier tail), so the exact range keeps
//      the top of the activation range where percentile clipping would
//      saturate it and cost agreement (DESIGN.md §13).
//   2. *Convert.* Weights quantize per output channel with symmetric int8
//      scales (s_w[i] = max|W[i,:]| / 127); activations get one affine
//      7-bit scale/zero-point per layer input from the observed range.
//      The result is a QuantizedWeightSet: pure, serializable data.
//   3. *Execute.* QuantizedMergeNet compiles net + weight set into an
//      inference plan: per layer, quantize the input to u7, run the int8
//      GEMM (gemm.hpp qgemm_u7, weights pre-packed at convert time), and
//      dequantize in the kernel epilogue with the zero-point correction
//      folded into an effective bias:
//
//        y[i] = s_w[i]·s_x·(acc[i] − zp·Σ_p Wq[i,p]) + b[i]
//             = acc[i]·out_scale[i] + bias_eff[i].
//
//      A ReLU directly after a quantized layer fuses into the epilogue and
//      Dropout is elided (inference identity), so a cold-miss forward runs
//      fewer passes than the fp32 path on top of the cheaper kernel.
//
// Activations use [0, 127] rather than the full u8 range: maddubs
// accumulates byte-pair products in int16, and 2·127·127 is the largest
// pair sum that cannot saturate — correctness over one bit of precision.
//
// Everything here is deterministic: fixed observation order, scalar
// quantization arithmetic, and a kernel whose SIMD/scalar paths are
// bit-identical, so calibrating twice on the same data yields byte-equal
// weight sets and predictions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "nn/merge_net.hpp"
#include "tensor/gemm.hpp"

namespace dnnspmv {

class Conv2D;
class Dense;

/// Exact running range of everything observed.
class MinMaxObserver {
 public:
  void observe(const float* x, std::int64_t n);
  bool seen() const { return seen_; }
  float lo() const { return seen_ ? lo_ : 0.0f; }
  float hi() const { return seen_ ? hi_ : 0.0f; }

 private:
  float lo_ = 0.0f, hi_ = 0.0f;
  bool seen_ = false;
};

/// QLayer::seq of MergeNet head `h`: heads count down from -1.
constexpr std::int32_t head_seq(std::size_t h) {
  return -1 - static_cast<std::int32_t>(h);
}

/// One quantized conv/dense layer, addressed by (seq, index) into the
/// MergeNet: seq ∈ [0, num_towers) is a tower, seq == head_seq(h) head h.
struct QLayer {
  static constexpr std::uint8_t kConv = 0;
  static constexpr std::uint8_t kDense = 1;

  std::int32_t seq = 0;
  std::int32_t index = 0;
  std::uint8_t kind = kConv;
  std::int64_t rows = 0, cols = 0;  // weight matrix [rows, cols]
  float act_scale = 1.0f;           // input x ≈ (q − act_zp)·act_scale
  std::int32_t act_zp = 0;
  std::vector<float> w_scale;       // [rows] per-channel symmetric scales
  std::vector<float> bias;          // [rows] fp32 bias copy
  std::vector<std::int8_t> wq;      // [rows·cols] quantized weights
};

/// The serializable product of convert: plain data, no pointers into the
/// net, copyable between clones. Rides the selector's weight file as a
/// trailer block after the fp32 params (selector.cpp).
struct QuantizedWeightSet {
  std::vector<QLayer> layers;

  bool empty() const { return layers.empty(); }
  const QLayer* find(std::int32_t seq, std::int32_t index) const;

  void save(std::ostream& os) const;
  static QuantizedWeightSet load(std::istream& is);
};

/// Quantizes W[rows, cols] per row: scales[i] = max|W[i,:]|/127 (1.0 for an
/// all-zero row), wq = clamp(round(W/scale), −127, 127).
void quantize_weights_per_channel(const float* w, std::int64_t rows,
                                  std::int64_t cols, std::int8_t* wq,
                                  float* scales);

/// Observer + calibrate + convert in one pass: walks `calib` (one Tensor
/// per tower per batch, NCHW) through the net, observes the exact range of
/// every conv/dense input of the towers and every head, and returns the
/// quantized weight set. With `only_head` set, observes and converts that
/// head's layers alone (the towers still run, unobserved, to feed it): the
/// records to append when a head joins an already-quantized net, leaving
/// the towers' and other heads' scales as they are. Deterministic for a
/// fixed net and calibration set.
QuantizedWeightSet quantize_merge_net(
    MergeNet& net, const std::vector<std::vector<Tensor>>& calib,
    std::optional<std::size_t> only_head = std::nullopt);

/// Compiled inference plan over a net + weight set. Holds pre-packed int8
/// weight panels, fused per-layer epilogue data, and raw byte scratch, and
/// points into the MergeNet for the layers that stay fp32 (pool, flatten).
/// Construction validates the weight set against the net (layer kinds and
/// shapes) and throws errc::data_error on mismatch.
///
/// Thread safety: like MergeNet, an instance is NOT re-entrant — callers
/// serialize (FormatSelector runs it under its inference mutex).
class QuantizedMergeNet {
 public:
  QuantizedMergeNet(MergeNet& net, const QuantizedWeightSet& qws);

  /// Quantized forward through head `head`: inputs[i] feeds tower i,
  /// logits [batch, classes]. `ws` is the caller's scratch for the layers
  /// that stay fp32 (pool, flatten).
  void forward(const std::vector<Tensor>& inputs, Tensor& logits,
               Workspace& ws, std::size_t head = 0);

 private:
  struct Op {
    enum class Kind : std::uint8_t { kLayer, kConv, kDense };
    Kind kind = Kind::kLayer;
    Layer* layer = nullptr;    // kLayer: run the fp32 forward
    Conv2D* conv = nullptr;    // kConv
    Dense* dense = nullptr;    // kDense
    QGemmWeights packed;       // pre-packed int8 panels
    std::vector<float> out_scale;  // w_scale[i]·act_scale
    std::vector<float> bias_eff;   // bias[i] − out_scale[i]·zp·Σ Wq[i,:]
    float act_inv_scale = 1.0f;
    std::int32_t act_zp = 0;
    bool relu = false;  // ReLU fused into the epilogue
  };

  void compile(Sequential& seq, std::int32_t seq_id,
               const QuantizedWeightSet& qws, std::vector<Op>& plan);
  void run(std::vector<Op>& plan, const Tensor& in, Tensor& out,
           Workspace& ws);
  void run_conv(Op& op, const Tensor& in, Tensor& out);
  void run_dense(Op& op, const Tensor& in, Tensor& out);

  MergeNet* net_;
  std::vector<std::vector<Op>> tower_plans_;
  std::vector<std::vector<Op>> head_plans_;
  Tensor ping_, pong_, merged_;     // inter-layer activations
  std::vector<Tensor> tower_out_;
  std::vector<std::uint8_t> qin_, qcol_;  // quantized input / col matrix
  std::vector<float> mat_;                // GEMM staging (batch > 1)
};

}  // namespace dnnspmv
