// Single-precision GEMM kernels used by conv (im2col) and dense layers.
//
// C = alpha * op(A) * op(B) + beta * C with row-major storage. All variants
// share one packed, register-blocked driver (BLIS-style): operands are
// packed into cache-resident kMR/kNR panels (pack.hpp) and multiplied by a
// 6×16 micro-kernel — portable C++ by default, AVX2/FMA when the library is
// built with DNNSPMV_SIMD (see DESIGN.md). Results are deterministic and
// independent of thread count: every output tile is accumulated by exactly
// one thread in a fixed depth order.
//
// The *_bias variants fold a bias add into the GEMM epilogue (applied once,
// after the final depth block), which is how Conv2D and Dense avoid a
// second pass over their outputs.
//
// The `*_pix` parameters let a conv layer hand over its NCHW activations
// as they are: with pix > 0 the named operand is the matrix
// [rows, batch·pix] stored as the NCHW tensor [batch, rows, pix], so its
// batched index j is pixel j % pix of sample j / pix. The arithmetic per
// output element is unchanged; only where operands are read and results
// written moves.
#pragma once

#include <cstdint>
#include <vector>

namespace dnnspmv {

/// C[m,n] = alpha*A[m,k]*B[k,n] + beta*C. Row-major, no transposes.
void sgemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
           const float* a, const float* b, float beta, float* c);

/// C[m,n] = alpha*A^T[k,m]*B[k,n] + beta*C (A stored k×m row-major).
/// With b_pix > 0, B is the NCHW tensor [n / b_pix, k, b_pix] (conv dX
/// reading grad_out); b_pix must be a multiple of 16 that divides n.
void sgemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c,
              std::int64_t b_pix = 0);

/// C[m,n] = alpha*A[m,k]*B^T[n,k] + beta*C (B stored n×k row-major).
/// With a_pix > 0, A is the NCHW tensor [k / a_pix, m, a_pix] (conv dW
/// reading grad_out); a_pix must divide k.
void sgemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c,
              std::int64_t a_pix = 0);

/// sgemm, then C[i,:] += row_bias[i] folded into the epilogue (may be
/// null). The conv forward path: rows are output channels. With c_pix > 0,
/// C is the NCHW tensor [n / c_pix, m, c_pix] (the layer's output); c_pix
/// must be a multiple of 16 that divides n.
void sgemm_row_bias(std::int64_t m, std::int64_t n, std::int64_t k,
                    float alpha, const float* a, const float* b, float beta,
                    float* c, const float* row_bias, std::int64_t c_pix = 0);

/// sgemm_bt, then C[:,j] += col_bias[j] folded into the epilogue (may be
/// null). The dense forward path: columns are output features.
void sgemm_bt_col_bias(std::int64_t m, std::int64_t n, std::int64_t k,
                       float alpha, const float* a, const float* b,
                       float beta, float* c, const float* col_bias);

// ---------------------------------------------------------------------------
// Int8 GEMM (quantized inference path, DESIGN.md §13).
//
// C[m,n] = dequant(Wq[m,k] · Xq[k,n]) where Wq is signed int8 (per-row
// symmetric scales) and Xq is unsigned 7-bit [0,127] (per-tensor affine).
// The integer product accumulates exactly in int32 — capping activations at
// 127 keeps every `maddubs` pair sum (≤ 2·127·127) inside int16 — so SIMD
// and scalar paths are bit-identical by construction; the epilogue applies
// C[i,j] = fma((float)acc, scale[i], bias[i]) (one rounding in both paths)
// with an optional fused ReLU. Zero-point handling is the caller's job:
// fold -scale[i]·zp·Σ_p Wq[i,p] into bias[i] (quant.cpp does this).

/// Weights packed once at convert time into kernel-ready kMR×4-quad panels
/// (pack_a_panel_s8 layout). Cold-miss inference re-packs nothing on the
/// weight side — only the per-request activations are packed.
struct QGemmWeights {
  std::int64_t rows = 0;   // m: output channels / features
  std::int64_t depth = 0;  // k: reduction length
  std::vector<std::int8_t> panels;  // ceil(m/kMR) panels × ceil(k/4)·kMR·4
  // GEMV twin packing for the n == 1 cold-miss case: row groups of 8 ×
  // depth quads ([group][quad][8 rows][4 bytes], zero-padded) so a
  // single-column product reads whole 32-byte vectors instead of wasting
  // 15/16 of the tiled kernel's column lanes.
  std::vector<std::int8_t> gemv;
};

/// Packs row-major int8 weights W[m,k] into micro-kernel panels.
QGemmWeights qgemm_pack_weights(std::int64_t m, std::int64_t k,
                                const std::int8_t* a);

/// Quantizes fp32 activations to u7: q = clamp(round(x·inv_scale) + zp,
/// 0, 127), round-to-nearest-even. Vectorized with the kernel (same
/// arithmetic, element-identical results).
void quantize_u7(const float* x, std::int64_t n, float inv_scale,
                 std::int32_t zp, std::uint8_t* q);

/// C[i,j] = relu?( (float)(Wq·Xq)[i,j] * scale[i] + bias[i] ) for the n
/// columns of Xq with element (p, j) at b[p*rs_b + j*cs_b] (values must be
/// in [0,127]). C is m×n with row stride ldc; bias may be null (treated as
/// +0.0f). Uses the AVX2 maddubs/madd micro-kernel when the library is
/// built with DNNSPMV_SIMD, the scalar reference otherwise.
void qgemm_u7(const QGemmWeights& a, std::int64_t n, const std::uint8_t* b,
              std::int64_t rs_b, std::int64_t cs_b, const float* scale,
              const float* bias, bool relu, float* c, std::int64_t ldc);

/// Scalar reference path: identical packing, integer accumulation order,
/// and epilogue arithmetic — bit-identical to qgemm_u7 on every input
/// (asserted by test_quant.cpp), always compiled regardless of SIMD flags.
void qgemm_u7_ref(const QGemmWeights& a, std::int64_t n,
                  const std::uint8_t* b, std::int64_t rs_b,
                  std::int64_t cs_b, const float* scale, const float* bias,
                  bool relu, float* c, std::int64_t ldc);

}  // namespace dnnspmv
