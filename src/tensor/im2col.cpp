#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#if defined(DNNSPMV_SIMD) && defined(__AVX2__)
#define DNNSPMV_IM2COL_SIMD 1
#include <immintrin.h>
#endif

namespace dnnspmv {
namespace {

// out[x] = src[2x] for n bytes — the stride-2 u8 interior gather. `end`
// bounds the readable image so the 8/16-byte vector loads never run past
// the activation buffer; the scalar tail finishes whatever the guard
// rejects. Byte-for-byte the scalar loop's output.
inline void gather_stride2_u8(const std::uint8_t* src,
                              const std::uint8_t* end, std::int64_t n,
                              std::uint8_t* out) {
  std::int64_t x = 0;
#ifdef DNNSPMV_IM2COL_SIMD
  const __m128i evens = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1,
                                      -1, -1, -1, -1, -1);
  for (; x + 8 <= n && src + 2 * x + 16 <= end; x += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 2 * x));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + x),
                     _mm_shuffle_epi8(v, evens));
  }
  for (; x + 4 <= n && src + 2 * x + 8 <= end; x += 4) {
    const __m128i v =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + 2 * x));
    const std::int32_t packed =
        _mm_cvtsi128_si32(_mm_shuffle_epi8(v, evens));
    std::memcpy(out + x, &packed, 4);
  }
#else
  (void)end;
#endif
  for (; x < n; ++x) out[x] = src[2 * x];
}

// Lowers one sample into the column block starting at `col` inside a matrix
// whose rows are `ldc` elements long (ldc == opix for the single-sample
// case, batch*opix for the batched one). The write pattern per column is
// identical either way — only the row stride changes. Templated over the
// element type so the uint8 quantized path (pad = activation zero-point)
// shares the exact loop structure with fp32 (pad = 0.0f).
template <typename T>
void im2col_one(const ConvGeom& g, const T* im, T* col, std::int64_t ldc,
                T pad) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const T* imend = im + g.channels * g.height * g.width;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const T* imc = im + c * g.height * g.width;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        T* out = col + row * ldc;
        // Hoist the horizontal bounds check out of the x loop: ix =
        // x·stride + off is in [0, width) iff x ∈ [x0, x1]. The interior
        // is then branch-free — a straight copy when stride_w == 1.
        const std::int64_t off = kw - g.pad_w;
        const std::int64_t x0 =
            off >= 0 ? 0
                     : std::min(ow, (-off + g.stride_w - 1) / g.stride_w);
        const std::int64_t x1 =
            off >= g.width
                ? x0 - 1
                : std::min(ow - 1, (g.width - 1 - off) / g.stride_w);
        if (g.stride_w == 1 && g.stride_h == 1 && ow == g.width &&
            x1 >= x0) {
          // Full-pitch case ("same" convolution): src and dst rows both
          // advance by `width` per y, so the whole valid y-span is one
          // linear copy — the few out-of-image pad columns are patched
          // afterwards. Turns oh tiny row copies into one memcpy.
          const std::int64_t y0 = std::max<std::int64_t>(0, g.pad_h - kh);
          const std::int64_t y1 =
              std::min(oh - 1, g.height - 1 + g.pad_h - kh);
          if (y1 < y0) {
            std::fill(out, out + oh * ow, pad);
            continue;
          }
          std::fill(out, out + y0 * ow, pad);
          std::memcpy(out + y0 * ow + x0,
                      imc + (y0 + kh - g.pad_h) * g.width + x0 + off,
                      static_cast<std::size_t>((y1 - y0) * g.width + x1 + 1 -
                                               x0) *
                          sizeof(T));
          std::fill(out + (y1 + 1) * ow, out + oh * ow, pad);
          if (x0 > 0 || x1 < ow - 1)
            for (std::int64_t y = y0; y <= y1; ++y) {
              T* orow = out + y * ow;
              for (std::int64_t x = 0; x < x0; ++x) orow[x] = pad;
              for (std::int64_t x = x1 + 1; x < ow; ++x) orow[x] = pad;
            }
          continue;
        }
#ifdef DNNSPMV_IM2COL_SIMD
        if constexpr (std::is_same_v<T, std::uint8_t>) {
          if (g.stride_w == 2 && g.width <= 16 && ow <= 8) {
            // Narrow stride-2 rows (the downsampling conv on a pooled
            // representation): gather a whole output row with one pshufb
            // of the 16-byte input row. Lane x reads byte 2x+off; lanes
            // outside the image become pad via the OR mask. The guarded
            // scalar fallback covers rows whose 16-byte load would run
            // past the activation buffer.
            alignas(16) std::int8_t midx[16];
            alignas(16) std::uint8_t mpad[16];
            for (std::int64_t x = 0; x < 16; ++x) {
              const std::int64_t ix = 2 * x + off;
              const bool in_row = x < ow && ix >= 0 && ix < g.width;
              midx[x] = in_row ? static_cast<std::int8_t>(ix) : -1;
              mpad[x] = (x < ow && !in_row) ? pad : 0;
            }
            const __m128i mi =
                _mm_load_si128(reinterpret_cast<const __m128i*>(midx));
            const __m128i mp =
                _mm_load_si128(reinterpret_cast<const __m128i*>(mpad));
            for (std::int64_t y = 0; y < oh; ++y) {
              const std::int64_t iy = y * g.stride_h + kh - g.pad_h;
              std::uint8_t* orow = out + y * ow;
              if (iy < 0 || iy >= g.height) {
                std::fill(orow, orow + ow, pad);
                continue;
              }
              const std::uint8_t* imrow = imc + iy * g.width;
              if (imrow + 16 <= imend) {
                const __m128i r = _mm_or_si128(
                    _mm_shuffle_epi8(_mm_loadu_si128(
                                         reinterpret_cast<const __m128i*>(
                                             imrow)),
                                     mi),
                    mp);
                if (ow == 8) {
                  _mm_storel_epi64(reinterpret_cast<__m128i*>(orow), r);
                } else if (ow == 4) {
                  const std::int32_t packed = _mm_cvtsi128_si32(r);
                  std::memcpy(orow, &packed, 4);
                } else {
                  alignas(16) std::uint8_t tmp[16];
                  _mm_store_si128(reinterpret_cast<__m128i*>(tmp), r);
                  std::memcpy(orow, tmp, static_cast<std::size_t>(ow));
                }
              } else {
                for (std::int64_t x = 0; x < ow; ++x) {
                  const std::int64_t ix = 2 * x + off;
                  orow[x] = (ix >= 0 && ix < g.width) ? imrow[ix] : pad;
                }
              }
            }
            continue;
          }
        }
#endif
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride_h + kh - g.pad_h;
          T* orow = out + y * ow;
          if (iy < 0 || iy >= g.height) {
            std::fill(orow, orow + ow, pad);
            continue;
          }
          const T* imrow = imc + iy * g.width;
          std::fill(orow, orow + x0, pad);
          if (g.stride_w == 1) {
            std::copy(imrow + x0 + off, imrow + x1 + 1 + off, orow + x0);
          } else if constexpr (std::is_same_v<T, std::uint8_t>) {
            if (g.stride_w == 2) {
              gather_stride2_u8(imrow + 2 * x0 + off, imend, x1 - x0 + 1,
                                orow + x0);
            } else {
              for (std::int64_t x = x0; x <= x1; ++x)
                orow[x] = imrow[x * g.stride_w + off];
            }
          } else {
            for (std::int64_t x = x0; x <= x1; ++x)
              orow[x] = imrow[x * g.stride_w + off];
          }
          std::fill(orow + std::max(x0, x1 + 1), orow + ow, pad);
        }
      }
    }
  }
}

// Scatter-accumulates one sample's column block back into its image; the
// image must be zeroed by the caller.
void col2im_one(const ConvGeom& g, const float* col, float* im,
                std::int64_t ldc) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* imc = im + c * g.height * g.width;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * ldc;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride_h + kh - g.pad_h;
          if (iy < 0 || iy >= g.height) continue;
          float* imrow = imc + iy * g.width;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride_w + kw - g.pad_w;
            if (ix >= 0 && ix < g.width) imrow[ix] += src[y * ow + x];
          }
        }
      }
    }
  }
}

// The patch offset table of a geometry: entry r*opix + q is the offset
// (iy*width + ix) within a channel plane that patch row r (kernel position
// kh*kernel_w + kw) reads for output pixel q, or -1 where that position is
// padding. Strided lowering walks it instead of the row-wise bounds logic,
// whose per-row set-up dominates when output rows are a few pixels long.
std::vector<std::int32_t> patch_offsets(const ConvGeom& g) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::vector<std::int32_t> off(
      static_cast<std::size_t>(g.kernel_h * g.kernel_w * oh * ow));
  std::size_t e = 0;
  for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
    for (std::int64_t kw = 0; kw < g.kernel_w; ++kw)
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t x = 0; x < ow; ++x, ++e) {
          const std::int64_t iy = y * g.stride_h + kh - g.pad_h;
          const std::int64_t ix = x * g.stride_w + kw - g.pad_w;
          off[e] = iy >= 0 && iy < g.height && ix >= 0 && ix < g.width
                       ? static_cast<std::int32_t>(iy * g.width + ix)
                       : -1;
        }
  return off;
}

// Batched lowering and scatter through the offset table: the same values
// as im2col_one / col2im_one, and col2im adds in their order (channel,
// kernel position, output pixel).
void im2col_table(const ConvGeom& g, const std::int32_t* off,
                  const float* im, float* col, std::int64_t ldc) {
  const std::int64_t opix = g.out_h() * g.out_w();
  const std::int64_t kk = g.kernel_h * g.kernel_w;
  const std::int64_t plane = g.height * g.width;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const float* imc = im + c * plane;
    for (std::int64_t r = 0; r < kk; ++r) {
      const std::int32_t* o = off + r * opix;
      float* out = col + (c * kk + r) * ldc;
      std::int64_t q = 0;
#ifdef DNNSPMV_IM2COL_SIMD
      // Eight pixels per masked gather: padding lanes load nothing and
      // keep the +0.0f the scalar loop writes.
      for (; q + 8 <= opix; q += 8) {
        const __m256i idx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o + q));
        const __m256 inside = _mm256_castsi256_ps(
            _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(-1)));
        const __m256 v = _mm256_mask_i32gather_ps(_mm256_setzero_ps(), imc,
                                                  idx, inside, sizeof(float));
        _mm256_storeu_ps(out + q, v);
      }
#endif
      for (; q < opix; ++q) {
        const float v = imc[std::max<std::int32_t>(o[q], 0)];
        out[q] = o[q] >= 0 ? v : 0.0f;
      }
    }
  }
}

void col2im_table(const ConvGeom& g, const std::int32_t* off,
                  const float* col, float* im, std::int64_t ldc) {
  const std::int64_t opix = g.out_h() * g.out_w();
  const std::int64_t kk = g.kernel_h * g.kernel_w;
  const std::int64_t plane = g.height * g.width;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* imc = im + c * plane;
    for (std::int64_t r = 0; r < kk; ++r) {
      const std::int32_t* o = off + r * opix;
      const float* src = col + (c * kk + r) * ldc;
      for (std::int64_t q = 0; q < opix; ++q)
        if (o[q] >= 0) imc[o[q]] += src[q];
    }
  }
}

}  // namespace

void im2col(const ConvGeom& g, const float* im, float* col) {
  im2col_one(g, im, col, g.out_h() * g.out_w(), 0.0f);
}

void col2im(const ConvGeom& g, const float* col, float* im) {
  std::fill(im, im + g.channels * g.height * g.width, 0.0f);
  col2im_one(g, col, im, g.out_h() * g.out_w());
}

void im2col_batch(const ConvGeom& g, std::int64_t batch, const float* im,
                  float* col) {
  const std::int64_t opix = g.out_h() * g.out_w();
  const std::int64_t imsz = g.channels * g.height * g.width;
  const std::int64_t ldc = batch * opix;
  if (g.stride_h > 1 || g.stride_w > 1) {
    const std::vector<std::int32_t> off = patch_offsets(g);
#pragma omp parallel for schedule(static) if (batch > 1)
    for (std::int64_t n = 0; n < batch; ++n)
      im2col_table(g, off.data(), im + n * imsz, col + n * opix, ldc);
    return;
  }
#pragma omp parallel for schedule(static) if (batch > 1)
  for (std::int64_t n = 0; n < batch; ++n)
    im2col_one(g, im + n * imsz, col + n * opix, ldc, 0.0f);
}

void im2col_batch_u8(const ConvGeom& g, std::int64_t batch,
                     const std::uint8_t* im, std::uint8_t* col,
                     std::uint8_t pad) {
  const std::int64_t opix = g.out_h() * g.out_w();
  const std::int64_t imsz = g.channels * g.height * g.width;
  const std::int64_t ldc = batch * opix;
#pragma omp parallel for schedule(static) if (batch > 1)
  for (std::int64_t n = 0; n < batch; ++n)
    im2col_one(g, im + n * imsz, col + n * opix, ldc, pad);
}

void col2im_batch(const ConvGeom& g, std::int64_t batch, const float* col,
                  float* im) {
  const std::int64_t opix = g.out_h() * g.out_w();
  const std::int64_t imsz = g.channels * g.height * g.width;
  const std::int64_t ldc = batch * opix;
  const bool strided = g.stride_h > 1 || g.stride_w > 1;
  const std::vector<std::int32_t> off =
      strided ? patch_offsets(g) : std::vector<std::int32_t>();
#pragma omp parallel for schedule(static)
  for (std::int64_t n = 0; n < batch; ++n) {
    float* dst = im + n * imsz;
    std::fill(dst, dst + imsz, 0.0f);
    if (strided)
      col2im_table(g, off.data(), col + n * opix, dst, ldc);
    else
      col2im_one(g, col + n * opix, dst, ldc);
  }
}

}  // namespace dnnspmv
