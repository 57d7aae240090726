#include "tensor/pack.hpp"

#include <algorithm>
#include <cstring>

#if defined(DNNSPMV_SIMD) && defined(__AVX2__)
#define DNNSPMV_PACK_SIMD 1
#include <immintrin.h>
#endif

namespace dnnspmv {

#ifdef DNNSPMV_PACK_SIMD
namespace {

// In-register transpose of eight 8-float rows: on return r[t] holds column
// t, that is r[t][i] is row i's element t.
inline void transpose8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

}  // namespace
#endif

void pack_a_panel(std::int64_t rows, std::int64_t kc, const float* a,
                  std::int64_t rs, std::int64_t cs, float* dst) {
  if (rows == kMR && cs == 1) {
    // Contiguous depth walk per row (the sgemm_at layout, rs == 1, lands in
    // the generic branch below, where the i-walk is the contiguous one).
    std::int64_t p = 0;
#ifdef DNNSPMV_PACK_SIMD
    // Eight depths of the six rows at a time, transposed in registers (two
    // zero rows pad the 8×8 block). Depth t's six floats go to dst + t*6;
    // each 8-wide store spills two floats into depth t+1's slot, which the
    // next store overwrites, and the block's last depth stores exactly six.
    for (; p + 8 <= kc; p += 8) {
      __m256 r[8];
      for (std::int64_t i = 0; i < kMR; ++i)
        r[i] = _mm256_loadu_ps(a + i * rs + p);
      r[6] = r[7] = _mm256_setzero_ps();
      transpose8x8(r);
      float* out = dst + p * kMR;
      for (std::int64_t t = 0; t < 7; ++t)
        _mm256_storeu_ps(out + t * kMR, r[t]);
      _mm_storeu_ps(out + 7 * kMR, _mm256_castps256_ps128(r[7]));
      _mm_storel_pi(reinterpret_cast<__m64*>(out + 7 * kMR + 4),
                    _mm256_extractf128_ps(r[7], 1));
    }
#endif
    for (; p < kc; ++p)
      for (std::int64_t i = 0; i < kMR; ++i)
        dst[p * kMR + i] = a[i * rs + p];
    return;
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    float* out = dst + p * kMR;
    for (std::int64_t i = 0; i < rows; ++i) out[i] = a[i * rs + p * cs];
    for (std::int64_t i = rows; i < kMR; ++i) out[i] = 0.0f;
  }
}

void pack_b_panel(std::int64_t kc, std::int64_t cols, const float* b,
                  std::int64_t rs, std::int64_t cs, float* dst) {
  if (cols == kNR && cs == 1) {
    for (std::int64_t p = 0; p < kc; ++p)
      std::memcpy(dst + p * kNR, b + p * rs, kNR * sizeof(float));
    return;
  }
  std::int64_t p0 = 0;
#ifdef DNNSPMV_PACK_SIMD
  if (rs == 1) {
    // Contiguous depth per column (the B^T of sgemm_bt): eight depths of
    // eight columns at a time, transposed in registers. Columns past
    // `cols` load as zero rows, which become the panel's zero padding.
    for (; p0 + 8 <= kc; p0 += 8) {
      for (std::int64_t j0 = 0; j0 < kNR; j0 += 8) {
        __m256 r[8];
        for (std::int64_t t = 0; t < 8; ++t)
          r[t] = j0 + t < cols ? _mm256_loadu_ps(b + (j0 + t) * cs + p0)
                               : _mm256_setzero_ps();
        transpose8x8(r);
        for (std::int64_t t = 0; t < 8; ++t)
          _mm256_storeu_ps(dst + (p0 + t) * kNR + j0, r[t]);
      }
    }
  }
#endif
  for (std::int64_t p = p0; p < kc; ++p) {
    float* out = dst + p * kNR;
    for (std::int64_t j = 0; j < cols; ++j) out[j] = b[p * rs + j * cs];
    for (std::int64_t j = cols; j < kNR; ++j) out[j] = 0.0f;
  }
}

void pack_a_panel_s8(std::int64_t rows, std::int64_t kc, const std::int8_t* a,
                     std::int64_t rs, std::int64_t cs, std::int8_t* dst) {
  const std::int64_t kq = (kc + kQK - 1) / kQK;
  for (std::int64_t q = 0; q < kq; ++q) {
    std::int8_t* out = dst + q * kQuadA;
    const std::int64_t p0 = q * kQK;
    const std::int64_t tn = std::min(kQK, kc - p0);
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::int8_t* src = a + i * rs + p0 * cs;
      for (std::int64_t t = 0; t < tn; ++t) out[i * kQK + t] = src[t * cs];
      for (std::int64_t t = tn; t < kQK; ++t) out[i * kQK + t] = 0;
    }
    if (rows < kMR)
      std::memset(out + rows * kQK, 0,
                  static_cast<std::size_t>((kMR - rows) * kQK));
  }
}

void pack_b_panel_u8(std::int64_t kc, std::int64_t cols,
                     const std::uint8_t* b, std::int64_t rs, std::int64_t cs,
                     std::uint8_t* dst) {
  const std::int64_t kq = (kc + kQK - 1) / kQK;
#ifdef DNNSPMV_PACK_SIMD
  if (cols == kNR && cs == 1) {
    // Full panel with contiguous columns (the im2col layout): each depth
    // quad is a 4×16 byte transpose — two unpack rounds interleave the
    // four 16-byte depth rows into the [col][quad] kernel order. Pure data
    // movement, byte-for-byte the scalar loop's output.
    for (std::int64_t q = 0; q < kq; ++q) {
      const std::int64_t p0 = q * kQK;
      const std::int64_t tn = std::min(kQK, kc - p0);
      const std::uint8_t* src = b + p0 * rs;
      const __m128i z = _mm_setzero_si128();
      __m128i r[4] = {z, z, z, z};
      for (std::int64_t t = 0; t < tn; ++t)
        r[t] = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(src + t * rs));
      const __m128i t0 = _mm_unpacklo_epi8(r[0], r[1]);
      const __m128i t1 = _mm_unpackhi_epi8(r[0], r[1]);
      const __m128i t2 = _mm_unpacklo_epi8(r[2], r[3]);
      const __m128i t3 = _mm_unpackhi_epi8(r[2], r[3]);
      __m128i* out = reinterpret_cast<__m128i*>(dst + q * kQuadB);
      _mm_storeu_si128(out + 0, _mm_unpacklo_epi16(t0, t2));
      _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(t0, t2));
      _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(t1, t3));
      _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(t1, t3));
    }
    return;
  }
#endif
  for (std::int64_t q = 0; q < kq; ++q) {
    std::uint8_t* out = dst + q * kQuadB;
    const std::int64_t p0 = q * kQK;
    const std::int64_t tn = std::min(kQK, kc - p0);
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::uint8_t* src = b + p0 * rs + j * cs;
      for (std::int64_t t = 0; t < tn; ++t) out[j * kQK + t] = src[t * rs];
      for (std::int64_t t = tn; t < kQK; ++t) out[j * kQK + t] = 0;
    }
    if (cols < kNR)
      std::memset(out + cols * kQK, 0,
                  static_cast<std::size_t>((kNR - cols) * kQK));
  }
}

}  // namespace dnnspmv
