#include "core/rep_stream.hpp"

#include <algorithm>
#include <cmath>

#if defined(DNNSPMV_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#define DNNSPMV_REP_AVX2 1
#endif

#include "common/error.hpp"
#include "common/hash.hpp"

namespace dnnspmv {
namespace {

// Exact floor(num / den) from a float-derived candidate. The vector kernel
// computes bin/cell candidates with a float multiply, which can land one
// off the true integer quotient near bin boundaries; the two nudge loops
// repair any bounded error, so SIMD and scalar paths agree bitwise with
// the integer division the exact builders use. num and den fit comfortably
// in int64 (num <= bins * 2^31 or s * 2^31).
inline std::int64_t fix_div(std::int64_t q, std::int64_t num,
                            std::int64_t den) {
  while ((q + 1) * den <= num) ++q;
  while (q > 0 && q * den > num) --q;
  return q;
}

// Everything a per-run kernel needs, resolved once per build.
struct RunCtx {
  std::int64_t s = 0;        // representation rows (and cols for binary)
  std::int64_t bins = 0;     // histogram bins
  std::int64_t rows = 0;     // source matrix rows
  std::int64_t cols = 0;     // source matrix cols
  std::int64_t max_dim = 0;  // max(rows, cols) — histogram distance scale
  float bin_scale = 0.0f;    // (float)bins / max_dim   (candidate bins)
  float cell_scale = 0.0f;   // (float)s / cols         (candidate col cells)
  Tensor* t0 = nullptr;      // binary image | raw row histogram
  Tensor* t1 = nullptr;      // density image | raw col histogram (or null)
};

// ---- histogram mode: one run fills BOTH row and column histograms ------

inline void run_hist_scalar(const RunCtx& cx, std::int64_t row,
                            const index_t* cols, std::int64_t len) {
  const std::int64_t hr = rep_cell_of(row, cx.rows, cx.s);
  float* rrow = cx.t0->data() + hr * cx.bins;
  float* cbase = cx.t1->data();
  for (std::int64_t k = 0; k < len; ++k) {
    const std::int64_t col = cols[k];
    const std::int64_t dist = col >= row ? col - row : row - col;
    const std::int64_t bin =
        std::min<std::int64_t>(cx.bins - 1, cx.bins * dist / cx.max_dim);
    const std::int64_t hc = rep_cell_of(col, cx.cols, cx.s);
    rrow[bin] += 1.0f;
    cbase[hc * cx.bins + bin] += 1.0f;
  }
}

// ---- binary (+ density) mode -------------------------------------------

inline void run_bd_scalar(const RunCtx& cx, std::int64_t row,
                          const index_t* cols, std::int64_t len) {
  const std::int64_t cr = rep_cell_of(row, cx.rows, cx.s);
  float* brow = cx.t0->data() + cr * cx.s;
  float* drow = cx.t1 ? cx.t1->data() + cr * cx.s : nullptr;
  for (std::int64_t k = 0; k < len; ++k) {
    const std::int64_t cc = rep_cell_of(cols[k], cx.cols, cx.s);
    brow[cc] = 1.0f;
    if (drow) drow[cc] += 1.0f;
  }
}

#if defined(DNNSPMV_REP_AVX2)

// 8 lanes: |col - row|, float bin/cell candidates, truncate — then a
// scalar pass corrects each candidate to the exact integer quotient and
// performs the (inherently scatter-shaped) histogram increments.
inline void run_hist_simd(const RunCtx& cx, std::int64_t row,
                          const index_t* cols, std::int64_t len) {
  const std::int64_t hr = rep_cell_of(row, cx.rows, cx.s);
  float* rrow = cx.t0->data() + hr * cx.bins;
  float* cbase = cx.t1->data();
  const __m256i vrow = _mm256_set1_epi32(static_cast<int>(row));
  const __m256 vbs = _mm256_set1_ps(cx.bin_scale);
  const __m256 vcs = _mm256_set1_ps(cx.cell_scale);
  alignas(32) std::int32_t dist[8], bin[8], cell[8], colv[8];
  std::int64_t k = 0;
  for (; k + 8 <= len; k += 8) {
    const __m256i vcol =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + k));
    const __m256i vdist = _mm256_abs_epi32(_mm256_sub_epi32(vcol, vrow));
    const __m256i vbin =
        _mm256_cvttps_epi32(_mm256_mul_ps(_mm256_cvtepi32_ps(vdist), vbs));
    const __m256i vcell =
        _mm256_cvttps_epi32(_mm256_mul_ps(_mm256_cvtepi32_ps(vcol), vcs));
    _mm256_store_si256(reinterpret_cast<__m256i*>(dist), vdist);
    _mm256_store_si256(reinterpret_cast<__m256i*>(bin), vbin);
    _mm256_store_si256(reinterpret_cast<__m256i*>(cell), vcell);
    _mm256_store_si256(reinterpret_cast<__m256i*>(colv), vcol);
    for (int l = 0; l < 8; ++l) {
      const std::int64_t b = std::min<std::int64_t>(
          cx.bins - 1,
          fix_div(bin[l], cx.bins * static_cast<std::int64_t>(dist[l]),
                  cx.max_dim));
      const std::int64_t hc = std::min<std::int64_t>(
          cx.s - 1,
          fix_div(cell[l], static_cast<std::int64_t>(colv[l]) * cx.s,
                  cx.cols));
      rrow[b] += 1.0f;
      cbase[hc * cx.bins + b] += 1.0f;
    }
  }
  if (k < len) run_hist_scalar(cx, row, cols + k, len - k);
}

inline void run_bd_simd(const RunCtx& cx, std::int64_t row,
                        const index_t* cols, std::int64_t len) {
  const std::int64_t cr = rep_cell_of(row, cx.rows, cx.s);
  float* brow = cx.t0->data() + cr * cx.s;
  float* drow = cx.t1 ? cx.t1->data() + cr * cx.s : nullptr;
  const __m256 vcs = _mm256_set1_ps(cx.cell_scale);
  alignas(32) std::int32_t cell[8], colv[8];
  std::int64_t k = 0;
  for (; k + 8 <= len; k += 8) {
    const __m256i vcol =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + k));
    const __m256i vcell =
        _mm256_cvttps_epi32(_mm256_mul_ps(_mm256_cvtepi32_ps(vcol), vcs));
    _mm256_store_si256(reinterpret_cast<__m256i*>(cell), vcell);
    _mm256_store_si256(reinterpret_cast<__m256i*>(colv), vcol);
    for (int l = 0; l < 8; ++l) {
      const std::int64_t cc = std::min<std::int64_t>(
          cx.s - 1,
          fix_div(cell[l], static_cast<std::int64_t>(colv[l]) * cx.s,
                  cx.cols));
      brow[cc] = 1.0f;
      if (drow) drow[cc] += 1.0f;
    }
  }
  if (k < len) run_bd_scalar(cx, row, cols + k, len - k);
}

#endif  // DNNSPMV_REP_AVX2

inline void process_run(const RunCtx& cx, bool hist, bool simd,
                        std::int64_t row, const index_t* cols,
                        std::int64_t len) {
  if (len <= 0) return;
#if defined(DNNSPMV_REP_AVX2)
  if (simd) {
    if (hist)
      run_hist_simd(cx, row, cols, len);
    else
      run_bd_simd(cx, row, cols, len);
    return;
  }
#else
  (void)simd;
#endif
  if (hist)
    run_hist_scalar(cx, row, cols, len);
  else
    run_bd_scalar(cx, row, cols, len);
}

}  // namespace

std::uint64_t rep_sample_seed(std::int64_t rows, std::int64_t cols,
                              std::int64_t nnz) {
  std::uint64_t h = splitmix64(0x5245505354524dULL);  // "REPSTRM"
  h = hash_combine(h, static_cast<std::uint64_t>(rows));
  h = hash_combine(h, static_cast<std::uint64_t>(cols));
  h = hash_combine(h, static_cast<std::uint64_t>(nnz));
  return h;
}

StreamingRepBuilder::StreamingRepBuilder(RepStreamOptions opts)
    : opts_(opts) {
  DNNSPMV_CHECK(opts_.rep_rows > 0 && opts_.rep_bins > 0);
}

void StreamingRepBuilder::build_into(const Csr& a, TensorArena& arena,
                                     std::vector<Tensor>& out) const {
  DNNSPMV_CHECK(a.rows > 0 && a.cols > 0);
  const std::int64_t s = opts_.rep_rows;
  const std::int64_t bins = opts_.rep_bins;
  const bool hist = opts_.mode == RepMode::kHistogram;
  const int nsrc = rep_num_sources(opts_.mode);
  if (static_cast<int>(out.size()) != nsrc) out.resize(nsrc);
  const std::int64_t nnz = a.nnz();

  RunCtx cx;
  cx.s = s;
  cx.bins = bins;
  cx.rows = a.rows;
  cx.cols = a.cols;
  cx.max_dim = std::max<std::int64_t>(a.rows, a.cols);
  cx.bin_scale =
      static_cast<float>(bins) / static_cast<float>(cx.max_dim);
  cx.cell_scale = static_cast<float>(s) / static_cast<float>(a.cols);

  // Accumulation targets. Binary/density accumulate straight into the
  // output tensors; histogram counts go to arena scratch because the
  // normalization is a separate raw -> scaled transform.
  Tensor* raw_row = nullptr;
  Tensor* raw_col = nullptr;
  switch (opts_.mode) {
    case RepMode::kBinary:
      out[0].ensure2(s, s);
      out[0].zero();
      cx.t0 = &out[0];
      break;
    case RepMode::kBinaryDensity:
      out[0].ensure2(s, s);
      out[0].zero();
      out[1].ensure2(s, s);
      out[1].zero();
      cx.t0 = &out[0];
      cx.t1 = &out[1];
      break;
    case RepMode::kHistogram:
      raw_row = &arena.tensor(this, 0);
      raw_col = &arena.tensor(this, 1);
      raw_row->ensure2(s, bins);
      raw_row->zero();
      raw_col->ensure2(s, bins);
      raw_col->zero();
      cx.t0 = raw_row;
      cx.t1 = raw_col;
      break;
  }

  // Sampling geometry. Exact mode is "one chunk spans all of nnz", so the
  // exact path is literally the sampled walk with a single chunk — same
  // code, same accumulation order as the reference builders (which also
  // visit nonzeros in CSR order), hence bitwise-identical output.
  const bool sampled = will_sample(nnz);
  const std::int64_t chunk =
      sampled ? kRepSampleChunk : std::max<std::int64_t>(1, nnz);
  std::int64_t cstride = 1;
  std::int64_t phase = 0;
  if (sampled) {
    const std::int64_t nchunks = (nnz + chunk - 1) / chunk;
    const std::int64_t want =
        std::max<std::int64_t>(1, opts_.sample_nnz / chunk);
    cstride = std::max<std::int64_t>(1, nchunks / want);
    phase = static_cast<std::int64_t>(
        rep_sample_seed(a.rows, a.cols, nnz) %
        static_cast<std::uint64_t>(cstride));
  }

  // The walk: visit sampled chunks left to right, splitting each chunk
  // into per-row runs. `r` only ever advances, so the whole pass is
  // O(sampled + rows) regardless of stride.
  std::int64_t sampled_cnt = 0;
  index_t r = 0;
  for (std::int64_t c = phase; c * chunk < nnz; c += cstride) {
    const std::int64_t lo = c * chunk;
    const std::int64_t hi = std::min<std::int64_t>(nnz, lo + chunk);
    while (a.ptr[r + 1] <= lo) ++r;
    std::int64_t j = lo;
    while (j < hi) {
      const std::int64_t row_end = std::min<std::int64_t>(hi, a.ptr[r + 1]);
      process_run(cx, hist, opts_.use_simd, r, a.idx.data() + j,
                  row_end - j);
      j = row_end;
      if (j < hi) ++r;
    }
    sampled_cnt += hi - lo;
  }
  const double factor =
      sampled && sampled_cnt > 0
          ? static_cast<double>(nnz) / static_cast<double>(sampled_cnt)
          : 1.0;

  // Finish per mode.
  if (opts_.mode == RepMode::kBinaryDensity) {
    Tensor& d = out[1];
    if (!sampled) {
      // Identical loop to density_rep()'s finish — bitwise contract.
      for (std::int64_t cr = 0; cr < s; ++cr) {
        const std::int64_t rh = rep_cell_span(cr, a.rows, s);
        for (std::int64_t cc = 0; cc < s; ++cc) {
          const std::int64_t cw = rep_cell_span(cc, a.cols, s);
          const std::int64_t block = rh * cw;
          if (block > 0) d.at2(cr, cc) /= static_cast<float>(block);
        }
      }
    } else {
      // Sampled counts estimate block occupancy; rescale and clamp (the
      // estimate can overshoot a block's capacity).
      for (std::int64_t cr = 0; cr < s; ++cr) {
        const std::int64_t rh = rep_cell_span(cr, a.rows, s);
        for (std::int64_t cc = 0; cc < s; ++cc) {
          const std::int64_t cw = rep_cell_span(cc, a.cols, s);
          const std::int64_t block = rh * cw;
          if (block > 0)
            d.at2(cr, cc) = std::min(
                1.0f, static_cast<float>(d.at2(cr, cc) * factor /
                                         static_cast<double>(block)));
        }
      }
    }
  } else if (hist) {
    density_scale_histogram_into(*raw_row, a.rows, factor, out[0]);
    density_scale_histogram_into(*raw_col, a.cols, factor, out[1]);
  }
}

std::vector<Tensor> StreamingRepBuilder::build(const Csr& a) const {
  std::vector<Tensor> out;
  build_into(a, thread_arena(), out);
  return out;
}

}  // namespace dnnspmv
