#include "tensor/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "tensor/pack.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(DNNSPMV_SIMD) && defined(__AVX2__) && defined(__FMA__)
#define DNNSPMV_GEMM_AVX2 1
#include <immintrin.h>
#endif

namespace dnnspmv {
namespace {

// Cache blocking: an A block (kMC×kKC ≈ 128 KB) targets L2, a B block
// (kKC×kNC ≈ 2 MB) targets L3, and one B panel (kKC×kNR = 8 KB) stays in
// L1 across the whole ic loop.
constexpr std::int64_t kMC = 64;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 2048;

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Per-calling-thread packing buffers. Sized on first use and reused, so
// steady-state GEMM performs no heap allocation; OpenMP workers read them
// through pointers captured by the parallel regions.
struct PackBuffers {
  std::vector<float> a, b;
};

PackBuffers& tls_buffers() {
  static thread_local PackBuffers bufs;
  return bufs;
}

// Computes one C tile: C[mr×nr] (+)= alpha * Ap * Bp. The A operand is
// always a packed panel (pack.hpp); the B panel rows are `ldb` floats
// apart — kNR for a packed (zero-padded) panel, or B's own row stride when
// the driver feeds a full-width tile of row-major B in place. Callers must
// guarantee 8 readable floats per B row (tail tiles always come packed).
// `first` selects the beta epilogue (only the first depth block
// scales/reads the prior C); `last` folds the optional biases.
// Accumulation order over kc is fixed and position-independent, so a given
// output column sees bit-identical arithmetic wherever it lands in the
// tiling — the property the batched-conv == per-sample guarantee rests on.
#ifdef DNNSPMV_GEMM_AVX2

// Lane mask for the `nr`-wide tail of one 8-float vector. nr <= 0 masks
// every lane off, nr >= 8 masks every lane on, so the two halves of a
// 16-column tile can share it via tail_mask(nr) / tail_mask(nr - 8).
inline __m256i tail_mask(std::int64_t nr) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(nr)), idx);
}

// Fully-unrolled accumulation over exactly MR rows × 16 columns — edge
// tiles (mr < kMR) skip the padded rows' FLOPs entirely, which matters for
// skinny operands like conv1's [12, N·opix, 9] where the kernel body is
// the whole cost. MR=6 uses 12 accumulator registers + 2 B vectors + 1
// broadcast: 15 of the 16 ymm registers, no spills.
template <int MR>
inline void accumulate(std::int64_t kc, const float* ap, const float* bp,
                       std::int64_t ldb, __m256* acc0, __m256* acc1) {
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * ldb);
    const __m256 b1 = _mm256_loadu_ps(bp + p * ldb + 8);
    const float* arow = ap + p * kMR;
    for (int i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(arow + i);
      acc0[i] = _mm256_fmadd_ps(av, b0, acc0[i]);
      acc1[i] = _mm256_fmadd_ps(av, b1, acc1[i]);
    }
  }
}

// C = A·B (+ row bias) for one full-width tile when no other epilogue work
// exists (alpha 1, beta 0, single depth block, no column bias):
// accumulators never leave registers, the optional row bias is one add per
// vector, and results store straight out. Bit-identical to the general
// path below (1.0f*x and +0.0f are exact, and the bias add is the same
// single add), it just skips the stack round-trip the dynamically-indexed
// epilogue forces.
template <int MR>
[[gnu::always_inline]] inline void kernel_fused(
    std::int64_t kc, const float* ap, const float* bp, std::int64_t ldb,
    float* c, std::int64_t ldc, const float* row_bias) {
  __m256 acc0[MR], acc1[MR];
  for (int i = 0; i < MR; ++i) {
    acc0[i] = _mm256_setzero_ps();
    acc1[i] = _mm256_setzero_ps();
  }
  accumulate<MR>(kc, ap, bp, ldb, acc0, acc1);
  if (row_bias) {
    for (int i = 0; i < MR; ++i) {
      const __m256 rb = _mm256_set1_ps(row_bias[i]);
      acc0[i] = _mm256_add_ps(acc0[i], rb);
      acc1[i] = _mm256_add_ps(acc1[i], rb);
    }
  }
  for (int i = 0; i < MR; ++i) {
    _mm256_storeu_ps(c + i * ldc, acc0[i]);
    _mm256_storeu_ps(c + i * ldc + 8, acc1[i]);
  }
}

// Small dispatcher the driver calls directly on the no-epilogue fast path;
// forced inline into the tile loop (a call per tile costs a conv1 forward
// about a third of its time), it skips the full micro_kernel's argument
// setup and branch tree per tile.
[[gnu::always_inline]] inline void kernel_fused_dispatch(
    std::int64_t kc, const float* ap, const float* bp, std::int64_t ldb,
    float* c, std::int64_t ldc, std::int64_t mr, const float* row_bias) {
  switch (mr) {
    case 1: kernel_fused<1>(kc, ap, bp, ldb, c, ldc, row_bias); return;
    case 2: kernel_fused<2>(kc, ap, bp, ldb, c, ldc, row_bias); return;
    case 3: kernel_fused<3>(kc, ap, bp, ldb, c, ldc, row_bias); return;
    case 4: kernel_fused<4>(kc, ap, bp, ldb, c, ldc, row_bias); return;
    case 5: kernel_fused<5>(kc, ap, bp, ldb, c, ldc, row_bias); return;
    default: kernel_fused<6>(kc, ap, bp, ldb, c, ldc, row_bias); return;
  }
}

void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                  std::int64_t ldb, float* c, std::int64_t ldc,
                  std::int64_t mr, std::int64_t nr, float alpha, float beta,
                  bool first, bool last, const float* row_bias,
                  const float* col_bias) {
  if (alpha == 1.0f && beta == 0.0f && first && last && !col_bias &&
      nr == kNR) {
    kernel_fused_dispatch(kc, ap, bp, ldb, c, ldc, mr, row_bias);
    return;
  }
  __m256 acc0[kMR], acc1[kMR];
  for (std::int64_t i = 0; i < kMR; ++i) {
    acc0[i] = _mm256_setzero_ps();
    acc1[i] = _mm256_setzero_ps();
  }
  switch (mr) {
    case 1: accumulate<1>(kc, ap, bp, ldb, acc0, acc1); break;
    case 2: accumulate<2>(kc, ap, bp, ldb, acc0, acc1); break;
    case 3: accumulate<3>(kc, ap, bp, ldb, acc0, acc1); break;
    case 4: accumulate<4>(kc, ap, bp, ldb, acc0, acc1); break;
    case 5: accumulate<5>(kc, ap, bp, ldb, acc0, acc1); break;
    default: accumulate<6>(kc, ap, bp, ldb, acc0, acc1); break;
  }
  const __m256 av = _mm256_set1_ps(alpha);
  const __m256 betav = _mm256_set1_ps(beta);
  // Per-half lane masks; a half whose mask is all-on uses plain loads and
  // stores. The accumulated lanes are identical either way, so a column
  // sees the same bits whether it sits in a full or a tail tile.
  const std::int64_t n0 = std::min<std::int64_t>(nr, 8);
  const std::int64_t n1 = nr - n0;
  const __m256i m0 = tail_mask(n0);
  const __m256i m1 = tail_mask(n1);
  __m256 cb0 = _mm256_setzero_ps(), cb1 = _mm256_setzero_ps();
  if (last && col_bias) {
    cb0 = n0 == 8 ? _mm256_loadu_ps(col_bias)
                  : _mm256_maskload_ps(col_bias, m0);
    cb1 = n1 == 8 ? _mm256_loadu_ps(col_bias + 8)
                  : _mm256_maskload_ps(col_bias + 8, m1);
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    __m256 cv0 = _mm256_mul_ps(av, acc0[i]);
    __m256 cv1 = _mm256_mul_ps(av, acc1[i]);
    if (first) {
      if (beta != 0.0f) {
        cv0 = _mm256_fmadd_ps(
            betav,
            n0 == 8 ? _mm256_loadu_ps(crow) : _mm256_maskload_ps(crow, m0),
            cv0);
        cv1 = _mm256_fmadd_ps(betav,
                              n1 == 8 ? _mm256_loadu_ps(crow + 8)
                                      : _mm256_maskload_ps(crow + 8, m1),
                              cv1);
      }
    } else {
      cv0 = _mm256_add_ps(
          cv0,
          n0 == 8 ? _mm256_loadu_ps(crow) : _mm256_maskload_ps(crow, m0));
      cv1 = _mm256_add_ps(cv1, n1 == 8 ? _mm256_loadu_ps(crow + 8)
                                       : _mm256_maskload_ps(crow + 8, m1));
    }
    if (last) {
      if (row_bias) {
        const __m256 rb = _mm256_set1_ps(row_bias[i]);
        cv0 = _mm256_add_ps(cv0, rb);
        cv1 = _mm256_add_ps(cv1, rb);
      }
      if (col_bias) {
        cv0 = _mm256_add_ps(cv0, cb0);
        cv1 = _mm256_add_ps(cv1, cb1);
      }
    }
    if (n0 == 8)
      _mm256_storeu_ps(crow, cv0);
    else
      _mm256_maskstore_ps(crow, m0, cv0);
    if (n1 == 8)
      _mm256_storeu_ps(crow + 8, cv1);
    else if (n1 > 0)
      _mm256_maskstore_ps(crow + 8, m1, cv1);
  }
}

#else  // portable micro-kernel

void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                  std::int64_t ldb, float* c, std::int64_t ldc,
                  std::int64_t mr, std::int64_t nr, float alpha, float beta,
                  bool first, bool last, const float* row_bias,
                  const float* col_bias) {
  // Full-tile accumulation over the zero-padded panels; one code path for
  // interior and edge tiles keeps per-column arithmetic identical.
  float acc[kMR][kNR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMR;
    const float* brow = bp + p * ldb;
    for (std::int64_t i = 0; i < mr; ++i) {
      const float avv = arow[i];
      for (std::int64_t j = 0; j < kNR; ++j) acc[i][j] += avv * brow[j];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < nr; ++j) {
      float v = alpha * acc[i][j];
      if (first) {
        if (beta != 0.0f) v += beta * crow[j];
      } else {
        v += crow[j];
      }
      if (last) {
        if (row_bias) v += row_bias[i];
        if (col_bias) v += col_bias[j];
      }
      crow[j] = v;
    }
  }
}

// Portable twin of the AVX2 fast-path dispatcher: same call site in the
// driver, same arithmetic — the scalar kernel has no epilogue spill to
// skip, so it just forwards.
inline void kernel_fused_dispatch(std::int64_t kc, const float* ap,
                                  const float* bp, std::int64_t ldb, float* c,
                                  std::int64_t ldc, std::int64_t mr,
                                  const float* row_bias) {
  micro_kernel(kc, ap, bp, ldb, c, ldc, mr, kNR, 1.0f, 0.0f, true, true,
               row_bias, nullptr);
}

#endif  // DNNSPMV_GEMM_AVX2

// Where logical element (r, j) of an operand lives. A plain matrix keeps
// it at r*rs + j*cs. A batched operand (jb > 0) is a conv activation: the
// matrix [rows, batch·jb] stored as the NCHW tensor [batch, rows, jb], so
// j splits into sample j / jb and pixel j % jb, and samples lie jbs floats
// apart. The batched index is a column of B and C and a depth of A.
struct Layout {
  std::int64_t rs, cs;
  std::int64_t jb = 0, jbs = 0;

  std::int64_t at(std::int64_t r, std::int64_t j) const {
    return jb == 0 ? r * rs + j * cs
                   : r * rs + (j / jb) * jbs + (j % jb) * cs;
  }
};

// The matrix [rows, batch·pix] held as the NCHW tensor [batch, rows, pix].
Layout nchw(std::int64_t rows, std::int64_t pix) {
  return {pix, 1, pix, rows * pix};
}

// Offsets of successive tiles' first columns in one Layout, starting at
// column j0 and advancing kNR columns per step, so a tile sweep divides
// only where it starts. A batched layout's jb is a multiple of kNR, so no
// tile straddles two samples.
struct ColWalk {
  std::int64_t base, j, jb, jbs, cs;

  ColWalk(const Layout& l, std::int64_t r, std::int64_t j0)
      : j(l.jb ? j0 % l.jb : j0), jb(l.jb), jbs(l.jbs), cs(l.cs) {
    base = l.at(r, j0) - j * cs;
  }
  std::int64_t offset() const { return base + j * cs; }
  void next() {
    j += kNR;
    if (j == jb) {  // a plain layout (jb == 0) never wraps
      j = 0;
      base += jbs;
    }
  }
};

// One thread's contiguous share of the (jp, ip) tile sweep for a single
// (jc, pc, ic) block. Passed by value: every field becomes a plain local,
// so the loop compiles without the per-iteration shared-variable reloads
// GCC emits for variables captured by reference in OpenMP closures.
struct TileRange {
  // mend = ic + mc bounds tile rows to the current MC block — the final A
  // panel of a block is zero-padded, and running it past the block would
  // overwrite the next block's C rows with epilogue-scaled garbage.
  std::int64_t jp0, jp1, jc, ic, pc, mend, n, kc, mb;
  float alpha, beta;
  bool first, last, fused, direct_b;
  Layout lb, lc;
  const float* b;
  float* c;
  const float* abuf;
  const float* bbuf;
  const float* row_bias;
  const float* col_bias;
};

void tile_range(const TileRange t) {
  const std::int64_t ldc = t.lc.rs;
  ColWalk bcol(t.lb, t.pc, t.jc + t.jp0 * kNR);
  ColWalk ccol(t.lc, 0, t.jc + t.jp0 * kNR);
  for (std::int64_t jp = t.jp0; jp < t.jp1; ++jp, bcol.next(), ccol.next()) {
    const std::int64_t j0 = t.jc + jp * kNR;
    const std::int64_t nr = std::min(t.n - j0, kNR);
    const float* bp = t.bbuf + jp * t.kc * kNR;
    std::int64_t ldb = kNR;
    if (t.direct_b && nr == kNR) {
      bp = t.b + bcol.offset();
      ldb = t.lb.rs;
    } else if (t.direct_b) {
      bp = t.bbuf;  // the one packed tail panel
    }
    float* ct = t.c + ccol.offset();
    if (t.fused && nr == kNR) {
      for (std::int64_t ip = 0; ip < t.mb; ++ip) {
        const std::int64_t i0 = t.ic + ip * kMR;
        kernel_fused_dispatch(t.kc, t.abuf + ip * t.kc * kMR, bp, ldb,
                              ct + i0 * ldc, ldc, std::min(t.mend - i0, kMR),
                              t.row_bias ? t.row_bias + i0 : nullptr);
      }
    } else {
      for (std::int64_t ip = 0; ip < t.mb; ++ip) {
        const std::int64_t i0 = t.ic + ip * kMR;
        const std::int64_t mr = std::min(t.mend - i0, kMR);
        micro_kernel(t.kc, t.abuf + ip * t.kc * kMR, bp, ldb, ct + i0 * ldc,
                     ldc, mr, nr, t.alpha, t.beta, t.first, t.last,
                     t.row_bias ? t.row_bias + i0 : nullptr,
                     t.col_bias ? t.col_bias + j0 : nullptr);
      }
    }
  }
}

// Runs a block's tiles [0, all.jp1): on one thread directly, or split into
// contiguous per-thread ranges, the schedule(static) split. Each tile is
// owned by one thread, so results are the same at any thread count.
void run_tiles(const TileRange& all, bool team) {
  if (!team) {
    tile_range(all);
    return;
  }
#pragma omp parallel
  {
#ifdef _OPENMP
    const std::int64_t nth = omp_get_num_threads();
    const std::int64_t tid = omp_get_thread_num();
#else
    const std::int64_t nth = 1, tid = 0;
#endif
    const std::int64_t chunk = ceil_div(all.jp1, nth);
    TileRange mine = all;
    mine.jp0 = tid * chunk;
    mine.jp1 = std::min(all.jp1, mine.jp0 + chunk);
    if (mine.jp0 < mine.jp1) tile_range(mine);
  }
}

// Packs A rows [i0, i0+rows) over depths [p0, p0+kc) into one panel, one
// pack_a_panel call per run of depths contiguous in memory (a batched
// layout breaks the runs at sample boundaries).
void pack_a_block(std::int64_t rows, std::int64_t kc, const float* a,
                  const Layout& la, std::int64_t i0, std::int64_t p0,
                  float* dst) {
  for (std::int64_t p = p0, end = p0 + kc; p < end;) {
    const std::int64_t run =
        la.jb ? std::min(end - p, la.jb - p % la.jb) : end - p;
    pack_a_panel(rows, run, a + la.at(i0, p), la.rs, la.cs,
                 dst + (p - p0) * kMR);
    p += run;
  }
}

// Degenerate case (k == 0 or alpha == 0): C = beta*C + biases. Runs the
// whole O(m·n) pass under OpenMP — this replaces the seed's serial
// scale_c.
void epilogue_only(std::int64_t m, std::int64_t n, float beta, float* c,
                   const Layout& lc, const float* row_bias,
                   const float* col_bias) {
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < m; ++i) {
    const float rb = row_bias ? row_bias[i] : 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
      float& cv = c[lc.at(i, j)];
      float v = (beta == 0.0f) ? 0.0f : beta * cv;
      v += rb;
      if (col_bias) v += col_bias[j];
      cv = v;
    }
  }
}

// Shared driver for every public variant: logical operands A[m,k], B[k,n]
// and C[m,n] placed by their Layouts (transposed variants swap strides).
void gemm_driver(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, const Layout& la, const float* b,
                 const Layout& lb, float beta, float* c, const Layout& lc,
                 const float* row_bias, const float* col_bias) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == 0.0f) {
    epilogue_only(m, n, beta, c, lc, row_bias, col_bias);
    return;
  }

  // When B's columns are contiguous and all of A fits one MC block, each B
  // panel is consumed exactly once per depth block — packing it would only
  // add a copy pass. Feed full-width tiles straight from B instead (the
  // kernel takes the row stride); only the ragged last panel still gets
  // packed, so the kernel never reads past a row end. This is the case for
  // every forward conv/dense GEMM (m = channels/batch, n = batch·pixels).
  const bool direct_b = lb.cs == 1 && m <= kMC;
#ifdef _OPENMP
  // With a one-thread team the work is called directly: opening two OpenMP
  // regions per depth block costs more than some blocks' whole work (conv
  // dW's 256-deep blocks of a 12×9 result).
  const bool team = omp_get_max_threads() > 1;
#else
  const bool team = false;
#endif

  PackBuffers& buf = tls_buffers();
  const std::int64_t kc_max = std::min(k, kKC);
  buf.a.resize(static_cast<std::size_t>(
      ceil_div(std::min(m, kMC), kMR) * kMR * kc_max));
  buf.b.resize(static_cast<std::size_t>(
      (direct_b ? 1 : ceil_div(std::min(n, kNC), kNR)) * kNR * kc_max));
  float* abuf = buf.a.data();
  float* bbuf = buf.b.data();

  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(n - jc, kNC);
    const std::int64_t nb = ceil_div(nc, kNR);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(k - pc, kKC);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      // No epilogue work beyond a row bias for this depth block → full-width
      // tiles can take the store-straight-out kernel without re-testing per
      // tile.
      const bool fused =
          alpha == 1.0f && beta == 0.0f && first && last && !col_bias;
      const auto pack_b = [&](std::int64_t jp) {
        const std::int64_t j0 = jp * kNR;
        pack_b_panel(kc, std::min(nc - j0, kNR), b + lb.at(pc, jc + j0),
                     lb.rs, lb.cs, bbuf + jp * kc * kNR);
      };
      if (direct_b) {
        if (nc % kNR != 0) {
          const std::int64_t j0 = (nb - 1) * kNR;
          pack_b_panel(kc, nc - j0, b + lb.at(pc, jc + j0), lb.rs, 1, bbuf);
        }
      } else if (team) {
#pragma omp parallel for schedule(static)
        for (std::int64_t jp = 0; jp < nb; ++jp) pack_b(jp);
      } else {
        for (std::int64_t jp = 0; jp < nb; ++jp) pack_b(jp);
      }
      for (std::int64_t ic = 0; ic < m; ic += kMC) {
        const std::int64_t mc = std::min(m - ic, kMC);
        const std::int64_t mb = ceil_div(mc, kMR);
        for (std::int64_t ip = 0; ip < mb; ++ip) {
          const std::int64_t i0 = ip * kMR;
          pack_a_block(std::min(mc - i0, kMR), kc, a, la, ic + i0, pc,
                       abuf + ip * kc * kMR);
        }
        // tile_range (plain value arguments, no OpenMP closure) keeps the
        // per-tile loop free of the shared-variable indirection GCC emits
        // inside outlined regions.
        run_tiles({0, nb, jc, ic, pc, ic + mc, n, kc, mb, alpha, beta, first,
                   last, fused, direct_b, lb, lc, b, c, abuf, bbuf, row_bias,
                   col_bias},
                  team);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Int8 micro-kernels (see gemm.hpp for the contract). The integer
// accumulation is exact, so the only arithmetic that could diverge between
// SIMD and scalar is the fp32 epilogue — both paths use one fused
// multiply-add (std::fmaf / _mm256_fmadd_ps: single rounding, same result)
// and the same max-against-+0.0 ReLU, which keeps them bit-identical. The
// scalar kernel is always compiled: it is the reference the property tests
// compare against and the fallback for non-AVX2 builds.

void qkernel_scalar(std::int64_t kq, const std::int8_t* ap,
                    const std::uint8_t* bp, float* c, std::int64_t ldc,
                    std::int64_t mr, std::int64_t nr, const float* scale,
                    const float* bias, bool relu) {
  std::int32_t acc[kMR][kNR] = {};
  for (std::int64_t q = 0; q < kq; ++q) {
    const std::int8_t* arow = ap + q * kQuadA;
    const std::uint8_t* brow = bp + q * kQuadB;
    for (std::int64_t i = 0; i < mr; ++i) {
      for (std::int64_t j = 0; j < kNR; ++j) {
        std::int32_t s = 0;
        for (std::int64_t t = 0; t < kQK; ++t)
          s += static_cast<std::int32_t>(arow[i * kQK + t]) *
               static_cast<std::int32_t>(brow[j * kQK + t]);
        acc[i][j] += s;
      }
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    const float sv = scale[i];
    const float bv = bias ? bias[i] : 0.0f;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < nr; ++j) {
      float v = std::fmaf(static_cast<float>(acc[i][j]), sv, bv);
      // Matches _mm256_max_ps(v, +0.0): -0.0 maps to +0.0.
      if (relu) v = v > 0.0f ? v : 0.0f;
      crow[j] = v;
    }
  }
}

// GEMV twin of the kernel above, for n == 1 (the cold-miss dense layers):
// one int32 accumulator per row, weights read from the [group][quad][8][4]
// gemv packing, the activation quad shared across the 8 rows of a group.
// Integer accumulation is exact, so this evaluation order produces the
// same acc — and with the same fmaf epilogue the same bits — as the tiled
// kernel would.
void qgemv_scalar(std::int64_t kq, const std::int8_t* gv,
                  const std::uint8_t* xq, std::int64_t mr, const float* scale,
                  const float* bias, bool relu, float* c, std::int64_t ldc) {
  std::int32_t acc[8] = {};
  for (std::int64_t q = 0; q < kq; ++q) {
    const std::int8_t* wrow = gv + q * 32;
    const std::uint8_t* x = xq + q * kQK;
    for (std::int64_t r = 0; r < 8; ++r) {
      std::int32_t s = 0;
      for (std::int64_t t = 0; t < kQK; ++t)
        s += static_cast<std::int32_t>(wrow[r * kQK + t]) *
             static_cast<std::int32_t>(x[t]);
      acc[r] += s;
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float v = std::fmaf(static_cast<float>(acc[r]), scale[r],
                        bias ? bias[r] : 0.0f);
    if (relu) v = v > 0.0f ? v : 0.0f;
    c[r * ldc] = v;
  }
}

#ifdef DNNSPMV_GEMM_AVX2

// MR rows × 16 columns per call: 12 int32 accumulators + 2 B vectors + 1
// broadcast + the i16 ones vector fill the ymm file like the fp32 kernel.
// Per depth quad: one 32-byte B load covers 8 columns × 4 depths
// (pack_b_panel_u8 layout), the 4 weight bytes of row i broadcast as one
// dword, and maddubs (unsigned B × signed A) + madd-by-ones reduce the
// quad into each column's int32 lane.
template <int MR>
inline void qkernel_avx2(std::int64_t kq, const std::int8_t* ap,
                         const std::uint8_t* bp, float* c, std::int64_t ldc,
                         std::int64_t nr, const float* scale,
                         const float* bias, bool relu) {
  __m256i acc0[MR], acc1[MR];
  for (int i = 0; i < MR; ++i) {
    acc0[i] = _mm256_setzero_si256();
    acc1[i] = _mm256_setzero_si256();
  }
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t q = 0; q < kq; ++q) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * kQuadB));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * kQuadB + 32));
    const std::int8_t* arow = ap + q * kQuadA;
    for (int i = 0; i < MR; ++i) {
      std::int32_t aq;
      std::memcpy(&aq, arow + i * kQK, sizeof(aq));
      const __m256i av = _mm256_set1_epi32(aq);
      const __m256i p0 = _mm256_maddubs_epi16(b0, av);
      const __m256i p1 = _mm256_maddubs_epi16(b1, av);
      acc0[i] = _mm256_add_epi32(acc0[i], _mm256_madd_epi16(p0, ones));
      acc1[i] = _mm256_add_epi32(acc1[i], _mm256_madd_epi16(p1, ones));
    }
  }
  const std::int64_t n0 = std::min<std::int64_t>(nr, 8);
  const std::int64_t n1 = nr - n0;
  const __m256i m0 = tail_mask(n0);
  const __m256i m1 = tail_mask(n1);
  const __m256 zero = _mm256_setzero_ps();
  for (int i = 0; i < MR; ++i) {
    const __m256 sv = _mm256_set1_ps(scale[i]);
    const __m256 bv = _mm256_set1_ps(bias ? bias[i] : 0.0f);
    __m256 v0 = _mm256_fmadd_ps(_mm256_cvtepi32_ps(acc0[i]), sv, bv);
    __m256 v1 = _mm256_fmadd_ps(_mm256_cvtepi32_ps(acc1[i]), sv, bv);
    if (relu) {
      v0 = _mm256_max_ps(v0, zero);
      v1 = _mm256_max_ps(v1, zero);
    }
    float* crow = c + i * ldc;
    if (n0 == 8)
      _mm256_storeu_ps(crow, v0);
    else
      _mm256_maskstore_ps(crow, m0, v0);
    if (n1 == 8)
      _mm256_storeu_ps(crow + 8, v1);
    else if (n1 > 0)
      _mm256_maskstore_ps(crow + 8, m1, v1);
  }
}

// 8 rows per call: the activation quad broadcasts as one dword (unsigned
// maddubs operand), a 32-byte load covers the group's 8 row-quads.
inline void qgemv_avx2(std::int64_t kq, const std::int8_t* gv,
                       const std::uint8_t* xq, std::int64_t mr,
                       const float* scale, const float* bias, bool relu,
                       float* c, std::int64_t ldc) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t q = 0; q < kq; ++q) {
    std::int32_t xd;
    std::memcpy(&xd, xq + q * kQK, sizeof(xd));
    const __m256i xv = _mm256_set1_epi32(xd);
    const __m256i wv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(gv + q * 32));
    const __m256i p = _mm256_maddubs_epi16(xv, wv);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(p, ones));
  }
  const __m256i m = tail_mask(mr);
  const __m256 sv =
      mr == 8 ? _mm256_loadu_ps(scale) : _mm256_maskload_ps(scale, m);
  const __m256 bv =
      bias ? (mr == 8 ? _mm256_loadu_ps(bias) : _mm256_maskload_ps(bias, m))
           : _mm256_setzero_ps();
  __m256 v = _mm256_fmadd_ps(_mm256_cvtepi32_ps(acc), sv, bv);
  if (relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
  if (ldc == 1) {
    if (mr == 8)
      _mm256_storeu_ps(c, v);
    else
      _mm256_maskstore_ps(c, m, v);
    return;
  }
  alignas(32) float tmp[8];
  _mm256_store_ps(tmp, v);
  for (std::int64_t r = 0; r < mr; ++r) c[r * ldc] = tmp[r];
}

inline void qkernel_avx2_dispatch(std::int64_t kq, const std::int8_t* ap,
                                  const std::uint8_t* bp, float* c,
                                  std::int64_t ldc, std::int64_t mr,
                                  std::int64_t nr, const float* scale,
                                  const float* bias, bool relu) {
  switch (mr) {
    case 1: qkernel_avx2<1>(kq, ap, bp, c, ldc, nr, scale, bias, relu); return;
    case 2: qkernel_avx2<2>(kq, ap, bp, c, ldc, nr, scale, bias, relu); return;
    case 3: qkernel_avx2<3>(kq, ap, bp, c, ldc, nr, scale, bias, relu); return;
    case 4: qkernel_avx2<4>(kq, ap, bp, c, ldc, nr, scale, bias, relu); return;
    case 5: qkernel_avx2<5>(kq, ap, bp, c, ldc, nr, scale, bias, relu); return;
    default:
      qkernel_avx2<6>(kq, ap, bp, c, ldc, nr, scale, bias, relu);
      return;
  }
}

#endif  // DNNSPMV_GEMM_AVX2

// Per-thread activation packing buffer (weights are pre-packed, so this is
// the only scratch the quantized path needs).
std::vector<std::uint8_t>& qtls_buffer() {
  static thread_local std::vector<std::uint8_t> buf;
  return buf;
}

// Unlike the fp32 driver there is no depth blocking: the MergeNet reduction
// lengths (k ≤ a few hundred) fit one pass, every call is first-and-last,
// and the dequant epilogue runs straight from registers. Each column panel
// is packed and consumed by the same thread (pack-and-compute fused), and
// each output tile is written exactly once — results are independent of
// thread count because tiles never share accumulation.
void qgemm_driver(const QGemmWeights& w, std::int64_t n,
                  const std::uint8_t* b, std::int64_t rs_b, std::int64_t cs_b,
                  const float* scale, const float* bias, bool relu, float* c,
                  std::int64_t ldc, bool simd) {
  const std::int64_t m = w.rows;
  const std::int64_t k = w.depth;
  if (m <= 0 || n <= 0) return;
  const std::int64_t kq = ceil_div(k, kQK);
#ifndef DNNSPMV_GEMM_AVX2
  (void)simd;
#endif
  if (n == 1) {
    // GEMV fast path: the tiled kernel would waste 15/16 of its column
    // lanes on a single activation vector, which is exactly the cold-miss
    // dense-layer shape. Exact integer accumulation + the shared fmaf
    // epilogue keep this path bit-identical to the tiled one.
    std::vector<std::uint8_t>& xbuf = qtls_buffer();
    xbuf.assign(static_cast<std::size_t>(kq * kQK), 0);
    for (std::int64_t d = 0; d < k; ++d) xbuf[d] = b[d * rs_b];
    const std::int64_t gb = ceil_div(m, 8);
    const std::int8_t* gv = w.gemv.data();
    for (std::int64_t g = 0; g < gb; ++g) {
      const std::int64_t r0 = g * 8;
      const std::int64_t mr = std::min<std::int64_t>(m - r0, 8);
      const std::int8_t* gvp = gv + g * kq * 32;
      float* ct = c + r0 * ldc;
#ifdef DNNSPMV_GEMM_AVX2
      if (simd) {
        qgemv_avx2(kq, gvp, xbuf.data(), mr, scale + r0,
                   bias ? bias + r0 : nullptr, relu, ct, ldc);
        continue;
      }
#endif
      qgemv_scalar(kq, gvp, xbuf.data(), mr, scale + r0,
                   bias ? bias + r0 : nullptr, relu, ct, ldc);
    }
    return;
  }
  const std::int64_t nb = ceil_div(n, kNR);
  const std::int64_t mb = ceil_div(m, kMR);
  const std::int64_t apanel = kq * kQuadA;
  const std::int64_t bpanel = kq * kQuadB;
  std::vector<std::uint8_t>& buf = qtls_buffer();
  buf.resize(static_cast<std::size_t>(nb * bpanel));
  std::uint8_t* bbuf = buf.data();
  const std::int8_t* abuf = w.panels.data();
  // One or two panels (the small cold-miss convs) aren't worth a fork/join.
#pragma omp parallel for schedule(static) if (nb > 2)
  for (std::int64_t jp = 0; jp < nb; ++jp) {
    const std::int64_t j0 = jp * kNR;
    const std::int64_t nr = std::min(n - j0, kNR);
    std::uint8_t* bp = bbuf + jp * bpanel;
    pack_b_panel_u8(k, nr, b + j0 * cs_b, rs_b, cs_b, bp);
    for (std::int64_t ip = 0; ip < mb; ++ip) {
      const std::int64_t i0 = ip * kMR;
      const std::int64_t mr = std::min(m - i0, kMR);
      float* ct = c + i0 * ldc + j0;
#ifdef DNNSPMV_GEMM_AVX2
      if (simd) {
        qkernel_avx2_dispatch(kq, abuf + ip * apanel, bp, ct, ldc, mr, nr,
                              scale + i0, bias ? bias + i0 : nullptr, relu);
        continue;
      }
#endif
      qkernel_scalar(kq, abuf + ip * apanel, bp, ct, ldc, mr, nr, scale + i0,
                     bias ? bias + i0 : nullptr, relu);
    }
  }
}

}  // namespace

QGemmWeights qgemm_pack_weights(std::int64_t m, std::int64_t k,
                                const std::int8_t* a) {
  QGemmWeights w;
  w.rows = m;
  w.depth = k;
  if (m <= 0 || k <= 0) return w;
  const std::int64_t kq = ceil_div(k, kQK);
  const std::int64_t mb = ceil_div(m, kMR);
  const std::int64_t apanel = kq * kQuadA;
  w.panels.assign(static_cast<std::size_t>(mb * apanel), 0);
  for (std::int64_t ip = 0; ip < mb; ++ip) {
    const std::int64_t i0 = ip * kMR;
    pack_a_panel_s8(std::min(m - i0, kMR), k, a + i0 * k, k, 1,
                    w.panels.data() + ip * apanel);
  }
  // GEMV twin: [group][quad][8 rows][4 bytes], zero-padded, so the n == 1
  // kernel reads one contiguous 32-byte vector per (group, quad).
  const std::int64_t gb = ceil_div(m, 8);
  w.gemv.assign(static_cast<std::size_t>(gb * kq * 32), 0);
  for (std::int64_t g = 0; g < gb; ++g)
    for (std::int64_t q = 0; q < kq; ++q)
      for (std::int64_t r = 0; r < 8; ++r) {
        const std::int64_t row = g * 8 + r;
        if (row >= m) break;
        for (std::int64_t t = 0; t < kQK; ++t) {
          const std::int64_t d = q * kQK + t;
          if (d < k) w.gemv[((g * kq + q) * 8 + r) * 4 + t] = a[row * k + d];
        }
      }
  return w;
}

void quantize_u7(const float* x, std::int64_t n, float inv_scale,
                 std::int32_t zp, std::uint8_t* q) {
  const float zpf = static_cast<float>(zp);
  std::int64_t i = 0;
#ifdef DNNSPMV_GEMM_AVX2
  // _mm256_round_ps to-nearest == std::nearbyint under the default
  // round-to-nearest-even mode, so this produces the scalar loop's bytes.
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256 zpv = _mm256_set1_ps(zpf);
  const __m256 lo = _mm256_setzero_ps();
  const __m256 hi = _mm256_set1_ps(127.0f);
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_round_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), inv),
                               _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    v = _mm256_min_ps(hi, _mm256_max_ps(lo, _mm256_add_ps(v, zpv)));
    const __m256i w = _mm256_cvtps_epi32(v);
    // 8×i32 → 8×u8: narrow to i16 (cross-lane fixup), then to u8.
    const __m256i w16 = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(w, _mm256_setzero_si256()), 0b11011000);
    const __m256i w8 = _mm256_packus_epi16(w16, _mm256_setzero_si256());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                     _mm256_castsi256_si128(w8));
  }
#endif
  for (; i < n; ++i) {
    const float v = std::nearbyint(x[i] * inv_scale) + zpf;
    q[i] = static_cast<std::uint8_t>(std::min(127.0f, std::max(0.0f, v)));
  }
}

void qgemm_u7(const QGemmWeights& a, std::int64_t n, const std::uint8_t* b,
              std::int64_t rs_b, std::int64_t cs_b, const float* scale,
              const float* bias, bool relu, float* c, std::int64_t ldc) {
  qgemm_driver(a, n, b, rs_b, cs_b, scale, bias, relu, c, ldc, true);
}

void qgemm_u7_ref(const QGemmWeights& a, std::int64_t n,
                  const std::uint8_t* b, std::int64_t rs_b,
                  std::int64_t cs_b, const float* scale, const float* bias,
                  bool relu, float* c, std::int64_t ldc) {
  qgemm_driver(a, n, b, rs_b, cs_b, scale, bias, relu, c, ldc, false);
}

void sgemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
           const float* a, const float* b, float beta, float* c) {
  gemm_driver(m, n, k, alpha, a, {k, 1}, b, {n, 1}, beta, c, {n, 1}, nullptr,
              nullptr);
}

void sgemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c,
              std::int64_t b_pix) {
  DNNSPMV_CHECK_MSG(
      b_pix == 0 || (b_pix > 0 && b_pix % kNR == 0 && n % b_pix == 0),
      "NCHW B needs pixels a multiple of " << kNR << " dividing n");
  // A stored k×m: logical A[i,p] = a[p*m + i].
  gemm_driver(m, n, k, alpha, a, {1, m}, b,
              b_pix ? nchw(k, b_pix) : Layout{n, 1}, beta, c, {n, 1}, nullptr,
              nullptr);
}

void sgemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c,
              std::int64_t a_pix) {
  DNNSPMV_CHECK_MSG(a_pix == 0 || (a_pix > 0 && k % a_pix == 0),
                    "NCHW A needs pixels dividing k");
  // B stored n×k: logical B[p,j] = b[j*k + p].
  gemm_driver(m, n, k, alpha, a, a_pix ? nchw(m, a_pix) : Layout{k, 1}, b,
              {1, k}, beta, c, {n, 1}, nullptr, nullptr);
}

void sgemm_row_bias(std::int64_t m, std::int64_t n, std::int64_t k,
                    float alpha, const float* a, const float* b, float beta,
                    float* c, const float* row_bias, std::int64_t c_pix) {
  DNNSPMV_CHECK_MSG(
      c_pix == 0 || (c_pix > 0 && c_pix % kNR == 0 && n % c_pix == 0),
      "NCHW C needs pixels a multiple of " << kNR << " dividing n");
  gemm_driver(m, n, k, alpha, a, {k, 1}, b, {n, 1}, beta, c,
              c_pix ? nchw(m, c_pix) : Layout{n, 1}, row_bias, nullptr);
}

void sgemm_bt_col_bias(std::int64_t m, std::int64_t n, std::int64_t k,
                       float alpha, const float* a, const float* b,
                       float beta, float* c, const float* col_bias) {
  gemm_driver(m, n, k, alpha, a, {k, 1}, b, {1, k}, beta, c, {n, 1}, nullptr,
              col_bias);
}

}  // namespace dnnspmv
