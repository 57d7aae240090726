#include "sparse/spmm.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#ifdef DNNSPMV_SIMD
#include <immintrin.h>
#endif
#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/spmv.hpp"

namespace dnnspmv {
namespace {

void check_shapes(index_t rows, index_t cols, std::span<const double> x,
                  std::span<double> y, index_t k) {
  DNNSPMV_CHECK(k >= 1);
  DNNSPMV_CHECK(x.size() == static_cast<std::size_t>(cols) *
                                static_cast<std::size_t>(k));
  DNNSPMV_CHECK(y.size() == static_cast<std::size_t>(rows) *
                                static_cast<std::size_t>(k));
}

const char* spmm_span_name(Format f) {
  switch (f) {
    case Format::kCoo: return "spmm.coo";
    case Format::kCsr: return "spmm.csr";
    case Format::kDia: return "spmm.dia";
    case Format::kEll: return "spmm.ell";
    case Format::kHyb: return "spmm.hyb";
    case Format::kBsr: return "spmm.bsr";
    case Format::kCsr5: return "spmm.csr5";
  }
  return "spmm.unknown";
}

obs::Histogram& spmm_hist(Format f) {
  static std::array<obs::Histogram*, kNumFormats> hists = [] {
    std::array<obs::Histogram*, kNumFormats> h{};
    for (std::int32_t i = 0; i < kNumFormats; ++i)
      h[static_cast<std::size_t>(i)] = &obs::MetricsRegistry::global()
          .histogram(std::string(spmm_span_name(static_cast<Format>(i))) +
                     "_us");
    return h;
  }();
  return *hists[static_cast<std::size_t>(f)];
}

// ---- Register panels -------------------------------------------------
//
// Every kernel computes an output row's K lanes one panel of kPanel lanes
// at a time, held in registers while the row's terms stream past: lane c
// sums v * x_row[c] over the row's terms in the kernel's order, with a
// multiply then an add, starting from 0.0. That is the per-lane arithmetic
// of the SpMV kernels, which are built without FMA like this file, so
// every lane at any K (and K = 1 in particular) is bitwise its SpMV.

#ifdef DNNSPMV_SIMD
// 32 lanes in eight __m256d: half the ymm file, leaving room for the
// broadcast coefficient and the X loads.
constexpr index_t kPanel = 32;

struct FullPanel {
  static constexpr index_t width() { return kPanel; }
  void zero() {
    for (__m256d& a : acc) a = _mm256_setzero_pd();
  }
  void load(const double* y) {
    for (int p = 0; p < kPanel / 4; ++p) acc[p] = _mm256_loadu_pd(y + 4 * p);
  }
  void add(double v, const double* x) {
    const __m256d vv = _mm256_set1_pd(v);
    for (int p = 0; p < kPanel / 4; ++p)
      acc[p] = _mm256_add_pd(acc[p],
                             _mm256_mul_pd(vv, _mm256_loadu_pd(x + 4 * p)));
  }
  void store(double* y) const {
    for (int p = 0; p < kPanel / 4; ++p) _mm256_storeu_pd(y + 4 * p, acc[p]);
  }
  __m256d acc[kPanel / 4];
};
#else
constexpr index_t kPanel = 16;
#endif

// Lanes in a stack array, with the same arithmetic: Width of them, or a
// runtime `n` when Width is 0 (the last K mod kPanel lanes). At a fixed
// width the loops unroll and the compiler keeps the array in registers:
// without DNNSPMV_SIMD, the 16-lane full panel sits in eight SSE2
// registers, half the xmm file.
template <index_t Width>
struct ArrayPanel {
  index_t width() const { return Width > 0 ? Width : n; }
  void zero() {
    for (index_t c = 0; c < width(); ++c) acc[c] = 0.0;
  }
  void load(const double* y) {
    for (index_t c = 0; c < width(); ++c) acc[c] = y[c];
  }
  void add(double v, const double* x) {
    for (index_t c = 0; c < width(); ++c) acc[c] += v * x[c];
  }
  void store(double* y) const {
    for (index_t c = 0; c < width(); ++c) y[c] = acc[c];
  }
  index_t n = Width;
  double acc[kPanel];
};
#ifndef DNNSPMV_SIMD
using FullPanel = ArrayPanel<kPanel>;
#endif
using TailPanel = ArrayPanel<0>;

// Where a finished panel goes: exactly where the SpMV kernel puts the row.
enum class Flush {
  kStore,      // lanes start at 0.0 and are stored: the row is owned
  kAtomicAdd,  // lanes start at 0.0 and are atomically added: the row is
               // shared with a neighbouring COO chunk or CSR5 tile
  kUpdate,     // lanes continue from Y's row and are stored back (HYB's
               // serial COO tail)
};

template <class Panel, class Terms>
[[gnu::always_inline]] inline void run_panel(Panel& acc, Flush flush, double* y,
                                             const Terms& terms, index_t c0) {
  if (flush == Flush::kUpdate)
    acc.load(y);
  else
    acc.zero();
  terms([&](double v, const double* xr) { acc.add(v, xr + c0); });
  if (flush != Flush::kAtomicAdd) {
    acc.store(y);
    return;
  }
  double lanes[kPanel];
  acc.store(lanes);
  for (index_t c = 0; c < acc.width(); ++c) {
#pragma omp atomic
    y[c] += lanes[c];
  }
}

// The one primitive every kernel drives: computes output row `yr` (K
// lanes) of Y = A·X. `terms(add)` calls add(v, x_row) for each of the
// row's products in the kernel's order, x_row pointing at lane 0 of an X
// row; it runs once per panel. Terms capture raw pointers by value and
// everything inlines into the kernel's loop, so nothing the walk reads
// is reloaded per term behind a branch.
template <class Terms>
[[gnu::always_inline]] inline void panel_row(index_t k, Flush flush, double* yr,
                                             const Terms& terms) {
  index_t c0 = 0;
  for (; c0 + kPanel <= k; c0 += kPanel) {
    FullPanel acc;
    run_panel(acc, flush, yr + c0, terms, c0);
  }
  if (c0 < k) {
    TailPanel acc;
    acc.n = k - c0;
    run_panel(acc, flush, yr + c0, terms, c0);
  }
}

// Walks COO entries [lo, hi) one run of equal row indices at a time, each
// run one panel_row. The first and last runs flush as `edge` (their rows
// may continue past lo or hi), the others as `interior`.
void coo_row_runs(const Coo& a, std::int64_t lo, std::int64_t hi,
                  const double* xv, double* yv, index_t k, Flush edge,
                  Flush interior) {
  const index_t* rp = a.row.data();
  const index_t* cp = a.col.data();
  const double* vp = a.val.data();
  for (std::int64_t b = lo; b < hi;) {
    const index_t r = rp[b];
    std::int64_t e = b + 1;
    while (e < hi && rp[e] == r) ++e;
    const Flush flush = b == lo || e == hi ? edge : interior;
    panel_row(k, flush, yv + static_cast<std::size_t>(r) * k,
              [=](auto&& add) {
                for (std::int64_t j = b; j < e; ++j)
                  add(vp[j], xv + static_cast<std::size_t>(cp[j]) * k);
              });
    b = e;
  }
}

}  // namespace

void spmm_reference(const Csr& a, std::span<const double> x,
                    std::span<double> y, index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  for (index_t i = 0; i < a.rows; ++i) {
    double* yr = y.data() + static_cast<std::size_t>(i) * k;
    std::fill(yr, yr + k, 0.0);
    for (std::int64_t j = a.ptr[i]; j < a.ptr[i + 1]; ++j) {
      const double v = a.val[static_cast<std::size_t>(j)];
      const double* xr =
          x.data() + static_cast<std::size_t>(a.idx[j]) * k;
      for (index_t c = 0; c < k; ++c) yr[c] += v * xr[c];
    }
  }
}

void spmm_csr(const Csr& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  const std::int64_t* ptr = a.ptr.data();
  const index_t* idx = a.idx.data();
  const double* val = a.val.data();
  const double* xv = x.data();
  double* yv = y.data();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < a.rows; ++i) {
    const std::int64_t lo = ptr[i];
    const std::int64_t hi = ptr[i + 1];
    panel_row(k, Flush::kStore, yv + static_cast<std::size_t>(i) * k,
              [=](auto&& add) {
                for (std::int64_t j = lo; j < hi; ++j)
                  add(val[j], xv + static_cast<std::size_t>(idx[j]) * k);
              });
  }
}

void spmm_coo(const Coo& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  std::fill(y.begin(), y.end(), 0.0);
  const std::int64_t nnz = a.nnz();

#pragma omp parallel
  {
#ifdef _OPENMP
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
#else
    const int nt = 1;
    const int tid = 0;
#endif
    const std::int64_t chunk = (nnz + nt - 1) / nt;
    const std::int64_t lo = std::min<std::int64_t>(nnz, tid * chunk);
    const std::int64_t hi = std::min<std::int64_t>(nnz, lo + chunk);
    // The chunk's leading row may be shared with the previous chunk and
    // its trailing row with the next; interior rows are exclusively owned.
    coo_row_runs(a, lo, hi, x.data(), y.data(), k, Flush::kAtomicAdd,
                 Flush::kStore);
  }
}

void spmm_dia(const Dia& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  const index_t* offsets = a.offsets.data();
  const std::size_t ndiags = a.offsets.size();
  const double* diags = a.data.data();
  const auto rows = static_cast<std::size_t>(a.rows);
  const index_t cols = a.cols;
  const double* xv = x.data();
  double* yv = y.data();
  // Row-major walk: each row takes its diagonals in offset order, the
  // order in which spmv_dia's diagonal sweeps reach that row.
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.rows; ++i)
    panel_row(k, Flush::kStore, yv + static_cast<std::size_t>(i) * k,
              [=](auto&& add) {
                for (std::size_t d = 0; d < ndiags; ++d) {
                  const index_t j = i + offsets[d];
                  if (j >= 0 && j < cols)
                    add(diags[d * rows + static_cast<std::size_t>(i)],
                        xv + static_cast<std::size_t>(j) * k);
                }
              });
}

void spmm_ell(const Ell& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  const index_t* col = a.col.data();
  const double* val = a.data.data();
  const auto rows = static_cast<std::size_t>(a.rows);
  const std::size_t slots = rows * static_cast<std::size_t>(a.width);
  const double* xv = x.data();
  double* yv = y.data();
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.rows; ++i)
    panel_row(k, Flush::kStore, yv + static_cast<std::size_t>(i) * k,
              [=](auto&& add) {
                // Row i's slots, column-major: one per ELL width step.
                for (auto e = static_cast<std::size_t>(i); e < slots;
                     e += rows) {
                  const index_t c = col[e];
                  if (c >= 0) add(val[e], xv + static_cast<std::size_t>(c) * k);
                }
              });
}

void spmm_hyb(const Hyb& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  spmm_ell(a.ell, x, y, k);  // writes y
  // Accumulate overflow on top of the ELL result (serial, like SpMV).
  coo_row_runs(a.coo, 0, a.coo.nnz(), x.data(), y.data(), k, Flush::kUpdate,
               Flush::kUpdate);
}

void spmm_bsr(const Bsr& a, std::span<const double> x, std::span<double> y,
              index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  const std::int64_t* ptr = a.ptr.data();
  const index_t* idx = a.idx.data();
  const double* blocks = a.data.data();
  const index_t cols = a.cols;
  const double* xv = x.data();
  double* yv = y.data();
  // X row c; columns past the logical padding read a zero row, like
  // xl[j] = 0 in spmv_bsr.
  const std::vector<double> zero_row(static_cast<std::size_t>(k), 0.0);
  const double* zero = zero_row.data();
  const auto x_row = [=](index_t c) {
    return c < cols ? xv + static_cast<std::size_t>(c) * k : zero;
  };
#pragma omp parallel for schedule(dynamic, 16)
  for (index_t br = 0; br < a.brows; ++br) {
    const index_t r0 = br * kBsrBlock;
    const std::int64_t lo = ptr[br];
    const std::int64_t hi = ptr[br + 1];
    for (index_t i = 0; i < kBsrBlock && r0 + i < a.rows; ++i)
      // Row i of the block row takes its (block, j) terms in the order
      // spmv_bsr's (block, i, j) walk reaches them.
      panel_row(k, Flush::kStore, yv + static_cast<std::size_t>(r0 + i) * k,
                [=](auto&& add) {
                  for (std::int64_t b = lo; b < hi; ++b) {
                    const index_t c0 = idx[b] * kBsrBlock;
                    const double* blk_row =
                        blocks + (b * kBsrBlock + i) * kBsrBlock;
                    for (index_t j = 0; j < kBsrBlock; ++j)
                      add(blk_row[j], x_row(c0 + j));
                  }
                });
  }
}

void spmm_csr5(const Csr5& a, std::span<const double> x, std::span<double> y,
               index_t k) {
  check_shapes(a.rows, a.cols, x, y, k);
  std::fill(y.begin(), y.end(), 0.0);
  const std::int64_t ntiles = a.num_tiles();
  const std::int64_t nnz = a.nnz();
  const double* xv = x.data();
  const index_t* idx = a.idx.data();
  const double* val = a.val.data();
  const std::int64_t* ptr = a.ptr.data();
  double* yv = y.data();

#pragma omp parallel for schedule(static)
  for (std::int64_t t = 0; t < ntiles; ++t) {
    const std::int64_t lo = t * a.tile;
    const std::int64_t hi = std::min(nnz, lo + a.tile);
    index_t r = a.tile_row[static_cast<std::size_t>(t)];
    for (std::int64_t j = lo; j < hi; ++r) {
      const std::int64_t row_end = std::min(hi, ptr[r + 1]);
      // A row the tile holds whole is stored; a partial row is shared with
      // a neighbouring tile. (A partial row necessarily straddles the tile
      // boundary, so spmv_csr5's acc != 0 shortcut never fires: the
      // atomic add is unconditional there too.)
      const bool owned = lo <= ptr[r] && row_end == ptr[r + 1];
      const Flush flush = owned ? Flush::kStore : Flush::kAtomicAdd;
      panel_row(k, flush, yv + static_cast<std::size_t>(r) * k,
                [=](auto&& add) {
                  for (std::int64_t e = j; e < row_end; ++e)
                    add(val[e], xv + static_cast<std::size_t>(idx[e]) * k);
                });
      j = std::max(j, row_end);
    }
  }
}

void AnyFormatMatrix::spmm(std::span<const double> x, std::span<double> y,
                           index_t k) const {
  obs::Span span(spmm_span_name(format_), &spmm_hist(format_));
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, Coo>) spmm_coo(s, x, y, k);
        else if constexpr (std::is_same_v<T, Csr>) spmm_csr(s, x, y, k);
        else if constexpr (std::is_same_v<T, Dia>) spmm_dia(s, x, y, k);
        else if constexpr (std::is_same_v<T, Ell>) spmm_ell(s, x, y, k);
        else if constexpr (std::is_same_v<T, Hyb>) spmm_hyb(s, x, y, k);
        else if constexpr (std::is_same_v<T, Bsr>) spmm_bsr(s, x, y, k);
        else spmm_csr5(s, x, y, k);
      },
      storage_);
}

}  // namespace dnnspmv
