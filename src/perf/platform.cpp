#include "perf/platform.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"
#include "sparse/spmv.hpp"

namespace dnnspmv {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deterministic per-(matrix, platform, format) jitter in
/// [1-noise, 1+noise]: stands in for real measurement variance so labels
/// near format crossovers flip occasionally, as they do in measured data.
double noise_factor(const Csr& a, std::uint64_t seed, int format_id,
                    double noise) {
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  };
  mix(static_cast<std::uint64_t>(a.rows));
  mix(static_cast<std::uint64_t>(a.cols) << 20);
  mix(static_cast<std::uint64_t>(a.nnz()) << 7);
  mix(static_cast<std::uint64_t>(format_id + 1) << 13);
  for (std::int64_t k = 0; k < std::min<std::int64_t>(a.nnz(), 8); ++k)
    mix(static_cast<std::uint64_t>(a.idx[k * std::max<std::int64_t>(
                                       1, a.nnz() / 8)]));
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
  return 1.0 + noise * (2.0 * u - 1.0);
}

/// Shared roofline context derived from one stats pass.
struct CostCtx {
  MatrixStats s;
  double bw = 0.0;          // bytes/second
  double flops = 0.0;       // peak flops/second across cores
  bool x_fits = false;      // does the x vector stay cache-resident?
  double scatter = 0.0;     // fraction of x gathers that miss cache lines
  double row_imb = 1.0;     // static-schedule chunk imbalance (>= 1)
};

/// Makespan inflation of a static row partition into `cores` chunks:
/// max(chunk nnz) / mean(chunk nnz). A purely *spatial* quantity — two
/// matrices with identical scalar statistics can differ here, which is
/// exactly the information the paper's histogram representation preserves
/// and aggregate features lose (§4).
double static_row_imbalance(const Csr& a, int cores) {
  if (a.nnz() == 0 || a.rows == 0 || cores <= 1) return 1.0;
  const index_t chunk_rows = (a.rows + cores - 1) / cores;
  std::int64_t max_chunk = 0;
  for (index_t r0 = 0; r0 < a.rows; r0 += chunk_rows) {
    const index_t r1 = std::min<index_t>(a.rows, r0 + chunk_rows);
    max_chunk = std::max(max_chunk, a.ptr[r1] - a.ptr[r0]);
  }
  const double mean_chunk =
      static_cast<double>(a.nnz()) /
      std::ceil(static_cast<double>(a.rows) / chunk_rows);
  return std::max(1.0, static_cast<double>(max_chunk) / mean_chunk);
}

CostCtx make_ctx(const Csr& a, const MachineParams& p) {
  CostCtx c;
  c.s = compute_stats(a);
  c.bw = p.bandwidth_gbps * 1e9;
  c.flops = p.freq_ghz * 1e9 * p.cores * p.flops_per_cycle;
  const double cache_bytes = p.cache_mb * 1e6;
  c.x_fits = 8.0 * static_cast<double>(a.cols) <= 0.5 * cache_bytes;
  // Mean byte distance between consecutive gathers within a row, vs the
  // 64-byte line.
  const double gap_bytes = c.s.col_gap * static_cast<double>(a.cols) * 8.0;
  c.scatter = std::min(1.0, gap_bytes / 64.0);
  c.row_imb = static_row_imbalance(a, p.cores);
  return c;
}

double roofline(double traffic_bytes, double eff_flops, const CostCtx& c,
                double bw_eff = 1.0, double compute_eff = 1.0) {
  const double t_mem = traffic_bytes / (c.bw * bw_eff);
  const double t_cmp = eff_flops / (c.flops * compute_eff);
  return std::max(t_mem, t_cmp);
}

double x_gather_traffic(const CostCtx& c, double gathers) {
  // A cache-resident x costs nothing after warmup (SpMV is timed over
  // repeated iterations); otherwise each scattered gather pulls a line.
  return c.x_fits ? 0.0 : 8.0 * gathers * c.scatter;
}

// ---------------------------------------------------------------------------
// CPU model (SMATLib set: COO, CSR, DIA, ELL) — paper Tables 1+2 machines.
// ---------------------------------------------------------------------------

class AnalyticCpu final : public Platform {
 public:
  explicit AnalyticCpu(MachineParams p) : p_(std::move(p)) {}

  std::string name() const override { return p_.name; }
  const std::vector<Format>& formats() const override {
    return cpu_formats();
  }

  std::vector<double> spmv_times(const Csr& a) const override {
    const CostCtx c = make_ctx(a, p_);
    const auto rows = static_cast<double>(c.s.rows);
    const auto nnz = static_cast<double>(c.s.nnz);
    std::vector<double> t;
    t.reserve(4);

    // Per-format bandwidth saturation: streaming kernels (DIA, ELL) reach
    // peak bandwidth with few cores thanks to hardware prefetch; gather-
    // heavy kernels (CSR) and reduction-heavy ones (COO) need many cores.
    // This is the main source of *architectural* label divergence between
    // the 24-core Xeon and the 4-core A8 (paper §6 relies on it).
    const auto sat = [&](double cores_needed) {
      return std::min(1.0, static_cast<double>(p_.cores) / cores_needed);
    };

    // COO: 16 B/nnz storage, touched-row y read-modify-write, and a
    // segmented-reduction efficiency hit on multicore.
    {
      const double touched = std::min(rows, nnz);
      const double traffic =
          16.0 * nnz + 16.0 * touched + x_gather_traffic(c, nnz);
      t.push_back(roofline(traffic, 2.0 * nnz, c, 0.75 * sat(10.0),
                           /*compute_eff=*/0.25));
    }
    // CSR: 12 B/nnz + 8 B/row ptr + 8 B/row y. Rows are statically
    // partitioned, so spatially clustered nonzeros inflate the makespan —
    // COO (nnz-partitioned) and DIA (uniform per-row work) are immune.
    // Mild clustering is absorbed by chunk interleaving; past ~1.3x the
    // straggler chunk dominates, so the penalty is thresholded.
    const double imb = 1.0 + 0.9 * std::max(0.0, c.row_imb - 1.3);
    {
      const double traffic =
          12.0 * nnz + 16.0 * rows + x_gather_traffic(c, nnz);
      t.push_back(roofline(traffic, 2.0 * nnz, c, 1.0 * sat(8.0), 0.35) *
                  imb);
    }
    // DIA: streams ndiags dense arrays; x access is contiguous per
    // diagonal (no gather), but every padded slot costs traffic+flops.
    {
      const double padded = static_cast<double>(c.s.ndiags) * rows;
      const bool feasible =
          c.s.nnz > 0 && padded <= kDiaMaxFill * nnz;
      if (!feasible) {
        t.push_back(kInf);
      } else {
        const double xy_pass = c.x_fits ? 1.0 : 2.0;
        const double traffic = 8.0 * padded * xy_pass + 8.0 * rows;
        t.push_back(roofline(traffic, 2.0 * padded, c, 1.1 * sat(3.0), 1.0));
      }
    }
    // ELL: 12 B per padded slot, column-major streaming, vectorizable.
    {
      const double padded = static_cast<double>(c.s.row_nnz_max) * rows;
      const bool feasible = c.s.nnz > 0 && padded <= kEllMaxFill * nnz;
      if (!feasible) {
        t.push_back(kInf);
      } else {
        const double traffic =
            12.0 * padded + 8.0 * rows + x_gather_traffic(c, padded);
        // ELL work per row is uniform (fixed width): immune to nonzero
        // clustering, like DIA.
        t.push_back(roofline(traffic, 2.0 * padded, c, 1.12 * sat(5.0),
                             0.5));
      }
    }
    for (std::size_t i = 0; i < t.size(); ++i)
      if (std::isfinite(t[i]))
        t[i] *= noise_factor(a, p_.noise_seed, static_cast<int>(i), p_.noise);
    return t;
  }

 private:
  MachineParams p_;
};

// ---------------------------------------------------------------------------
// GPU model (cuSPARSE + CSR5 set) — warp-centric effects: coalescing,
// row-imbalance for scalar-row CSR, atomics for COO/HYB tails, and the
// nonzero-balanced execution of CSR5 (paper Table 3).
// ---------------------------------------------------------------------------

class AnalyticGpu final : public Platform {
 public:
  explicit AnalyticGpu(MachineParams p) : p_(std::move(p)) {}

  std::string name() const override { return p_.name; }
  const std::vector<Format>& formats() const override {
    return gpu_formats();
  }

  std::vector<double> spmv_times(const Csr& a) const override {
    const CostCtx c = make_ctx(a, p_);
    const auto rows = static_cast<double>(c.s.rows);
    const auto nnz = static_cast<double>(c.s.nnz);
    // Row-length skew: the dominant effect for one-thread-per-row kernels.
    const double skew = std::min(c.s.max_over_mean, 32.0);
    const double kLaunch = 2e-7;  // event-timed kernels: launch mostly amortized
    std::vector<double> t;
    t.reserve(6);

    // CSR (vector-row kernel): mostly coalesced, but warps stall on the
    // longest row when row lengths are skewed.
    {
      const double traffic =
          12.0 * nnz + 16.0 * rows + x_gather_traffic(c, nnz);
      const double imbalance = 0.9 + 0.1 * skew;
      t.push_back(roofline(traffic, 2.0 * nnz, c, 1.0, 0.5) * imbalance +
                  kLaunch);
    }
    // ELL: fully coalesced column-major streams; pays for padding.
    {
      const double padded = static_cast<double>(c.s.row_nnz_max) * rows;
      const bool feasible = c.s.nnz > 0 && padded <= kEllMaxFill * nnz;
      if (!feasible) {
        t.push_back(kInf);
      } else {
        const double traffic =
            12.0 * padded + 8.0 * rows + x_gather_traffic(c, padded);
        t.push_back(roofline(traffic, 2.0 * padded, c, 1.25, 1.0) + kLaunch);
      }
    }
    // HYB: ELL slab at the 67th-percentile width + atomic COO tail (the
    // split is computed exactly in compute_stats, matching hyb_from_csr).
    {
      const double ell_padded = static_cast<double>(c.s.hyb_width) * rows;
      const double tail = static_cast<double>(c.s.hyb_tail);
      const double traffic = 12.0 * ell_padded + 8.0 * rows +
                             16.0 * tail * 2.2 +  // serialized atomics
                             x_gather_traffic(c, ell_padded + tail);
      // The 1.06 factor is HYB's structural overhead over a pure ELL slab
      // (row-length lookup + tail bookkeeping) — without it HYB and ELL
      // tie exactly on tail-free matrices and noise picks the winner.
      t.push_back(roofline(traffic, 2.0 * (ell_padded + tail), c, 1.12, 0.9) *
                      1.06 +
                  kLaunch);
    }
    // BSR 4×4: per-block index amortization and ×4 x-reuse; pays for
    // zero-fill inside sparse blocks.
    {
      const double blocks = static_cast<double>(c.s.bsr_blocks);
      const double traffic = 132.0 * blocks + 8.0 * rows +
                             x_gather_traffic(c, 4.0 * blocks);
      t.push_back(roofline(traffic, 32.0 * blocks, c, 1.3, 1.0) + kLaunch);
    }
    // CSR5-lite: nonzero-balanced tiles — immune to skew, but pays a
    // segmented-sum overhead per nonzero.
    {
      const double traffic =
          12.0 * nnz + 16.0 * rows + x_gather_traffic(c, nnz);
      t.push_back(roofline(traffic * 1.25, 2.4 * nnz, c, 1.1, 0.9) +
                  kLaunch);
    }
    // COO: one atomic per nonzero plus a y-zeroing pre-kernel — never
    // competitive (paper Table 3: COO never wins on the GPU).
    {
      const double traffic =
          16.0 * nnz * 3.0 + 16.0 * rows + x_gather_traffic(c, nnz);
      t.push_back(roofline(traffic, 2.0 * nnz, c, 0.8, 0.3) +
                  2.5 * kLaunch);
    }
    for (std::size_t i = 0; i < t.size(); ++i)
      if (std::isfinite(t[i]))
        t[i] *= noise_factor(a, p_.noise_seed, static_cast<int>(i), p_.noise);
    return t;
  }

 private:
  MachineParams p_;
};

// ---------------------------------------------------------------------------
// Measured platform: the host machine running this library's kernels.
// ---------------------------------------------------------------------------

class Measured final : public Platform {
 public:
  Measured(std::vector<Format> formats, int reps)
      : formats_(std::move(formats)), reps_(reps) {
    DNNSPMV_CHECK(!formats_.empty() && reps_ >= 1);
  }

  std::string name() const override { return "host-measured"; }
  const std::vector<Format>& formats() const override { return formats_; }

  std::vector<double> spmv_times(const Csr& a) const override {
    std::vector<double> times;
    times.reserve(formats_.size());
    std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
    std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
    for (Format f : formats_) {
      auto m = AnyFormatMatrix::convert(a, f);
      if (!m) {
        times.push_back(kInf);
        continue;
      }
      times.push_back(time_kernel([&] { m->spmv(x, y); }, 1, reps_));
    }
    return times;
  }

 private:
  std::vector<Format> formats_;
  int reps_;
};

}  // namespace

MachineParams intel_xeon_params() {
  return {"intel-xeon-e5", 103.0, 2.4, 24, 30.0, 8.0, 11, 0.04};
}

MachineParams amd_a8_params() {
  return {"amd-a8-7600", 25.6, 3.1, 4, 4.0, 8.0, 23, 0.04};
}

MachineParams titan_x_params() {
  return {"nvidia-titan-x", 168.0, 1.08, 3072, 3.0, 2.0, 37, 0.05};
}

std::unique_ptr<Platform> make_analytic_cpu(const MachineParams& p) {
  return std::make_unique<AnalyticCpu>(p);
}

std::unique_ptr<Platform> make_analytic_gpu(const MachineParams& p) {
  return std::make_unique<AnalyticGpu>(p);
}

std::unique_ptr<Platform> make_measured(std::vector<Format> formats,
                                        int reps) {
  return std::make_unique<Measured>(std::move(formats), reps);
}

std::vector<double> measure_format_times(const Csr& a,
                                         const std::vector<Format>& formats,
                                         int reps) {
  return make_measured(formats, reps)->spmv_times(a);
}

std::vector<double> measure_spmm_times(const Csr& a,
                                       const std::vector<Format>& formats,
                                       index_t k, int reps) {
  DNNSPMV_CHECK(!formats.empty() && k >= 1 && reps >= 1);
  std::vector<double> times;
  times.reserve(formats.size());
  std::vector<double> x(static_cast<std::size_t>(a.cols) * k, 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.rows) * k, 0.0);
  for (Format f : formats) {
    auto m = AnyFormatMatrix::convert(a, f);
    if (!m) {
      times.push_back(kInf);
      continue;
    }
    times.push_back(time_kernel([&] { m->spmm(x, y, k); }, 1, reps));
  }
  return times;
}

}  // namespace dnnspmv
