// Platforms: things that can tell you how fast SpMV runs per format.
//
// The paper labels matrices by timing SpMV on three testbeds (Table 1).
// Offline we provide two Platform kinds:
//
//  * MeasuredPlatform — times this library's real OpenMP kernels on the
//    host machine. Ground truth, but slow to label a large corpus with.
//  * Analytic platforms — calibrated roofline-style cost models
//    parameterized by Table 1's machine descriptors. They reproduce the
//    property the paper's experiments need: *different machines produce
//    different label distributions for the same corpus* (the basis of the
//    §6 transfer-learning study), at zero measurement cost.
//
// Analytic times carry a small deterministic pseudo-noise term derived from
// the matrix structure, mimicking real measurement jitter so labels near
// format crossovers are noisy exactly as in the paper's data.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/format.hpp"
#include "sparse/stats.hpp"

namespace dnnspmv {

class Platform {
 public:
  virtual ~Platform() = default;

  virtual std::string name() const = 0;

  /// Candidate formats on this platform, in label order.
  virtual const std::vector<Format>& formats() const = 0;

  /// Seconds per SpMV for each candidate format (+inf where the format
  /// refuses the matrix, e.g. DIA padding blow-up).
  virtual std::vector<double> spmv_times(const Csr& a) const = 0;
};

/// Machine descriptor (paper Table 1).
struct MachineParams {
  std::string name;
  double bandwidth_gbps = 100.0;   // sustained memory bandwidth
  double freq_ghz = 2.4;
  int cores = 24;
  double cache_mb = 30.0;          // last-level cache
  double flops_per_cycle = 8.0;    // per core, double precision
  std::uint64_t noise_seed = 1;
  double noise = 0.04;             // relative measurement jitter
};

/// The three testbeds of Table 1.
MachineParams intel_xeon_params();   // Xeon E5-4603-like
MachineParams amd_a8_params();       // A8-7600-like
MachineParams titan_x_params();      // GeForce TITAN X-like

/// CPU cost model over the SMATLib format set {COO, CSR, DIA, ELL}.
std::unique_ptr<Platform> make_analytic_cpu(const MachineParams& p);

/// GPU cost model over the cuSPARSE+CSR5 set {CSR, ELL, HYB, BSR, CSR5, COO}.
std::unique_ptr<Platform> make_analytic_gpu(const MachineParams& p);

/// Times the library's real kernels on the host over `formats`.
std::unique_ptr<Platform> make_measured(std::vector<Format> formats,
                                        int reps = 5);

/// Seconds per SpMV for each format in `formats` order, measured on the
/// host's real kernels (+inf where the format refuses `a`):
/// make_measured(formats, reps)->spmv_times(a). The online loop's default
/// feedback probe, so feedback labels and offline measured labels share
/// one code path.
std::vector<double> measure_format_times(const Csr& a,
                                         const std::vector<Format>& formats,
                                         int reps = 3);

/// Seconds per SpMM (Y[rows×k] = A·X) for each format, measured on the
/// host's real kernels (+inf where conversion refuses the matrix). SpMM has
/// no analytic model: the op exists to be *measured*, because its winners
/// diverge from the SpMV cost models' (DESIGN.md §14).
std::vector<double> measure_spmm_times(const Csr& a,
                                       const std::vector<Format>& formats,
                                       index_t k, int reps = 5);

}  // namespace dnnspmv
