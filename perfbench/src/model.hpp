// The shared model every workload deploys, and the timed set-up around it.
#pragma once

#include <omp.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/selector.hpp"
#include "inputs.hpp"
#include "trace.hpp"

namespace perfbench {

/// K the SpMM head is trained and scored at.
inline constexpr dnnspmv::index_t kSpmmCols = 32;

/// One set-up, split by stage (seconds).
struct SetupTimes {
  double labels_s = 0.0;  // analytic SpMV labels + measured SpMM labels
  double fit_s = 0.0;     // fit + fit_spmm, int8 calibration included
  double load_s = 0.0;    // weight-file save + load round trip
  double deploy_s = 0.0;  // registry + service/router + warm-up
  double total() const { return labels_s + fit_s + load_s + deploy_s; }
};

/// Builds the shared model: the SpMV head on analytic Xeon labels (the
/// labels every serve bench trains on), the SpMM head on host-measured K=32
/// labels over the DLMC-style slice, int8-quantized, then saved to and
/// loaded back from `weight_path`. Runs with an OpenMP team of 1 so every
/// workload builds the same model the same way.
dnnspmv::FormatSelector build_model(const ModelInputs& in, std::uint64_t seed,
                                    const std::string& weight_path,
                                    SetupTimes& t);

/// Set-up repeated `reps` times; the last deployment is kept in `out`.
/// `deploy(model)` builds the workload's registry and service (or router)
/// and warms it up; it runs with the workload's OpenMP team.
template <class Deployment, class Deploy>
std::vector<SetupTimes> repeated_setup(const ModelInputs& in,
                                       std::uint64_t seed,
                                       const std::string& weight_path,
                                       int reps, int omp_team,
                                       std::unique_ptr<Deployment>& out,
                                       Deploy&& deploy) {
  std::vector<SetupTimes> times;
  for (int r = 0; r < reps; ++r) {
    out.reset();  // the previous deployment's shutdown is not set-up
    SetupTimes t;
    dnnspmv::FormatSelector model = build_model(in, seed, weight_path, t);
    omp_set_num_threads(omp_team);
    const auto d0 = Clock::now();
    out = deploy(std::move(model));
    t.deploy_s = micros(d0, Clock::now()) * 1e-6;
    times.push_back(t);
  }
  return times;
}

}  // namespace perfbench
