// The benchmark workloads. Each one generates its inputs from the
// seed, builds and deploys the shared model (timed, several times), runs a
// closed loop for the timed phase, checks every answer, and — in a traced
// run — gathers the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "model.hpp"

namespace perfbench {

/// Threads a workload runs concurrently. OpenMP teams fork inside whoever
/// runs a kernel or forward: the service workers, or in solve-payoff the
/// client itself. So the budget is clients + workers × team, or clients ×
/// team without workers.
struct Budget {
  int clients = 1;
  int workers = 0;
  int omp_team = 1;
  int total() const {
    return workers > 0 ? clients + workers * omp_team : clients * omp_team;
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Everything a run measured.
struct Report {
  std::vector<SetupTimes> setups;
  double throughput_rps = 0.0;
  double peak_rss_mb = 0.0;  // read right after the timed phase
  std::vector<double> latencies_us;  // answered requests or jobs
  Tally tally;
  GeoMean regret;
  std::map<std::string, double> layers;  // traced runs only
  std::vector<std::string> notes;        // extra lines for the log
  bool checks_passed = true;             // internal consistency checks
};

/// `<out_dir>/<kind>-<workload><ext>`: where a run writes its files. Each
/// traced run replaces the previous one's, so repeated runs (a hot-repeat
/// trace is ~90 MB) do not pile up.
std::string out_path(const RunConfig& cfg, const char* kind, const char* ext);

/// The thread budget of `workload`. Throws std::invalid_argument for an
/// unknown workload.
Budget workload_budget(const std::string& workload);

Report run_workload(const RunConfig& cfg, const Budget& budget);

}  // namespace perfbench
