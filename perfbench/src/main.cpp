// perfbench — the dnnspmv repository benchmark driver.
//
//   perfbench --workload <hot-repeat|solve-payoff>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--out-dir <dir>]
//
// Prints the host and configuration block, the run's metrics by name with
// units, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The OpenMP team is part of each workload's thread budget;
// the driver re-executes itself once with OMP_NUM_THREADS set to it, since
// OpenMP reads the variable only at start-up.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "obs/export.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

// Host CPU time stolen by the hypervisor so far (USER_HZ ticks, all CPUs):
// the 8th field of /proc/stat's "cpu" line. -1 when unreadable.
long long steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return -1;
  long long v[8] = {};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : -1;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i ? ", \"" : "\"";
    out += metrics[i].name;
    out += "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Units of the per-layer metrics, by name suffix.
const char* layer_unit(const std::string& name) {
  auto ends = [&](const char* s) {
    const std::size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_s")) return "s";
  if (ends("_gbps_computed")) return "GB/s";
  if (ends("_iters")) return "iterations";
  if (name == "serve.model_swaps" || name == "core.versions_published")
    return "count";
  if (name == "serve.batch_mean") return "requests";
  return "ratio";
}

int run(int argc, char** argv) {
  dnnspmv::Cli cli(argc, argv);
  RunConfig cfg;
  cfg.workload = cli.get_string("workload", "");
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.seconds = cli.get_double("seconds", 10.0);
  cfg.trace = cli.get_int("trace", 0) != 0;
  cfg.out_dir = cli.get_string("out-dir", ".");
  const std::string git_sha = cli.get_string("git-sha", "unknown");
  cli.check_unused();
  if (!(cfg.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const Budget budget = workload_budget(cfg.workload);
  const std::string team = std::to_string(budget.omp_team);
  const char* env_team = std::getenv("OMP_NUM_THREADS");
  if (env_team == nullptr || team != env_team) {
    setenv("OMP_NUM_THREADS", team.c_str(), 1);
    execv("/proc/self/exe", argv);
    std::perror("perfbench: re-exec with OMP_NUM_THREADS");
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf(
      "config: {\"nproc\": %d, \"isa\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"seed\": %llu, "
      "\"workload\": \"%s\", \"budget\": {\"clients\": %d, \"workers\": %d, "
      "\"omp_team\": %d, \"total\": %d}}\n",
      nproc, PERFBENCH_ISA, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      git_sha.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.workload.c_str(), budget.clients, budget.workers, budget.omp_team,
      budget.total());
  if (budget.total() > nproc)
    std::printf("note: thread budget %d exceeds nproc %d\n", budget.total(),
                nproc);
  std::fflush(stdout);

  const long long steal0 = steal_ticks();
  const auto wall0 = std::chrono::steady_clock::now();
  const Report r = run_workload(cfg, budget);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
  const long long steal1 = steal_ticks();
  if (steal0 >= 0 && steal1 >= 0)
    std::printf("note: hypervisor steal during the run: %.1f%% of %d CPUs\n",
                100.0 * static_cast<double>(steal1 - steal0) /
                    static_cast<double>(sysconf(_SC_CLK_TCK)) /
                    (wall_s * nproc),
                nproc);

  std::vector<double> setup_totals;
  for (const SetupTimes& t : r.setups) setup_totals.push_back(t.total());
  std::printf("setup_s per repetition:");
  for (double t : setup_totals) std::printf(" %.3f", t);
  std::printf("\n");
  for (const std::string& note : r.notes)
    std::printf("note: %s\n", note.c_str());

  const Percentile p50 = percentile(r.latencies_us, r.tally.failed, 0.50, 0);
  const Percentile p99 = percentile(r.latencies_us, r.tally.failed, 0.99);
  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_totals), "s"},
      {"throughput_rps", r.throughput_rps, "req/s"},
      {"p50_us", p50.value, "us"},
      {"p99_us", p99.value, "us"},
      {"regret", r.regret.value(), "ratio"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
  std::printf("end-to-end:\n");
  for (const Metric& m : e2e)
    std::printf("  %-16s %14.4f %s\n", m.name, m.value, m.unit);
  std::printf("  %-16s %14.4f ratio (%lld failed of %lld attempted)\n",
              "failed_frac", r.tally.failed_frac(),
              static_cast<long long>(r.tally.failed),
              static_cast<long long>(r.tally.attempted));
  std::printf("  p99 sample: %lld samples, %lld beyond the p99\n",
              static_cast<long long>(p99.samples),
              static_cast<long long>(p99.beyond));

  bool correct = r.tally.failed == 0 && r.checks_passed;
  std::vector<Metric> printed = e2e;
  if (cfg.trace) {
    printed.clear();
    std::printf("per-layer:\n");
    for (const auto& [name, value] : r.layers) {
      printed.push_back({name.c_str(), value, layer_unit(name)});
      std::printf("  %-30s %14.4f %s\n", name.c_str(), value,
                  layer_unit(name));
    }
    const std::string path = out_path(cfg, "metrics", ".json");
    const bool wrote = dnnspmv::obs::write_text_file(
        path, dnnspmv::obs::metrics_to_json(
                  dnnspmv::obs::MetricsRegistry::global().snapshot()));
    std::printf("note: obs registry export: %s\n",
                wrote ? path.c_str() : "FAILED");
    correct = correct && wrote;
  } else if (!p99.reportable || !p50.reportable) {
    std::fprintf(stderr, "perfbench: too few answered samples for a p99\n");
    return 1;
  }
  for (const Metric& m : printed)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name);
      return 1;
    }
  print_result(correct, r.tally, printed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
