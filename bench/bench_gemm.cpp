// GEMM micro-benchmark: packed/register-blocked kernel (tensor/gemm.cpp)
// vs the seed's naive blocked loop, single thread, on the MergeNet layer
// shapes plus square sweeps, with an informational int8 section comparing
// the quantized qgemm_u7 kernel against packed fp32 on the same shapes.
// Emits BENCH_gemm.json with GFLOP/s per shape so the bench trajectory has
// machine-readable data points. A training section (informational, no
// gate) times the GEMMs of one conv training step at the selector's shapes.
//
// The gate: on every MergeNet shape the packed kernel runs at least 3× the
// seed kernel. Each rep times the two back to back, in alternating order,
// and a shape's speedup is the median of its per-rep ratios, so the seed
// kernel's swings between runs on a shared host cancel within a rep.
//
// Flags: --reps <r> (default 7), --json <path> (default BENCH_gemm.json).
#include <cstdio>
#include <cstdint>
#include <vector>

#include <omp.h>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "tensor/gemm.hpp"

using namespace dnnspmv;
using namespace dnnspmv::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 7));
  const std::string json_path = cli.get_string("json", "BENCH_gemm.json");
  cli.check_unused();

  std::vector<std::array<std::int64_t, 3>> shapes = merge_net_gemm_shapes();
  shapes.push_back({128, 128, 128});
  shapes.push_back({256, 256, 256});
  shapes.push_back({512, 512, 512});
  shapes.push_back({96, 4096, 192});

  std::printf("=== packed GEMM vs seed kernel (single thread) ===\n\n");
  std::printf("  %6s %6s %6s %12s %12s %9s\n", "m", "n", "k", "seed GF/s",
              "packed GF/s", "speedup");
  const std::vector<GemmShapeResult> results =
      bench_gemm_shapes(shapes, reps);
  double min_speedup_merge = 1e30;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GemmShapeResult& r = results[i];
    std::printf("  %6lld %6lld %6lld %12.2f %12.2f %8.2fx\n",
                static_cast<long long>(r.m), static_cast<long long>(r.n),
                static_cast<long long>(r.k), r.seed_gflops, r.packed_gflops,
                r.speedup);
    if (i < merge_net_gemm_shapes().size())
      min_speedup_merge = std::min(min_speedup_merge, r.speedup);
  }

  // Int8 section (informational, no gate): the quantized qgemm_u7 kernel
  // (DESIGN.md §13) on the same shapes plus the n == 1 cold-miss head
  // shape, which exercises the GEMV twin packing. "vs fp32" is the packed
  // fp32 kernel's time on the same shape divided by the int8 time.
  std::vector<std::array<std::int64_t, 3>> qshapes = shapes;
  qshapes.push_back({96, 1, 384});  // dense head at serve batch 1
  std::printf("\n=== int8 qgemm vs packed fp32 (informational) ===\n\n");
  std::printf("  %6s %6s %6s %12s %12s %9s\n", "m", "n", "k", "fp32 GF/s",
              "int8 GOP/s", "vs fp32");
  struct QShapeResult {
    std::int64_t m, n, k;
    double fp32_gflops, int8_gops, speedup;
  };
  std::vector<QShapeResult> qresults;
  Rng rng(99);
  for (const auto& [m, n, k] : qshapes) {
    std::vector<std::int8_t> w(static_cast<std::size_t>(m * k));
    std::vector<std::uint8_t> x(static_cast<std::size_t>(k * n));
    std::vector<float> scale(static_cast<std::size_t>(m));
    std::vector<float> bias(static_cast<std::size_t>(m));
    std::vector<float> cq(static_cast<std::size_t>(m * n));
    std::vector<float> af(static_cast<std::size_t>(m * k));
    std::vector<float> bf(static_cast<std::size_t>(k * n));
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 127));
    for (std::int64_t i = 0; i < m; ++i) {
      scale[i] = static_cast<float>(rng.uniform(1e-3, 1e-2));
      bias[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    for (auto& v : af) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : bf) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const QGemmWeights qw = qgemm_pack_weights(m, k, w.data());
    const double ops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
    const double t_q = time_kernel(
        [&] {
          qgemm_u7(qw, n, x.data(), n, 1, scale.data(), bias.data(), true,
                   cq.data(), n);
        },
        1, reps);
    const double t_f = time_kernel(
        [&] { sgemm(m, n, k, 1.0f, af.data(), bf.data(), 0.0f, cq.data()); },
        1, reps);
    qresults.push_back({m, n, k, ops / t_f * 1e-9, ops / t_q * 1e-9,
                        t_f / t_q});
    std::printf("  %6lld %6lld %6lld %12.2f %12.2f %8.2fx\n",
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), ops / t_f * 1e-9, ops / t_q * 1e-9,
                t_f / t_q);
  }

  // Training section (informational, no gate): the conv GEMMs of one
  // training step at batch 32 on the 32×16 representation, single thread:
  // conv1's weight gradient and forward, conv2's weight and input
  // gradients. The weight gradients accumulate (beta 1) as Conv2D's do.
  struct TrainShape {
    const char* name;
    std::int64_t m, n, k;
    double us, gflops;
  };
  std::vector<TrainShape> tshapes;
  std::printf("\n=== training-step GEMMs (informational) ===\n\n");
  std::printf("  %-15s %6s %6s %6s %10s %10s\n", "kernel", "m", "n", "k",
              "us/call", "GF/s");
  {
    const int prev_threads = omp_get_max_threads();
    omp_set_num_threads(1);
    const auto time_shape = [&](const char* name, std::int64_t m,
                                std::int64_t n, std::int64_t k,
                                const auto& gemm) {
      std::vector<float> a(static_cast<std::size_t>(m * k));
      std::vector<float> b(static_cast<std::size_t>(k * n));
      std::vector<float> c(static_cast<std::size_t>(m * n));
      std::vector<float> bias(static_cast<std::size_t>(m));
      for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      const double sec = time_kernel(
          [&] { gemm(m, n, k, a.data(), b.data(), c.data(), bias.data()); },
          1, reps);
      const double flops = 2.0 * static_cast<double>(m) *
                           static_cast<double>(n) * static_cast<double>(k);
      tshapes.push_back({name, m, n, k, sec * 1e6, flops / sec * 1e-9});
      std::printf("  %-15s %6lld %6lld %6lld %10.1f %10.2f\n", name,
                  static_cast<long long>(m), static_cast<long long>(n),
                  static_cast<long long>(k), sec * 1e6, flops / sec * 1e-9);
    };
    const auto weight_grad = [](std::int64_t m, std::int64_t n, std::int64_t k,
                                const float* a, const float* b, float* c,
                                const float*) {
      sgemm_bt(m, n, k, 1.0f, a, b, 1.0f, c);
    };
    const auto input_grad = [](std::int64_t m, std::int64_t n, std::int64_t k,
                               const float* a, const float* b, float* c,
                               const float*) {
      sgemm_at(m, n, k, 1.0f, a, b, 0.0f, c);
    };
    const auto forward = [](std::int64_t m, std::int64_t n, std::int64_t k,
                            const float* a, const float* b, float* c,
                            const float* bias) {
      sgemm_row_bias(m, n, k, 1.0f, a, b, 0.0f, c, bias);
    };
    time_shape("sgemm_bt", 12, 9, 16384, weight_grad);    // conv1 dW
    time_shape("sgemm_bt", 24, 108, 1024, weight_grad);   // conv2 dW
    time_shape("sgemm_at", 108, 1024, 24, input_grad);    // conv2 dX
    time_shape("sgemm_row_bias", 12, 16384, 9, forward);  // conv1 forward
    omp_set_num_threads(prev_threads);
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f) {
    std::fprintf(f, "{\n  \"bench\": \"gemm\",\n  \"shapes\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const GemmShapeResult& r = results[i];
      std::fprintf(f,
                   "    {\"m\": %lld, \"n\": %lld, \"k\": %lld, "
                   "\"seed_gflops\": %.3f, \"packed_gflops\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   static_cast<long long>(r.m), static_cast<long long>(r.n),
                   static_cast<long long>(r.k), r.seed_gflops,
                   r.packed_gflops, r.speedup,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"int8_shapes\": [\n");
    for (std::size_t i = 0; i < qresults.size(); ++i) {
      const QShapeResult& r = qresults[i];
      std::fprintf(f,
                   "    {\"m\": %lld, \"n\": %lld, \"k\": %lld, "
                   "\"fp32_gflops\": %.3f, \"int8_gops\": %.3f, "
                   "\"vs_fp32\": %.3f}%s\n",
                   static_cast<long long>(r.m), static_cast<long long>(r.n),
                   static_cast<long long>(r.k), r.fp32_gflops, r.int8_gops,
                   r.speedup, i + 1 < qresults.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"training_shapes\": [\n");
    for (std::size_t i = 0; i < tshapes.size(); ++i) {
      const TrainShape& t = tshapes[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"m\": %lld, \"n\": %lld, "
                   "\"k\": %lld, \"us_per_call\": %.2f, "
                   "\"gflops\": %.3f}%s\n",
                   t.name, static_cast<long long>(t.m),
                   static_cast<long long>(t.n), static_cast<long long>(t.k),
                   t.us, t.gflops, i + 1 < tshapes.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"min_mergenet_speedup\": %.3f\n}\n",
                 min_speedup_merge);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // Acceptance: ≥3× single-thread speedup (median paired ratio) on every
  // MergeNet shape.
  std::printf("min MergeNet-shape speedup: %.2fx (target 3x): %s\n",
              min_speedup_merge,
              min_speedup_merge >= 3.0 ? "PASS" : "FAIL");
  return min_speedup_merge >= 3.0 ? 0 : 1;
}
