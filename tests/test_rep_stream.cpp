// StreamingRepBuilder held against the exact builders (its reference
// oracle), plus the serve-side RepBufferPool and the rep_build metric:
//  * bitwise equality with make_inputs whenever sampling is off or the
//    matrix fits the sample budget (all three RepModes);
//  * deterministic same-seed sampling;
//  * bounded deviation of sampled histograms from exact ones;
//  * SIMD and scalar binning agree bitwise;
//  * arena-backed steady state stops allocating after the first build;
//  * selection parity end to end: a trained selector picks (almost) the
//    same formats from sampled representations as from exact ones;
//  * the service recycles input buffers, served or failed, and reports
//    serve<N>.rep_build_us.
#include "core/rep_stream.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "core/selector.hpp"
#include "gen/corpus.hpp"
#include "gen/generators.hpp"
#include "serve/fault.hpp"
#include "serve/rep_pool.hpp"
#include "serve/service.hpp"

namespace dnnspmv {
namespace {

// Bitwise tensor-set equality (shape + exact float bit patterns).
void expect_bitwise_equal(const std::vector<Tensor>& a,
                          const std::vector<Tensor>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].shape(), b[i].shape()) << what << " source " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(),
                          static_cast<std::size_t>(a[i].size()) *
                              sizeof(float)),
              0)
        << what << " source " << i << " differs bitwise";
  }
}

std::vector<Csr> small_zoo() {
  Rng rng(77);
  std::vector<Csr> zoo;
  zoo.push_back(gen_banded(64, 64, 3, 1.0, rng));
  zoo.push_back(gen_multidiag(96, 96, 5, 0.8, rng));
  zoo.push_back(gen_powerlaw(128, 96, 4.0, 2.1, rng));
  zoo.push_back(gen_uniform_rows(80, 120, 6, 2, rng));
  zoo.push_back(gen_hypersparse(200, 200, 37, rng));
  zoo.push_back(csr_from_triplets(8, 8, {}));  // empty matrix edge
  return zoo;
}

const RepMode kAllModes[] = {RepMode::kBinary, RepMode::kBinaryDensity,
                             RepMode::kHistogram};

TEST(RepStream, BitwiseEqualsExactBuildersAllModes) {
  // Every small matrix fits the default budget, so the streaming build
  // must reproduce make_inputs exactly — not approximately.
  for (const Csr& a : small_zoo()) {
    for (RepMode mode : kAllModes) {
      const StreamingRepBuilder b({mode, 16, 8});
      ASSERT_FALSE(b.will_sample(a.nnz()));
      expect_bitwise_equal(b.build(a), make_inputs(a, mode, 16, 8),
                           rep_mode_name(mode));
    }
  }
}

TEST(RepStream, SamplingDisabledIsExactOnLargeMatrices) {
  Rng rng(5);
  const Csr a = gen_uniform_rows(2048, 2048, 32, 4, rng);  // ~64k nnz
  for (RepMode mode : kAllModes) {
    const StreamingRepBuilder b({mode, 32, 16, /*sample_nnz=*/0});
    ASSERT_FALSE(b.will_sample(a.nnz()));
    expect_bitwise_equal(b.build(a), make_inputs(a, mode, 32, 16),
                         rep_mode_name(mode));
  }
}

TEST(RepStream, SameSeedSampledBuildIsDeterministic) {
  Rng rng(9);
  const Csr a = gen_powerlaw(4096, 4096, 16.0, 2.0, rng);
  const StreamingRepBuilder b({RepMode::kHistogram, 32, 16, 1 << 12});
  ASSERT_TRUE(b.will_sample(a.nnz()));
  expect_bitwise_equal(b.build(a), b.build(a), "repeat build");
  // The seed is a pure function of the structural identity, so a separate
  // builder instance samples identically (train/serve bit-identity).
  const StreamingRepBuilder b2({RepMode::kHistogram, 32, 16, 1 << 12});
  expect_bitwise_equal(b.build(a), b2.build(a), "separate builder");
}

TEST(RepStream, SampledHistogramDeviationBounded) {
  // A 1/16 sample of a large matrix must land close to the exact
  // histogram (cells are density-scaled into [0,1]; observed deviation at
  // this fraction is worst ~0.26 / mean ~0.04, bounds leave ~50% slack).
  Rng rng(13);
  const Csr dense = gen_uniform_rows(2048, 2048, 32, 4, rng);
  const Csr skewed = gen_powerlaw(4096, 4096, 24.0, 1.9, rng);
  for (const Csr* a : {&dense, &skewed}) {
    const StreamingRepBuilder exact({RepMode::kHistogram, 32, 16, 0});
    const StreamingRepBuilder sampled({RepMode::kHistogram, 32, 16,
                                       a->nnz() / 16});
    ASSERT_TRUE(sampled.will_sample(a->nnz()));
    const auto e = exact.build(*a);
    const auto s = sampled.build(*a);
    double total = 0.0, worst = 0.0;
    std::int64_t n = 0;
    for (std::size_t i = 0; i < e.size(); ++i) {
      for (std::int64_t j = 0; j < e[i].size(); ++j) {
        const double d = std::abs(double(e[i][j]) - double(s[i][j]));
        total += d;
        worst = std::max(worst, d);
        ++n;
      }
    }
    EXPECT_LT(worst, 0.35);
    EXPECT_LT(total / static_cast<double>(n), 0.06);
  }
}

TEST(RepStream, SimdMatchesScalarBitwise) {
  Rng rng(21);
  const Csr wide = gen_uniform_rows(1500, 3000, 24, 4, rng);
  const Csr band = gen_banded(2500, 2500, 9, 0.9, rng);
  for (const Csr* a : {&wide, &band}) {
    for (RepMode mode : kAllModes) {
      for (std::int64_t budget : {std::int64_t{0}, std::int64_t{1} << 12}) {
        RepStreamOptions simd_on{mode, 32, 16, budget, /*use_simd=*/true};
        RepStreamOptions simd_off = simd_on;
        simd_off.use_simd = false;
        expect_bitwise_equal(StreamingRepBuilder(simd_on).build(*a),
                             StreamingRepBuilder(simd_off).build(*a),
                             rep_mode_name(mode) + " budget " +
                                 std::to_string(budget));
      }
    }
  }
}

TEST(RepStream, ArenaSteadyStateStopsGrowing) {
  Rng rng(31);
  const Csr a = gen_multidiag(512, 512, 7, 0.9, rng);
  const Csr b = gen_powerlaw(640, 640, 8.0, 2.2, rng);
  const StreamingRepBuilder builder({RepMode::kHistogram, 32, 16});
  TensorArena arena;
  std::vector<Tensor> out;
  builder.build_into(a, arena, out);
  builder.build_into(b, arena, out);
  const std::size_t warm = arena.bytes_held();
  ASSERT_GT(warm, 0u);
  const float* p0 = out[0].data();
  const float* p1 = out[1].data();
  for (int i = 0; i < 10; ++i)
    builder.build_into(i % 2 ? a : b, arena, out);
  EXPECT_EQ(arena.bytes_held(), warm)
      << "warm builds must not grow the arena";
  EXPECT_EQ(out[0].data(), p0) << "warm builds must reuse output storage";
  EXPECT_EQ(out[1].data(), p1);
}

TEST(RepStream, TrainAndServeRepresentationsMatch) {
  // build_dataset (train time) and the selector's rep_builder (serve time)
  // must produce the same tensors for the same matrix and knobs.
  CorpusSpec spec;
  spec.count = 12;
  spec.min_dim = 48;
  spec.max_dim = 160;
  spec.seed = 3;
  const auto corpus = build_corpus(spec);
  const auto platform = make_analytic_cpu(intel_xeon_params());
  const auto labeled = collect_labels(corpus, *platform);
  const Dataset ds = build_dataset(labeled, platform->formats(),
                                   RepMode::kHistogram, 16, 8, 1 << 10);
  const StreamingRepBuilder serve_side(
      {RepMode::kHistogram, 16, 8, 1 << 10});
  for (std::size_t i = 0; i < labeled.size(); ++i)
    expect_bitwise_equal(ds.samples[i].inputs,
                         serve_side.build(*labeled[i].matrix),
                         "corpus matrix " + std::to_string(i));
}

TEST(RepStream, SelectionParityBetweenSampledAndExactInputs) {
  // End to end: train a selector, then feed it exact and sampled
  // representations of matrices big enough to trigger sampling. The picks
  // must agree almost everywhere (ISSUE gate: <= 1pt accuracy delta).
  CorpusSpec spec;
  spec.count = 100;
  spec.min_dim = 48;
  spec.max_dim = 192;
  spec.seed = 11;
  const auto corpus = build_corpus(spec);
  const auto platform = make_analytic_cpu(intel_xeon_params());
  const auto labeled = collect_labels(corpus, *platform);

  SelectorOptions opts;
  opts.mode = RepMode::kHistogram;
  opts.rep_rows = 16;
  opts.rep_bins = 8;
  opts.train.epochs = 8;
  opts.train.batch = 16;
  opts.train.lr = 2e-3;
  FormatSelector sel(opts);
  sel.fit(labeled, platform->formats());

  const StreamingRepBuilder exact({RepMode::kHistogram, 16, 8, 0});
  const StreamingRepBuilder sampled({RepMode::kHistogram, 16, 8, 1 << 14});
  Rng rng(47);
  int agree = 0, total = 0;
  for (int i = 0; i < 24; ++i) {
    const Csr a = i % 2 ? gen_powerlaw(2048, 2048, 20.0, 2.0 + 0.01 * i, rng)
                        : gen_uniform_rows(1600 + 32 * i, 1600, 24, 4, rng);
    ASSERT_TRUE(sampled.will_sample(a.nnz()));
    const auto pe = sel.predict_prepared({exact.build(a)})[0];
    const auto ps = sel.predict_prepared({sampled.build(a)})[0];
    agree += pe == ps;
    ++total;
  }
  // <= 1 disagreement in 24 keeps the accuracy delta within a point on
  // any split where the exact pick was right.
  EXPECT_GE(agree, total - 1)
      << "sampled representations flipped " << (total - agree) << "/"
      << total << " predictions";
}

TEST(RepPool, RecyclesUpToCapacity) {
  RepBufferPool pool(2);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.acquire().empty());  // dry pool: fresh empty set

  std::vector<Tensor> bufs;
  bufs.emplace_back(std::vector<std::int64_t>{4, 4});
  const float* data = bufs[0].data();
  pool.release(std::move(bufs));
  EXPECT_EQ(pool.size(), 1u);

  std::vector<Tensor> back = pool.acquire();
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].data(), data) << "acquire must hand back the same "
                                     "storage that was released";
  EXPECT_EQ(pool.size(), 0u);

  for (int i = 0; i < 5; ++i) {
    std::vector<Tensor> v;
    v.emplace_back(std::vector<std::int64_t>{2, 2});
    pool.release(std::move(v));
  }
  EXPECT_EQ(pool.size(), 2u) << "cap must bound pooled sets";
  pool.release({});  // empty release is a no-op
  EXPECT_EQ(pool.size(), 2u);
}

// One small trained selector (and its corpus) shared by the service tests.
struct PoolPipeline {
  std::vector<CorpusEntry> corpus;
  FormatSelector selector;

  PoolPipeline() {
    CorpusSpec spec;
    spec.count = 40;
    spec.min_dim = 48;
    spec.max_dim = 128;
    spec.seed = 23;
    corpus = build_corpus(spec);
    const auto platform = make_analytic_cpu(intel_xeon_params());
    const auto labeled = collect_labels(corpus, *platform);
    SelectorOptions opts;
    opts.mode = RepMode::kHistogram;
    opts.rep_rows = 16;
    opts.rep_bins = 8;
    opts.train.epochs = 4;
    opts.train.batch = 16;
    selector = FormatSelector(opts);
    selector.fit(labeled, platform->formats());
  }
};

const PoolPipeline& pool_pipeline() {
  static const PoolPipeline p;
  return p;
}

TEST(RepPool, ServiceRecyclesMissBuffersAndReportsRepBuild) {
  const PoolPipeline& p = pool_pipeline();
  ServiceOptions sopts;
  sopts.num_workers = 2;
  {
    ModelRegistry registry(p.selector.clone());
    SelectionService service(registry, sopts);
    for (const auto& entry : p.corpus) {
      (void)service.predict(entry.matrix);
      // A worker pools a request's buffers before it resolves the
      // request, so a miss's buffer set is back by the time predict
      // returns.
      EXPECT_GE(service.rep_pool().size(), 1u);
    }
    const ServiceStats stats = service.snapshot();
    // Every miss built its inputs through the streaming builder and timed
    // the build into serve<N>.rep_build_us.
    EXPECT_EQ(stats.rep_build.count, stats.cache_misses);
    EXPECT_GT(stats.rep_build.count, 0u);
    // The registry export carries the same histogram.
    const auto reg = service.metrics().registry().snapshot(
        service.metrics().prefix());
    EXPECT_EQ(reg.histogram_or(service.metrics().prefix() + "rep_build_us")
                  .count,
              stats.rep_build.count);
    // A warm repeat (cache cleared path not taken — hits skip the pool) of
    // distinct matrices keeps recycling: pool never exceeds its cap.
    EXPECT_LE(service.rep_pool().size(), service.rep_pool().capacity());
  }
}

// A failed request's buffers return to the pool too, before its failure
// reaches the client: one service (one worker, one request per batch, a
// private injector) driven through a deadline expiry, an injected
// worker-pop drop and an injected forward throw.
TEST(RepPool, FailedRequestsReturnTheirBuffers) {
  const PoolPipeline& p = pool_pipeline();
  const auto code_of = [](std::future<std::int32_t>& fut) {
    try {
      (void)fut.get();
      return errc::ok;
    } catch (const DnnspmvError& e) {
      return e.code();
    }
  };
  fault::Injector inj;
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.injector = &inj;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  // The first request holds the worker in a 60 ms forward; the second
  // expires in the queue behind it. Each built its own buffer set.
  inj.configure(fault::Site::kForward, {.delay_us = 60'000, .delay_next = 1});
  std::future<std::int32_t> pinned =
      service.submit({.matrix = &p.corpus[0].matrix});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::future<std::int32_t> doomed = service.submit(
      {.matrix = &p.corpus[1].matrix,
       .deadline = std::chrono::milliseconds(1)});
  EXPECT_EQ(code_of(doomed), errc::deadline_exceeded);
  EXPECT_EQ(service.rep_pool().size(), 2u);
  EXPECT_EQ(code_of(pinned), errc::ok);

  // Each miss below takes a pooled set and must put it back before its
  // failure resolves.
  inj.configure(fault::Site::kWorkerPop, {.drop_next = 1});
  std::future<std::int32_t> dropped =
      service.submit({.matrix = &p.corpus[2].matrix});
  EXPECT_EQ(code_of(dropped), errc::fault_injected);
  EXPECT_EQ(service.rep_pool().size(), 2u);
  inj.configure(fault::Site::kForward, {.throw_next = 1});
  std::future<std::int32_t> thrown =
      service.submit({.matrix = &p.corpus[3].matrix});
  EXPECT_EQ(code_of(thrown), errc::fault_injected);
  EXPECT_EQ(service.rep_pool().size(), 2u);
}

}  // namespace
}  // namespace dnnspmv
