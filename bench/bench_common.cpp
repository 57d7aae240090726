#include "bench_common.hpp"

#include <omp.h>

#include <algorithm>
#include <cstdio>

#include "common/timer.hpp"
#include "tensor/gemm.hpp"

namespace dnnspmv::bench {

BenchConfig parse_common(Cli& cli) {
  BenchConfig cfg;
  cfg.n = cli.get_int("n", cfg.n);
  cfg.min_dim = static_cast<index_t>(cli.get_int("min-dim", cfg.min_dim));
  cfg.max_dim = static_cast<index_t>(cli.get_int("max-dim", cfg.max_dim));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.size = cli.get_int("size", cfg.size);
  cfg.bins = cli.get_int("bins", cfg.bins);
  cfg.epochs = static_cast<int>(cli.get_int("epochs", cfg.epochs));
  cfg.folds = static_cast<int>(cli.get_int("folds", cfg.folds));
  cfg.verbose = cli.get_bool("verbose", false);
  return cfg;
}

LabeledCorpus make_labeled_corpus(const BenchConfig& cfg,
                                  const Platform& platform) {
  CorpusSpec spec;
  spec.count = cfg.n;
  spec.min_dim = cfg.min_dim;
  spec.max_dim = cfg.max_dim;
  spec.seed = cfg.seed;
  LabeledCorpus lc;
  lc.corpus = build_corpus(spec);
  lc.labeled = collect_labels(lc.corpus, platform);
  return lc;
}

namespace {

TrainConfig train_config(const BenchConfig& cfg) {
  TrainConfig tc;
  tc.epochs = cfg.epochs;
  tc.batch = 32;
  tc.lr = 2e-3;
  tc.seed = cfg.seed + 1;
  tc.verbose = cfg.verbose;
  return tc;
}

CnnSpec cnn_spec(const Dataset& data, RepMode mode, bool late_merge,
                 const BenchConfig& cfg) {
  CnnSpec spec;
  const int nsources = rep_num_sources(mode);
  for (int s = 0; s < nsources; ++s) {
    if (mode == RepMode::kHistogram)
      spec.input_hw.push_back({cfg.size, cfg.bins});
    else
      spec.input_hw.push_back({cfg.size, cfg.size});
  }
  spec.num_classes = static_cast<int>(data.candidates.size());
  spec.late_merge = late_merge;
  spec.seed = cfg.seed + 7;
  return spec;
}

}  // namespace

std::vector<std::int32_t> run_cnn(const Dataset& train, const Dataset& test,
                                  RepMode mode, bool late_merge,
                                  const BenchConfig& cfg,
                                  TrainHistory* history) {
  const CnnSpec spec = cnn_spec(train, mode, late_merge, cfg);
  MergeNet net = build_cnn(spec);
  const TrainHistory h =
      train_cnn(net, train, num_net_inputs(spec), train_config(cfg));
  if (history) *history = h;
  return predict_cnn(net, test, num_net_inputs(spec));
}

std::vector<std::int32_t> run_dt(const Dataset& train, const Dataset& test) {
  std::vector<std::vector<double>> x;
  std::vector<std::int32_t> y;
  for (const Sample& s : train.samples) {
    x.push_back(s.features);
    y.push_back(s.label);
  }
  DecisionTree tree;
  DTreeConfig cfg;
  cfg.num_classes = static_cast<int>(train.candidates.size());
  tree.fit(x, y, cfg);
  std::vector<std::int32_t> pred;
  pred.reserve(test.samples.size());
  for (const Sample& s : test.samples) pred.push_back(tree.predict(s.features));
  return pred;
}

namespace {

std::vector<std::int32_t> labels_of(const Dataset& ds) {
  std::vector<std::int32_t> y;
  y.reserve(ds.samples.size());
  for (const Sample& s : ds.samples) y.push_back(s.label);
  return y;
}

template <typename RunFold>
CvResult crossval(const Dataset& ds, int folds, std::uint64_t seed,
                  RunFold&& run_fold) {
  const auto y = labels_of(ds);
  CvResult out;
  for (const FoldSplit& split : stratified_kfold(y, folds, seed)) {
    const Dataset train = ds.subset(split.train);
    const Dataset test = ds.subset(split.test);
    const auto pred = run_fold(train, test);
    for (std::size_t i = 0; i < split.test.size(); ++i) {
      out.index.push_back(split.test[i]);
      out.truth.push_back(y[static_cast<std::size_t>(split.test[i])]);
      out.pred.push_back(pred[i]);
    }
  }
  return out;
}

}  // namespace

CvResult crossval_cnn(const Dataset& ds, RepMode mode, bool late_merge,
                      const BenchConfig& cfg) {
  return crossval(ds, cfg.folds, cfg.seed + 13,
                  [&](const Dataset& train, const Dataset& test) {
                    return run_cnn(train, test, mode, late_merge, cfg);
                  });
}

CvResult crossval_dt(const Dataset& ds, const BenchConfig& cfg) {
  return crossval(ds, cfg.folds, cfg.seed + 13,
                  [&](const Dataset& train, const Dataset& test) {
                    return run_dt(train, test);
                  });
}

void print_quality_table(const std::string& title,
                         const std::vector<Format>& formats,
                         const EvalResult& result) {
  std::printf("  %s\n", title.c_str());
  std::printf("    %-6s %12s %8s %10s\n", "Format", "GroundTruth", "Recall",
              "Precision");
  for (std::size_t f = 0; f < formats.size(); ++f) {
    const ClassMetrics& m = result.per_class[f];
    if (m.ground_truth == 0) {
      std::printf("    %-6s %12lld %8s %10s\n",
                  format_name(formats[f]).c_str(),
                  static_cast<long long>(m.ground_truth), "-", "-");
    } else {
      std::printf("    %-6s %12lld %8.2f %10.2f\n",
                  format_name(formats[f]).c_str(),
                  static_cast<long long>(m.ground_truth), m.recall,
                  m.precision);
    }
  }
  std::printf("    Overall accuracy: %.3f\n", result.accuracy);
}

void print_vs_paper(const std::string& metric, double paper, double ours) {
  std::printf("  %-52s paper=%.3f ours=%.3f\n", metric.c_str(), paper, ours);
}

namespace {

// Verbatim copy of the seed's sgemm (scalar blocked loop, serial beta
// scaling) — the "before" of the packed-kernel speedup numbers. Kept here
// so the comparison survives the library kernel evolving further.
void seed_sgemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, const float* b, float beta, float* c) {
  constexpr std::int64_t kBlockK = 256;
  constexpr std::int64_t kBlockN = 512;
  if (beta != 1.0f) {
    if (beta == 0.0f)
      std::fill(c, c + m * n, 0.0f);
    else
      for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t k1 = std::min(k, k0 + kBlockK);
      for (std::int64_t n0 = 0; n0 < n; n0 += kBlockN) {
        const std::int64_t n1 = std::min(n, n0 + kBlockN);
        for (std::int64_t p = k0; p < k1; ++p) {
          const float av = alpha * a[i * k + p];
          if (av == 0.0f) continue;
          const float* brow = b + p * n;
          for (std::int64_t j = n0; j < n1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

}  // namespace

std::vector<GemmShapeResult> bench_gemm_shapes(
    const std::vector<std::array<std::int64_t, 3>>& shapes, int reps) {
  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(1);  // single-thread kernel throughput
  Rng rng(1234);
  std::vector<GemmShapeResult> out;
  for (const auto& [m, n, k] : shapes) {
    Tensor a({m, k}), b({k, n}), c({m, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(n) * static_cast<double>(k);
    const auto seed = [&] {
      seed_sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    };
    const auto packed = [&] {
      sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    };
    const auto timed = [](const auto& fn) {
      Timer t;
      fn();
      return t.seconds();
    };
    seed();  // warm-up
    packed();
    // Seed and packed alternate within each rep, the order flipped every
    // rep, so each rep's ratio sees the host in one state; best times for
    // each kernel's GFLOP/s, the median ratio for the speedup.
    double best_seed = 1e300, best_packed = 1e300;
    std::vector<double> ratios;
    for (int r = 0; r < std::max(reps, 1); ++r) {
      const bool packed_first = r % 2 == 1;
      const double t0 = packed_first ? timed(packed) : timed(seed);
      const double t1 = packed_first ? timed(seed) : timed(packed);
      const double t_seed = packed_first ? t1 : t0;
      const double t_packed = packed_first ? t0 : t1;
      best_seed = std::min(best_seed, t_seed);
      best_packed = std::min(best_packed, t_packed);
      ratios.push_back(t_seed / t_packed);
    }
    std::sort(ratios.begin(), ratios.end());
    const std::size_t h = ratios.size() / 2;
    const double median =
        ratios.size() % 2 ? ratios[h] : 0.5 * (ratios[h - 1] + ratios[h]);
    out.push_back({m, n, k, flops / best_seed * 1e-9,
                   flops / best_packed * 1e-9, median});
  }
  omp_set_num_threads(prev_threads);
  return out;
}

std::vector<std::array<std::int64_t, 3>> merge_net_gemm_shapes() {
  // Default selector CNN on the 32×16 histogram representation, batch 32:
  //   conv1: [12, 32*512, 9]    (1→12 ch, 3×3, 32×16 input)
  //   conv2: [24, 32*32, 108]   (12→24 ch, 3×3 s2, 16×8 input)
  //   head:  [32, 96, 384] and [32, 4, 96]
  // plus the ISSUE-2 reference conv shape 32×16384×75.
  return {{12, 16384, 9},
          {24, 1024, 108},
          {32, 96, 384},
          {32, 16384, 75}};
}

}  // namespace dnnspmv::bench

namespace dnnspmv::bench {
namespace {

void json_escape(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

}  // namespace

void JsonWriter::prefix(std::string_view name) {
  if (!has_items_.empty()) {
    if (has_items_.back()) out_ += ',';
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
    has_items_.back() = true;
  }
  if (!name.empty()) {
    json_escape(out_, name);
    out_ += ": ";
  }
}

JsonWriter& JsonWriter::begin_object(std::string_view name) {
  prefix(name);
  out_ += '{';
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had = !has_items_.empty() && has_items_.back();
  has_items_.pop_back();
  if (had) {
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
  }
  out_ += '}';
  if (has_items_.empty()) out_ += '\n';
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view name) {
  prefix(name);
  out_ += '[';
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had = !has_items_.empty() && has_items_.back();
  has_items_.pop_back();
  if (had) {
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
  }
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::string_view v) {
  prefix(name);
  json_escape(out_, v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, double v) {
  prefix(name);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::int64_t v) {
  prefix(name);
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::uint64_t v) {
  prefix(name);
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, bool v) {
  prefix(name);
  out_ += v ? "true" : "false";
  return *this;
}

bool JsonWriter::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::fwrite(out_.data(), 1, out_.size(), f);
  return std::fclose(f) == 0 && n == out_.size();
}

}  // namespace dnnspmv::bench
