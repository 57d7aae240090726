// Shared plumbing for the table/figure reproduction binaries.
//
// Every bench builds the same kind of pipeline: corpus → platform labels →
// datasets per representation → models → metrics, printed next to the
// paper's numbers. Flags shared by all benches:
//   --n <count>        corpus size          (default 900)
//   --min-dim/--max-dim  matrix dimensions  (defaults 128 / 1024)
//   --seed <u64>       corpus seed          (default 42)
//   --size <s>         representation rows  (default 32)
//   --bins <b>         histogram bins       (default 16)
//   --epochs <e>       CNN training epochs  (default 10)
//   --folds <k>        cross-validation folds (default 3; paper used 5)
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/selector.hpp"
#include "ml/crossval.hpp"
#include "ml/dtree.hpp"
#include "ml/metrics.hpp"

namespace dnnspmv::bench {

struct BenchConfig {
  std::int64_t n = 900;
  index_t min_dim = 128;
  index_t max_dim = 1024;
  std::uint64_t seed = 42;
  std::int64_t size = 32;
  std::int64_t bins = 16;
  int epochs = 30;
  int folds = 3;
  bool verbose = false;
};

/// Parses the shared flags; bench-specific flags should be read from `cli`
/// before calling check_unused().
BenchConfig parse_common(Cli& cli);

/// Corpus + labels for a platform.
struct LabeledCorpus {
  std::vector<CorpusEntry> corpus;
  std::vector<LabeledMatrix> labeled;
};

LabeledCorpus make_labeled_corpus(const BenchConfig& cfg,
                                  const Platform& platform);

/// Trains the CNN on `train` and returns test-set predictions.
std::vector<std::int32_t> run_cnn(const Dataset& train, const Dataset& test,
                                  RepMode mode, bool late_merge,
                                  const BenchConfig& cfg,
                                  TrainHistory* history = nullptr);

/// Trains the DT baseline on `train` features and predicts `test`.
std::vector<std::int32_t> run_dt(const Dataset& train, const Dataset& test);

/// k-fold CV of a model family over a dataset; returns pooled predictions
/// aligned with ds.samples plus the truth vector.
struct CvResult {
  std::vector<std::int32_t> index;  // sample index into the source dataset
  std::vector<std::int32_t> truth;
  std::vector<std::int32_t> pred;
};

CvResult crossval_cnn(const Dataset& ds, RepMode mode, bool late_merge,
                      const BenchConfig& cfg);
CvResult crossval_dt(const Dataset& ds, const BenchConfig& cfg);

/// Prints a Table 2/3-style block: ground truth, recall, precision per
/// format plus the overall accuracy.
void print_quality_table(const std::string& title,
                         const std::vector<Format>& formats,
                         const EvalResult& result);

/// "paper=X ours=Y" one-liner.
void print_vs_paper(const std::string& metric, double paper, double ours);

/// Single-thread GEMM throughput of the packed kernel vs a copy of the
/// seed's naive blocked kernel, per {m, n, k} shape. Shared by bench_gemm
/// (full sweep) and bench_overhead (MergeNet shapes for BENCH_infer.json).
/// Each of `reps` reps times both kernels back to back, in alternating
/// order.
struct GemmShapeResult {
  std::int64_t m, n, k;
  double seed_gflops;    // from the seed kernel's best rep
  double packed_gflops;  // from the packed kernel's best rep
  double speedup;        // median over reps of seed time / packed time
};

std::vector<GemmShapeResult> bench_gemm_shapes(
    const std::vector<std::array<std::int64_t, 3>>& shapes, int reps);

/// The conv/dense GEMM shapes of the default MergeNet on the histogram
/// representation (batch 32), plus the ISSUE-2 reference shape 32×16384×75.
std::vector<std::array<std::int64_t, 3>> merge_net_gemm_shapes();

/// Minimal streaming writer for the BENCH_*.json artifacts: handles
/// nesting, commas, and indentation so benches stop hand-rolling fprintf
/// JSON. Values are emitted as they arrive; str() is the document so far.
class JsonWriter {
 public:
  /// `name` keys the child in an enclosing object; pass nothing for the
  /// root or for elements of an array.
  JsonWriter& begin_object(std::string_view name = {});
  JsonWriter& end_object();
  JsonWriter& begin_array(std::string_view name = {});
  JsonWriter& end_array();

  JsonWriter& field(std::string_view name, std::string_view v);
  JsonWriter& field(std::string_view name, const char* v) {
    return field(name, std::string_view(v));
  }
  JsonWriter& field(std::string_view name, double v);
  JsonWriter& field(std::string_view name, std::int64_t v);
  JsonWriter& field(std::string_view name, std::uint64_t v);
  JsonWriter& field(std::string_view name, int v) {
    return field(name, static_cast<std::int64_t>(v));
  }
  JsonWriter& field(std::string_view name, bool v);

  const std::string& str() const { return out_; }
  bool write_file(const std::string& path) const;

 private:
  void prefix(std::string_view name);
  std::string out_;
  std::vector<bool> has_items_;  // one per open scope: comma needed?
};

}  // namespace dnnspmv::bench
