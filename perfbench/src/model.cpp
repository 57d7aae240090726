#include "model.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "perf/labels.hpp"
#include "perf/platform.hpp"

namespace perfbench {

using namespace dnnspmv;

FormatSelector build_model(const ModelInputs& in, std::uint64_t seed,
                           const std::string& weight_path, SetupTimes& t) {
  omp_set_num_threads(1);
  auto t0 = Clock::now();
  const auto xeon = make_analytic_cpu(intel_xeon_params());
  const std::vector<LabeledMatrix> spmv_labels =
      collect_labels(in.spmv_corpus, *xeon);
  const std::vector<LabeledMatrix> spmm_labels =
      collect_labels_spmm(in.spmm_corpus, xeon->formats(), kSpmmCols);
  auto t1 = Clock::now();
  t.labels_s = micros(t0, t1) * 1e-6;

  SelectorOptions opts;
  opts.quantize = true;
  opts.spmm_cols = kSpmmCols;
  opts.train.epochs = 8;
  opts.train.seed = sub_seed(seed, 3);
  FormatSelector trained(opts);
  trained.fit(spmv_labels, xeon->formats());
  trained.fit_spmm(spmm_labels);
  t0 = Clock::now();
  t.fit_s = micros(t1, t0) * 1e-6;

  trained.save(weight_path);
  FormatSelector loaded = FormatSelector::load(weight_path);
  std::remove(weight_path.c_str());
  t.load_s = micros(t0, Clock::now()) * 1e-6;
  DNNSPMV_CHECK_MSG(loaded.quantized() && loaded.supports(SpOp::kSpmm),
                    "the loaded model lost its int8 weights or SpMM head");
  return loaded;
}

}  // namespace perfbench
