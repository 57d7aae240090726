// SpMM workload bench (DESIGN.md §14): DLMC-style pruned-weight corpus,
// measured SpMM labels at K dense columns, and the op-aware selector head
// against the static baselines. Every head trains on the first two-thirds
// of the corpus; everything below is scored on the last third:
//   * SpMV-vs-SpMM winner divergence — how often the two ops disagree on
//     the best format for the same matrix (the reason the op-aware head
//     exists; must be nonzero on any real host),
//   * accuracy against the SpMM labels and aggregate SpMM time of: oracle,
//     the SpMM head (top-evolved over the SpMV head's towers), a
//     standalone net fit on the same SpMM labels (the SpMM head of a
//     two-net design), the SpMV head's picks (an op-unaware deployment),
//     and always-CSR.
// Emits BENCH_spmm.json; exit status is the CI gate (SpMM head beats
// always-CSR in aggregate AND divergence is nonzero, both held out).
//
// Flags: --n <matrices> (default 180), --k <dense cols> (default 32),
//        --reps <r> (default 3), --epochs <e> (default 25),
//        --seed <u64> (default 42), --cache <path> (binary corpus cache,
//        empty = rebuild every run), --json <path>.
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/dlmc.hpp"
#include "perf/labels.hpp"
#include "perf/platform.hpp"

using namespace dnnspmv;
using namespace dnnspmv::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 180);
  const index_t k = static_cast<index_t>(cli.get_int("k", 32));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int epochs = static_cast<int>(cli.get_int("epochs", 25));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string cache = cli.get_string("cache", "");
  const std::string json_path = cli.get_string("json", "BENCH_spmm.json");
  cli.check_unused();

  // Corpus: the binary cache lets CI reuse the generated slice across runs
  // (actions/cache keyed on the generator sources). A stale cache with the
  // wrong size — someone changed --n — is rebuilt, not trusted.
  std::vector<CorpusEntry> corpus;
  if (!cache.empty() && load_corpus(cache, &corpus) &&
      static_cast<std::int64_t>(corpus.size()) == n) {
    std::printf("loaded %zu cached DLMC matrices from %s\n", corpus.size(),
                cache.c_str());
  } else {
    DlmcSpec spec;
    spec.count = n;
    spec.seed = seed;
    corpus = build_dlmc_corpus(spec);
    std::printf("generated %zu DLMC matrices (densities 2%%..50%%)\n",
                corpus.size());
    if (!cache.empty() && save_corpus(cache, corpus))
      std::printf("cached corpus to %s\n", cache.c_str());
  }

  // DIA is excluded: pruned weights have no diagonal structure, so it only
  // burns conversion attempts. This is the GPU library's set (DESIGN.md §2).
  const std::vector<Format>& formats = gpu_formats();

  std::printf("labelling SpMV (measured, %d reps)...\n", reps);
  const std::unique_ptr<Platform> host = make_measured(formats, reps);
  const std::vector<LabeledMatrix> spmv_labeled =
      collect_labels(corpus, *host);
  std::printf("labelling SpMM at K=%d (measured, %d reps)...\n",
              static_cast<int>(k), reps);
  const std::vector<LabeledMatrix> spmm_labeled =
      collect_labels_spmm(corpus, formats, k, reps);

  // Train on the first two-thirds, score the rest.
  const std::size_t n_train = corpus.size() * 2 / 3;
  if (n_train == 0 || n_train == corpus.size()) {
    std::fprintf(stderr,
                 "bench_spmm: --n %lld leaves nothing to train on or to "
                 "score\n",
                 static_cast<long long>(n));
    return 2;
  }
  const auto first = [&](const std::vector<LabeledMatrix>& all) {
    return std::vector<LabeledMatrix>(all.begin(), all.begin() + n_train);
  };
  std::vector<const Csr*> held_out;
  for (std::size_t i = n_train; i < corpus.size(); ++i)
    held_out.push_back(&corpus[i].matrix);
  const std::size_t n_test = held_out.size();

  // Winner divergence: same matrix, different op, different best format.
  std::int64_t diverged = 0;
  std::vector<std::int64_t> spmv_wins(formats.size(), 0);
  std::vector<std::int64_t> spmm_wins(formats.size(), 0);
  for (std::size_t i = n_train; i < corpus.size(); ++i) {
    if (spmv_labeled[i].label != spmm_labeled[i].label) ++diverged;
    ++spmv_wins[static_cast<std::size_t>(spmv_labeled[i].label)];
    ++spmm_wins[static_cast<std::size_t>(spmm_labeled[i].label)];
  }
  const double divergence_rate =
      static_cast<double>(diverged) / static_cast<double>(n_test);
  std::printf("\n=== held-out winner distribution (SpMV vs SpMM, same "
              "matrices) ===\n");
  for (std::size_t f = 0; f < formats.size(); ++f)
    std::printf("  %-5s  spmv %4lld   spmm %4lld\n",
                format_name(formats[f]).c_str(),
                static_cast<long long>(spmv_wins[f]),
                static_cast<long long>(spmm_wins[f]));
  std::printf("divergence: %lld/%zu matrices (%.1f%%) change winner with "
              "the op\n",
              static_cast<long long>(diverged), n_test,
              100.0 * divergence_rate);

  // Both heads, one selector: the SpMV head defines towers and geometry,
  // the SpMM head top-evolves over them (core/selector.hpp).
  SelectorOptions opts;
  opts.spmm_cols = k;
  opts.train.epochs = epochs;
  opts.train.seed = seed;
  FormatSelector selector(opts);
  std::printf("\ntraining on %zu matrices, SpMV head (%d epochs)...\n",
              n_train, epochs);
  selector.fit(first(spmv_labeled), formats);
  std::printf("training SpMM head (%d epochs)...\n", epochs);
  selector.fit_spmm(first(spmm_labeled));
  std::printf("training standalone net on SpMM labels (%d epochs)...\n",
              epochs);
  FormatSelector standalone(opts);
  standalone.fit(first(spmm_labeled), formats);

  // Each policy's picks on the held-out matrices.
  struct Policy {
    const char* name;
    const char* key;
    std::vector<std::int32_t> picks;
    double time = 0.0;
    std::int64_t correct = 0;
  };
  const auto csr_idx = static_cast<std::size_t>(
      selector.candidate_index(Format::kCsr));
  std::vector<std::int32_t> oracle;
  for (std::size_t i = n_train; i < corpus.size(); ++i)
    oracle.push_back(spmm_labeled[i].label);
  const std::vector<std::int32_t> csr(n_test,
                                      static_cast<std::int32_t>(csr_idx));
  std::vector<Policy> policies = {
      {"oracle", "oracle", oracle},
      {"SpMM head", "spmm_head",
       selector.predict_index_batch(held_out, SpOp::kSpmm)},
      {"standalone net", "standalone_net",
       standalone.predict_index_batch(held_out)},
      {"SpMV head", "spmv_head",
       selector.predict_index_batch(held_out, SpOp::kSpmv)},
      {"always CSR", "always_csr", csr},
  };

  // Aggregate SpMM cost of each policy, charged from the measured label
  // times. A pick the matrix refuses (inf) falls back to CSR, which every
  // matrix supports — same as a deployment would.
  for (Policy& p : policies) {
    for (std::size_t j = 0; j < n_test; ++j) {
      const LabeledMatrix& lm = spmm_labeled[n_train + j];
      const double t = lm.format_times[static_cast<std::size_t>(p.picks[j])];
      p.time += std::isfinite(t) ? t : lm.format_times[csr_idx];
      if (p.picks[j] == lm.label) ++p.correct;
    }
  }
  const auto accuracy = [&](const Policy& p) {
    return static_cast<double>(p.correct) / static_cast<double>(n_test);
  };
  const Policy& head = policies[1];
  const Policy& standalone_net = policies[2];
  const Policy& spmv_head = policies[3];
  const Policy& always_csr = policies[4];

  std::printf("\n=== held-out SpMM, %zu matrices at K=%d ===\n\n", n_test,
              static_cast<int>(k));
  for (const Policy& p : policies)
    std::printf("  %-16s %12.1f us  accuracy %5.1f%%\n", p.name,
                p.time * 1e6, 100.0 * accuracy(p));
  std::printf("\nSpMM head vs always-CSR: %.2fx\n",
              always_csr.time / head.time);
  std::printf("SpMM head vs SpMV-head picks: %.2fx\n",
              spmv_head.time / head.time);
  std::printf("SpMM head minus standalone net: accuracy %+.1fpt, time "
              "%+.2f%%\n",
              100.0 * (accuracy(head) - accuracy(standalone_net)),
              100.0 * (head.time / standalone_net.time - 1.0));

  const bool pass = head.time < always_csr.time && diverged > 0;

  JsonWriter w;
  w.begin_object();
  w.field("bench", "spmm");
  w.field("n", static_cast<std::int64_t>(corpus.size()));
  w.field("n_train", static_cast<std::int64_t>(n_train));
  w.field("n_held_out", static_cast<std::int64_t>(n_test));
  w.field("k", static_cast<std::int64_t>(k));
  w.field("reps", reps);
  w.field("epochs", epochs);
  w.field("seed", static_cast<std::uint64_t>(seed));
  w.begin_array("formats");
  for (Format f : formats) {
    w.begin_object();
    w.field("name", format_name(f));
    w.end_object();
  }
  w.end_array();
  w.begin_object("divergence");
  w.field("count", static_cast<std::int64_t>(diverged));
  w.field("rate", divergence_rate);
  w.end_object();
  w.begin_object("held_out");
  for (const Policy& p : policies) {
    w.begin_object(p.key);
    w.field("time_us", p.time * 1e6);
    w.field("accuracy", accuracy(p));
    w.end_object();
  }
  w.end_object();
  w.field("speedup_vs_csr", always_csr.time / head.time);
  w.field("speedup_vs_spmv_head", spmv_head.time / head.time);
  w.field("pass", pass);
  w.end_object();
  if (w.write_file(json_path))
    std::printf("wrote %s\n", json_path.c_str());

  std::printf("gate (held out: SpMM head < always-CSR, divergence > 0): "
              "%s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
