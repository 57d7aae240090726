#include "core/online.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/transfer.hpp"
#include "perf/labels.hpp"

namespace dnnspmv {
namespace {

bool usable(const FeedbackSample& s, std::size_t num_candidates) {
  if (s.inputs.empty()) return false;
  if (s.format_times.size() != num_candidates) return false;
  return std::any_of(s.format_times.begin(), s.format_times.end(),
                     [](double t) { return std::isfinite(t); });
}

}  // namespace

OnlineTrainer::OnlineTrainer(ModelRegistry& registry,
                             FeedbackCollector& feedback,
                             OnlineTrainerOptions opts)
    : registry_(registry),
      feedback_(feedback),
      opts_(opts),
      prefix_(obs::next_prefix("online")),
      rounds_(obs::MetricsRegistry::global().counter(prefix_ + "rounds")),
      published_(
          obs::MetricsRegistry::global().counter(prefix_ + "published")),
      consumed_(obs::MetricsRegistry::global().counter(prefix_ +
                                                       "samples_consumed")),
      discarded_(obs::MetricsRegistry::global().counter(prefix_ +
                                                        "samples_discarded")),
      replay_depth_(
          obs::MetricsRegistry::global().gauge(prefix_ + "replay_depth")) {
  if (opts_.min_batch == 0) opts_.min_batch = 1;
  if (opts_.replay_capacity < opts_.min_batch)
    opts_.replay_capacity = opts_.min_batch;
}

OnlineTrainer::~OnlineTrainer() { stop(); }

void OnlineTrainer::start() {
  if (loop_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  loop_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      train_once();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.poll_interval_ms));
    }
  });
}

void OnlineTrainer::stop() {
  stop_.store(true, std::memory_order_release);
  if (loop_.joinable()) loop_.join();
}

Dataset OnlineTrainer::make_dataset() const {
  Dataset ds;
  ds.candidates = registry_.candidates();
  ds.samples.reserve(replay_.size());
  for (const FeedbackSample& f : replay_) {
    Sample s;
    s.inputs = f.inputs;
    s.format_times = f.format_times;
    // Measured argmin is the label — ground truth from the traffic itself,
    // exactly how the offline pipeline labels its corpus.
    s.label = best_format_index(f.format_times);
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

bool OnlineTrainer::train_once() {
  rounds_.inc();

  std::vector<FeedbackSample> fresh;
  feedback_.drain(fresh);
  std::size_t accepted = 0;
  const std::size_t ncand = registry_.candidates().size();
  for (FeedbackSample& s : fresh) {
    if (!usable(s, ncand)) {
      discarded_.inc();
      continue;
    }
    replay_.push_back(std::move(s));
    if (replay_.size() > opts_.replay_capacity) replay_.pop_front();
    ++accepted;
  }
  consumed_.inc(accepted);
  replay_depth_.set(static_cast<double>(replay_.size()));

  // Fine-tune only when this round actually learned something new: no
  // fresh samples means another epoch over the same replay data, which
  // would churn versions without changing behaviour.
  if (accepted == 0 || replay_.size() < opts_.min_batch) return false;

  const Dataset ds = make_dataset();
  // migrate() builds a fresh network (the published version is immutable);
  // top evolvement freezes the towers and retrains the SpMV head on the
  // measured labels — paper §6, pointed at served traffic.
  FormatSelector next = registry_.current()->migrate(
      MigrationMethod::kTopEvolve, ds, opts_.train);
  registry_.publish(std::move(next));
  published_.inc();
  return true;
}

}  // namespace dnnspmv
