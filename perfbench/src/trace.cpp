#include "trace.hpp"

#include <cstdio>

namespace perfbench {

SpanLog& Tracer::new_log(const std::string& label) {
  labels_.push_back(label);
  logs_.push_back(std::make_unique<SpanLog>(capacity_));
  return *logs_.back();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& log : logs_)
    for (const SpanEvent& e : log->events())
      if (name == e.name) out.push_back(micros(e.start, e.end));
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const auto& log : logs_) n += log->dropped();
  return n;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t, labels_[t].c_str());
    first = false;
    for (const SpanEvent& e : logs_[t]->events()) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld}}",
                   e.name, t, micros(origin_, e.start),
                   micros(e.start, e.end), static_cast<long long>(e.id));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
