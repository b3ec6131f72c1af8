#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::Span(const char* name, int64_t start_nanos, int64_t end_nanos,
                     int64_t id, int64_t parent) {
  if (!enabled_) return -1;
  const int64_t t0 = sdw::NowNanos();
  spans_.push_back({name, start_nanos, end_nanos, id, parent});
  self_nanos_ += sdw::NowNanos() - t0;
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Counters(const char* name, int64_t at_nanos,
                      std::vector<std::pair<std::string, double>> values) {
  if (!enabled_) return;
  const int64_t t0 = sdw::NowNanos();
  counters_.push_back({name, at_nanos, std::move(values)});
  self_nanos_ += sdw::NowNanos() - t0;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [this](int64_t t) {
    return static_cast<double>(t - origin_) * 1e-3;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    sep();
    if (s.id >= 0) {
      // Per-query spans overlap each other: async begin/end pairs keyed by
      // the query id keep one row per query in the viewer.
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"query\",\"ph\":\"b\",\"id\":%lld,"
                   "\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%zu,"
                   "\"parent\":%lld}},\n"
                   "{\"name\":\"%s\",\"cat\":\"query\",\"ph\":\"e\",\"id\":%lld,"
                   "\"ts\":%.3f,\"pid\":1,\"tid\":1}",
                   s.name, static_cast<long long>(s.id), us(s.start), i,
                   static_cast<long long>(s.parent), s.name,
                   static_cast<long long>(s.id), us(s.end));
    } else {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"span\":%zu,\"parent\":%lld}}",
                   s.name, us(s.start), us(s.end) - us(s.start), i,
                   static_cast<long long>(s.parent));
    }
  }
  for (const CounterRec& c : counters_) {
    sep();
    std::fprintf(f, "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                    "\"args\":{",
                 c.name, us(c.at));
    for (size_t i = 0; i < c.values.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%.17g", i == 0 ? "" : ",",
                   c.values[i].first.c_str(), c.values[i].second);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
