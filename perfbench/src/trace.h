// In-memory span and counter recorder for the benchmark's traced run,
// written out at exit as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Spans are recorded in the benchmark's own
// code around each call into the engine; counters are layer snapshots taken
// at the same boundaries. Single-threaded: only the load-generator thread
// records.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timing.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records span `name` over [start, end] (NowNanos time). `id` groups the
  /// spans of one query (-1 = none); `parent` names the span that caused
  /// this one (-1 = none), as an index returned by an earlier Span call.
  int64_t Span(const char* name, int64_t start_nanos, int64_t end_nanos,
               int64_t id = -1, int64_t parent = -1);

  /// Records one snapshot of named counter values at `at_nanos`.
  void Counters(const char* name, int64_t at_nanos,
                std::vector<std::pair<std::string, double>> values);

  /// Charges `nanos` of recording work done outside this class (reading the
  /// counters for a snapshot) to self_nanos().
  void Charge(int64_t nanos) { self_nanos_ += nanos; }
  /// Wall time spent recording spans and counter snapshots so far.
  int64_t self_nanos() const { return self_nanos_; }

  size_t num_spans() const { return spans_.size(); }

  /// Writes every span and counter as Chrome trace-event JSON; false on an
  /// I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct SpanRec {
    const char* name;
    int64_t start;
    int64_t end;
    int64_t id;
    int64_t parent;
  };
  struct CounterRec {
    const char* name;
    int64_t at;
    std::vector<std::pair<std::string, double>> values;
  };

  bool enabled_;
  int64_t origin_ = sdw::NowNanos();
  int64_t self_nanos_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<CounterRec> counters_;
};

/// Records a span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t id = -1)
      : tracer_(tracer), name_(name), id_(id), start_(sdw::NowNanos()) {}
  ~ScopedSpan() {
    if (tracer_->enabled()) tracer_->Span(name_, start_, sdw::NowNanos(), id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double ElapsedSeconds() const {
    return static_cast<double>(sdw::NowNanos() - start_) * 1e-9;
  }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t id_;
  int64_t start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
