// Building blocks of the repository benchmark (perfbench/src/main.cc): the
// workload table, the seeded query stream, the database set-up, the
// closed-loop load generator, layer-counter snapshots, host-noise sampling
// and the oracle check. Everything here drives the engine only through its
// public API (core::Engine, QueryTicket, the stats accessors and
// Breakdown::Global()), so the benchmark measures each layer from outside.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/volcano.h"
#include "common/breakdown.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/engine.h"
#include "query/star_query.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/storage_device.h"
#include "trace.h"

namespace perfbench {

/// One benchmark workload. Fields not named here run at engine defaults.
struct WorkloadSpec {
  std::string_view name;
  enum class Queries { kRandomQ32, kMixed, kFoldableQ31 };
  Queries queries;
  double scale_factor;
  /// Disk-resident on the simulated device with a buffer pool of
  /// kDiskPoolFraction of the data; otherwise memory-resident with an
  /// unbounded pool.
  bool disk_resident;
  sdw::core::EngineConfig config;
  bool query_folding;
  size_t slot_cap;   // 0 = engine default (CjoinOptions::max_queries)
  /// Closed loop: tickets kept in flight with single Submit calls.
  size_t in_flight;
  /// > 0: closed-loop bursts instead — `burst` queries in one SubmitBatch,
  /// the next burst once every query of the previous one completed.
  size_t burst;
  /// Completed queries before timing starts (at least one full scan cycle).
  size_t warmup_queries;
};

inline constexpr double kDiskPoolFraction = 0.10;
inline constexpr double kFoldContainment = 0.9;

const std::vector<WorkloadSpec>& Workloads();
/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(std::string_view name);

/// The workload's query stream, a pure function of (workload, seed): the
/// stream is cut into chunks, each drawn from the workload's ssb generator
/// with a seed taken in order from Rng(seed). Fold bursts are one chunk
/// each, so every burst carries its own template queries.
class QueryStream {
 public:
  QueryStream(const WorkloadSpec& spec, uint64_t seed);

  /// The next `n` queries of the stream.
  std::vector<sdw::query::StarQuery> Next(size_t n);

 private:
  const WorkloadSpec& spec_;
  sdw::Rng chunk_seeds_;
  std::vector<sdw::query::StarQuery> chunk_;
  size_t pos_ = 0;
};

/// The catalog with its simulated device and buffer pool.
struct Database {
  sdw::storage::Catalog catalog;
  std::unique_ptr<sdw::storage::StorageDevice> device;
  std::unique_ptr<sdw::storage::BufferPool> pool;
};

std::unique_ptr<Database> BuildDatabase(const WorkloadSpec& spec,
                                        uint64_t seed);
sdw::core::EngineOptions MakeEngineOptions(const WorkloadSpec& spec);

/// Public counters of every layer at one instant.
struct LayerCounters {
  int64_t wall_nanos = 0;
  int64_t cpu_nanos = 0;  // process CPU
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t device_bytes = 0;
  uint64_t logical_reads = 0;
  sdw::cjoin::CjoinStats cjoin;
  sdw::qpipe::SpCounters sp;
  std::array<double, sdw::kNumComponents> breakdown_s{};
};

LayerCounters TakeCounters(sdw::core::Engine* engine, const Database& db);

/// Records the lock-free layer counters (process CPU, device, buffer pool,
/// Breakdown buckets) as a trace counter event at `at_nanos`, when tracing
/// is on. The engine's pipeline and sharing statistics are left out: reading
/// them takes engine locks, so a snapshot could wait on admission.
void TraceCounters(Tracer* tracer, const Database& db, int64_t at_nanos);

/// Host CPU accounting from /proc/stat (all CPUs, jiffies).
struct HostSample {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostSample ReadHostSample();
/// Share of host CPU time stolen by the hypervisor between two samples.
double StealFraction(const HostSample& a, const HostSample& b);
/// Peak resident set of this process, MiB.
double PeakRssMb();

/// A seeded reservoir sample of completed queries, re-run on the Volcano
/// oracle after the timed interval.
class OracleSample {
 public:
  OracleSample(size_t capacity, uint64_t seed);

  /// Offers one completed (kOk) query.
  void Offer(const sdw::query::StarQuery& q,
             const sdw::core::QueryTicket& ticket);

  struct Outcome {
    size_t checked = 0;
    size_t mismatches = 0;
    double seconds = 0;
    std::string first_diff;
  };
  /// Re-runs every sampled query on `oracle` and compares with
  /// query::DiffResults; one span per oracle Execute.
  Outcome Verify(const sdw::baseline::VolcanoEngine& oracle,
                 Tracer* tracer) const;

 private:
  struct Entry {
    sdw::query::StarQuery query;
    sdw::core::QueryTicket ticket;
  };
  size_t capacity_;
  sdw::Rng rng_;
  uint64_t offered_ = 0;
  std::vector<Entry> entries_;
};

/// One window of an interval: host steal, process CPU and kOk completions
/// between two window boundaries.
struct Window {
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  int64_t cpu_nanos = 0;      // process CPU spent in the window
  double steal = 0;           // StealFraction over the window
  bool traced = false;        // tracing was on during the window
  sdw::Stats latency_s;       // of the kOk queries finishing in the window

  double seconds() const {
    return static_cast<double>(end_nanos - start_nanos) * 1e-9;
  }
};

/// What one closed-loop interval measured.
struct IntervalResult {
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;       // submissions stop here; outstanding drain
  uint64_t attempted = 0;      // queries submitted
  uint64_t ok = 0;             // terminal kOk
  uint64_t failed = 0;         // any other terminal status
  uint64_t completed_in_interval = 0;  // kOk with finish <= end_nanos
  sdw::Stats queue_wait_s;     // of every kOk query
  sdw::Stats run_s;
  sdw::Stats submit_us;        // wall time of Submit / per query of a batch
  /// [start_nanos, end_nanos) cut at every kWindowNanos (at the first burst
  /// boundary after it, for burst workloads); the last window may be
  /// shorter.
  std::vector<Window> windows;
  LayerCounters at_start;
  LayerCounters at_end;
  HostSample host_start;
  HostSample host_end;
};

/// When an interval stops submitting: once `max_nanos` passed, or once
/// windows whose steal is at most `quiet_steal` add up to `min_nanos` and
/// hold `min_completions` completions (judged at window boundaries; with
/// quiet_steal >= 1 every moment counts and the rule is checked
/// continuously). Burst workloads judge it, and cut windows, only between
/// bursts. The first window never counts as quiet: the interval
/// starts with a full set of fresh submissions, whose completions ramp up.
struct StopRule {
  int64_t min_nanos = 0;
  uint64_t min_completions = 0;
  int64_t max_nanos = INT64_MAX;
  double quiet_steal = 1.0;
};

/// Drives `engine` from the calling thread: keeps spec.in_flight tickets in
/// flight (or one burst of spec.burst), waits on the oldest ticket with
/// QueryTicket::WaitFor(kPollNanos), and after every wake sweeps all
/// in-flight tickets for completions. Submits until the StopRule holds,
/// then drains what is still in flight. With `alternate_tracing` the tracer
/// is on in even windows and off in odd ones (and on again for the drain),
/// so the tracing cost can be read against untraced windows of the same
/// interval.
class LoadGenerator {
 public:
  static constexpr int64_t kPollNanos = 1'000'000;
  static constexpr int64_t kWindowNanos = 1'000'000'000;

  LoadGenerator(sdw::core::Engine* engine, const Database* db,
                const WorkloadSpec& spec, QueryStream* stream, Tracer* tracer)
      : engine_(engine), db_(db), spec_(spec), stream_(stream),
        tracer_(tracer) {}

  IntervalResult Run(const StopRule& rule, OracleSample* sample,
                     bool alternate_tracing = false);

 private:
  struct InFlight {
    sdw::query::StarQuery query;
    sdw::core::QueryTicket ticket;
    int64_t submit_nanos;
    uint64_t id;
    int64_t submit_span;  // Tracer index of the submit span (-1 untraced)
  };

  void Refill(IntervalResult* r);
  void Record(const InFlight& f, IntervalResult* r, OracleSample* sample);

  sdw::core::Engine* engine_;
  const Database* db_;
  const WorkloadSpec& spec_;
  QueryStream* stream_;
  Tracer* tracer_;
  std::vector<InFlight> in_flight_;
  uint64_t next_id_ = 0;
};

/// Resets the per-interval counters the benchmark reads as deltas but
/// cannot otherwise subtract: device statistics, the Breakdown buckets and
/// the engine's sharing/pipeline statistics. Buffer-pool residency is kept:
/// warm caches are the steady state being measured.
void ResetCounters(sdw::core::Engine* engine, Database* db);

/// Median of `v` (which must be non-empty).
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
