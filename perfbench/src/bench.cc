#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>

#include "query/result.h"
#include "ssb/ssb_generator.h"
#include "ssb/workload.h"

namespace perfbench {

using sdw::core::EngineConfig;

const std::vector<WorkloadSpec>& Workloads() {
  using Q = WorkloadSpec::Queries;
  // Why each workload exists is recorded in BENCHMARK.json and
  // perfbench/METHODOLOGY.md.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "cjoin_q32_c64",
       .queries = Q::kRandomQ32,
       .scale_factor = 0.2,
       .disk_resident = false,
       .config = EngineConfig::kCjoin,
       .query_folding = false,
       .slot_cap = 0,
       .in_flight = 64,
       .burst = 0,
       .warmup_queries = 64},
      {.name = "qpipe_mix_c2",
       .queries = Q::kMixed,
       .scale_factor = 0.2,
       .disk_resident = false,
       .config = EngineConfig::kQpipeSp,
       .query_folding = false,
       .slot_cap = 0,
       .in_flight = 2,
       .burst = 0,
       .warmup_queries = 6},
      {.name = "cjoin_fold_disk",
       .queries = Q::kFoldableQ31,
       .scale_factor = 0.1,
       .disk_resident = true,
       .config = EngineConfig::kCjoin,
       .query_folding = true,
       .slot_cap = 64,
       .in_flight = 0,
       .burst = 128,
       .warmup_queries = 128},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

QueryStream::QueryStream(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), chunk_seeds_(seed) {}

std::vector<sdw::query::StarQuery> QueryStream::Next(size_t n) {
  // Chunk sizes: a fold burst is exactly one FoldableQ31Workload draw (its
  // first queries are the templates the rest narrow); the mix chunk is a
  // multiple of 3 so the Q1.1/Q2.1/Q3.2 round-robin never restarts early.
  constexpr size_t kChunk = 384;
  std::vector<sdw::query::StarQuery> out;
  out.reserve(n);
  while (out.size() < n) {
    if (pos_ == chunk_.size()) {
      const uint64_t s = chunk_seeds_.Next();
      switch (spec_.queries) {
        case WorkloadSpec::Queries::kRandomQ32:
          chunk_ = sdw::ssb::RandomQ32Workload(kChunk, s);
          break;
        case WorkloadSpec::Queries::kMixed:
          chunk_ = sdw::ssb::MixedWorkload(kChunk, s);
          break;
        case WorkloadSpec::Queries::kFoldableQ31:
          chunk_ = sdw::ssb::FoldableQ31Workload(spec_.burst,
                                                 kFoldContainment, s);
          break;
      }
      pos_ = 0;
    }
    out.push_back(std::move(chunk_[pos_++]));
  }
  return out;
}

std::unique_ptr<Database> BuildDatabase(const WorkloadSpec& spec,
                                        uint64_t seed) {
  auto db = std::make_unique<Database>();
  sdw::ssb::BuildSsbDatabase(&db->catalog, {spec.scale_factor, seed});
  sdw::storage::DeviceOptions dev;
  dev.memory_resident = !spec.disk_resident;
  db->device = std::make_unique<sdw::storage::StorageDevice>(dev);
  const size_t pool_bytes =
      spec.disk_resident
          ? static_cast<size_t>(kDiskPoolFraction *
                                static_cast<double>(db->catalog.total_bytes()))
          : 0;  // 0 = unbounded: the whole database fits
  db->pool = std::make_unique<sdw::storage::BufferPool>(db->device.get(),
                                                        pool_bytes);
  return db;
}

sdw::core::EngineOptions MakeEngineOptions(const WorkloadSpec& spec) {
  sdw::core::EngineOptions opts;
  opts.config = spec.config;
  opts.query_folding = spec.query_folding;
  if (spec.slot_cap != 0) opts.cjoin.max_queries = spec.slot_cap;
  return opts;
}

LayerCounters TakeCounters(sdw::core::Engine* engine, const Database& db) {
  LayerCounters c;
  c.wall_nanos = sdw::NowNanos();
  c.cpu_nanos = sdw::ProcessCpuNanos();
  c.pool_hits = db.pool->hits();
  c.pool_misses = db.pool->misses();
  c.device_bytes = db.device->device_bytes_read();
  c.logical_reads = db.device->logical_reads();
  c.cjoin = engine->cjoin_stats();
  c.sp = engine->sp_counters();
  for (int i = 0; i < sdw::kNumComponents; ++i) {
    c.breakdown_s[static_cast<size_t>(i)] =
        sdw::Breakdown::Global().Seconds(static_cast<sdw::Component>(i));
  }
  return c;
}

void TraceCounters(Tracer* tracer, const Database& db, int64_t at_nanos) {
  if (!tracer->enabled()) return;
  const int64_t t0 = sdw::NowNanos();
  std::vector<std::pair<std::string, double>> values = {
      {"cpu_s", static_cast<double>(sdw::ProcessCpuNanos()) * 1e-9},
      {"logical_reads", static_cast<double>(db.device->logical_reads())},
      {"device_mb", static_cast<double>(db.device->device_bytes_read()) * 1e-6},
      {"pool_hits", static_cast<double>(db.pool->hits())},
      {"pool_misses", static_cast<double>(db.pool->misses())}};
  using sdw::Component;
  for (const auto& [c, name] : {std::pair{Component::kJoins, "cpu.joins_s"},
                                {Component::kHashing, "cpu.hashing_s"},
                                {Component::kScans, "cpu.scans_s"},
                                {Component::kAggregation, "cpu.aggregation_s"},
                                {Component::kLocks, "cpu.locks_s"},
                                {Component::kMisc, "cpu.misc_s"}}) {
    values.emplace_back(name, sdw::Breakdown::Global().Seconds(c));
  }
  tracer->Charge(sdw::NowNanos() - t0);
  tracer->Counters("layers", at_nanos, std::move(values));
}

void ResetCounters(sdw::core::Engine* engine, Database* db) {
  db->device->ResetStats();
  sdw::Breakdown::Global().Reset();
  engine->ResetCounters();
}

HostSample ReadHostSample() {
  // First line: "cpu user nice system idle iowait irq softirq steal guest
  // guest_nice". guest time is already part of user/nice, so the total is
  // the first eight fields.
  HostSample s;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return s;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) return HostSample{};
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

double StealFraction(const HostSample& a, const HostSample& b) {
  if (b.total <= a.total) return 0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

OracleSample::OracleSample(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {}

void OracleSample::Offer(const sdw::query::StarQuery& q,
                         const sdw::core::QueryTicket& ticket) {
  ++offered_;
  if (entries_.size() < capacity_) {
    entries_.push_back({q, ticket});
    return;
  }
  const size_t slot = rng_.Index(offered_);
  if (slot < capacity_) entries_[slot] = {q, ticket};
}

OracleSample::Outcome OracleSample::Verify(
    const sdw::baseline::VolcanoEngine& oracle, Tracer* tracer) const {
  Outcome out;
  const int64_t start = sdw::NowNanos();
  for (const Entry& e : entries_) {
    sdw::query::ResultSet expected;
    {
      ScopedSpan span(tracer, "oracle.Execute");
      expected = oracle.Execute(e.query);
    }
    ++out.checked;
    const std::string diff =
        sdw::query::DiffResults(expected, e.ticket.result());
    if (!diff.empty()) {
      if (out.mismatches == 0) out.first_diff = diff;
      ++out.mismatches;
    }
  }
  out.seconds = static_cast<double>(sdw::NowNanos() - start) * 1e-9;
  return out;
}

IntervalResult LoadGenerator::Run(const StopRule& rule, OracleSample* sample,
                                  bool alternate_tracing) {
  IntervalResult r;
  r.host_start = ReadHostSample();
  r.at_start = TakeCounters(engine_, *db_);
  r.start_nanos = r.at_start.wall_nanos;
  // The open window is r.windows.back() with end_nanos == 0.
  const auto open_window = [&](int64_t now) {
    if (alternate_tracing) tracer_->set_enabled(r.windows.size() % 2 == 0);
    r.windows.emplace_back();
    r.windows.back().start_nanos = now;
    r.windows.back().traced = tracer_->enabled();
  };
  open_window(r.start_nanos);
  HostSample window_host = r.host_start;
  int64_t window_cpu = r.at_start.cpu_nanos;
  int64_t quiet_nanos = 0;
  uint64_t quiet_completions = 0;
  const auto close_window = [&](int64_t now) {
    const HostSample host = ReadHostSample();
    const int64_t cpu = sdw::ProcessCpuNanos();
    Window& w = r.windows.back();
    w.end_nanos = now;
    w.cpu_nanos = cpu - window_cpu;
    w.steal = StealFraction(window_host, host);
    if (r.windows.size() > 1 && w.steal <= rule.quiet_steal) {
      quiet_nanos += now - w.start_nanos;
      quiet_completions += w.latency_s.count();
    }
    window_host = host;
    window_cpu = cpu;
  };

  bool issuing = true;
  while (issuing || !in_flight_.empty()) {
    // Burst workloads cut windows and judge the stop only between bursts,
    // so a burst's CPU and its completions fall in the same window.
    if (issuing && (spec_.burst == 0 || in_flight_.empty())) {
      const int64_t now = sdw::NowNanos();
      if (now - r.windows.back().start_nanos >= kWindowNanos) {
        close_window(now);
        open_window(now);
      }
      const int64_t elapsed = now - r.start_nanos;
      const bool enough =
          rule.quiet_steal >= 1
              ? elapsed >= rule.min_nanos &&
                    r.ok + r.failed >= rule.min_completions
              : quiet_nanos >= rule.min_nanos &&
                    quiet_completions >= rule.min_completions;
      if (enough || elapsed >= rule.max_nanos) {
        issuing = false;
        if (now > r.windows.back().start_nanos) {
          close_window(now);
        } else {
          r.windows.pop_back();  // opened at this very instant: empty
        }
        r.end_nanos = now;
        r.host_end = window_host;
        r.at_end = TakeCounters(engine_, *db_);
        if (alternate_tracing) tracer_->set_enabled(true);
        if (in_flight_.empty()) break;
      } else {
        Refill(&r);
      }
    }
    // Polling rule: block on the oldest ticket for at most kPollNanos, then
    // sweep every in-flight ticket, so a query that finishes out of order
    // is replaced within one poll period without spinning.
    in_flight_.front().ticket.WaitFor(kPollNanos);
    const int64_t observed = sdw::NowNanos();
    size_t kept = 0;
    for (size_t i = 0; i < in_flight_.size(); ++i) {
      InFlight& f = in_flight_[i];
      if (f.ticket.done()) {
        if (tracer_->enabled()) {
          tracer_->Span("query", f.submit_nanos, observed,
                        static_cast<int64_t>(f.id), f.submit_span);
        }
        Record(f, &r, sample);
      } else {
        if (kept != i) in_flight_[kept] = std::move(f);
        ++kept;
      }
    }
    in_flight_.resize(kept);
  }
  return r;
}

void LoadGenerator::Refill(IntervalResult* r) {
  if (spec_.burst > 0) {
    if (!in_flight_.empty()) return;
    std::vector<sdw::query::StarQuery> burst = stream_->Next(spec_.burst);
    const int64_t t0 = sdw::NowNanos();
    std::vector<sdw::core::QueryTicket> tickets = engine_->SubmitBatch(burst);
    const int64_t t1 = sdw::NowNanos();
    const int64_t batch_span = tracer_->Span("Engine::SubmitBatch", t0, t1);
    TraceCounters(tracer_, *db_, t1);
    for (size_t i = 0; i < burst.size(); ++i) {
      const uint64_t id = next_id_++;
      r->submit_us.Add(static_cast<double>(t1 - t0) * 1e-3 /
                       static_cast<double>(burst.size()));
      in_flight_.push_back(
          {std::move(burst[i]), std::move(tickets[i]), t0, id, batch_span});
    }
    r->attempted += burst.size();
    return;
  }
  while (in_flight_.size() < spec_.in_flight) {
    std::vector<sdw::query::StarQuery> q = stream_->Next(1);
    const uint64_t id = next_id_++;
    const int64_t t0 = sdw::NowNanos();
    sdw::core::QueryTicket ticket = engine_->Submit(q[0]);
    const int64_t t1 = sdw::NowNanos();
    const int64_t span =
        tracer_->Span("Engine::Submit", t0, t1, static_cast<int64_t>(id));
    TraceCounters(tracer_, *db_, t1);
    r->submit_us.Add(static_cast<double>(t1 - t0) * 1e-3);
    in_flight_.push_back({std::move(q[0]), std::move(ticket), t0, id, span});
    ++r->attempted;
  }
}

void LoadGenerator::Record(const InFlight& f, IntervalResult* r,
                           OracleSample* sample) {
  if (!f.ticket.status().ok()) {
    ++r->failed;
    return;
  }
  ++r->ok;
  const sdw::core::QueryMetrics m = f.ticket.metrics();
  const double latency =
      static_cast<double>(m.finish_nanos - f.submit_nanos) * 1e-9;
  if (r->end_nanos == 0 || m.finish_nanos <= r->end_nanos) {
    ++r->completed_in_interval;
    // Completions are observed within a poll period, so the window they
    // finished in is the open one or, just after a boundary, the one before.
    for (auto w = r->windows.rbegin(); w != r->windows.rend(); ++w) {
      if (m.finish_nanos >= w->start_nanos) {
        w->latency_s.Add(latency);
        break;
      }
    }
  }
  r->queue_wait_s.Add(m.queue_wait_seconds());
  r->run_s.Add(m.run_seconds());
  if (sample != nullptr) sample->Offer(f.query, f.ticket);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
