// The repository benchmark binary: one run of one workload in a fresh
// process (Breakdown is a process-global singleton and peak RSS is per
// process, so workloads never share a process).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// A run sets up kSetupReps times (SSB generation, Engine construction,
// untimed warm-up; setup_s is the median), then drives the last engine from
// one load-generator thread. --trace 0 measures intervals of at least
// --seconds under the steal rule (see Run) and prints the end-to-end
// metrics of the quietest; --trace 1 measures one interval of twice
// --seconds whose one-second windows alternate traced and untraced, records
// spans and counter snapshots in the traced ones, writes them as a Chrome
// trace and prints the per-layer metrics, including the tracing overhead of
// the traced windows against the untraced ones and the tracer's own
// recording time.
// Either way a seeded sample of the completed queries is re-run on the
// Volcano oracle, and key=value lines (per-interval steal, cores used and
// percentile sample counts) precede the final JSON result line.

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kOracleSamples = 12;
// Set-ups per run; setup_s and the set-up layer metrics are their medians.
constexpr int kSetupReps = 5;
// Steal rule of untraced runs (see Run): a one-second window is quiet when
// at most kQuietSteal of host CPU time was stolen in it, and an interval may
// take up to kBudgetFactor times --seconds to collect --seconds of quiet
// windows.
constexpr double kQuietSteal = 0.02;
constexpr int kBudgetFactor = 3;
// Nearest-rank p95 of n samples has n - ceil(0.95 n) samples beyond it: at
// least ten from 200 samples on.
constexpr uint64_t kMinLatencySamples = 200;
// Exit code of a run that completed but failed a correctness check (its
// result line is still printed, with "correct": false).
constexpr int kIncorrectExit = 3;
constexpr uint64_t kWarmupSeedSalt = 0x9e3779b97f4a7c15ULL;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_dir = ".";
};

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    long long n = 0;
    bool ok = true;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--trace-dir") {
      a->trace_dir = v;
    } else if (flag == "--seed") {
      ok = ParseInt(v, 0, INT64_MAX, &n);
      a->seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      ok = ParseInt(v, 1, 3600, &n);
      a->seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      ok = ParseInt(v, 0, 1, &n);
      a->trace = static_cast<int>(n);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), v);
      return false;
    }
  }
  if (a->workload.empty() || a->seconds == 0 || a->trace < 0) {
    std::fprintf(stderr, "--workload, --seconds and --trace are required\n");
    return false;
  }
  return true;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN/Inf: a non-finite value is reported as 0 (the run is
    // then already marked incorrect: it only arises with no completions).
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

double PerQuery(double total, uint64_t completions) {
  return total / static_cast<double>(completions);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

/// The windows the end-to-end metrics come from: every quiet window, plus,
/// while they hold less than `min_nanos` or kMinLatencySamples completions,
/// the least-stolen of the others. The first (ramp-up) window is left out
/// unless it is the only one.
struct Selection {
  size_t windows = 0;
  double seconds = 0;
  double cpu_seconds = 0;
  double steal = 0;  // time-weighted over the selected windows
  sdw::Stats latency_s;
};

Selection SelectWindows(const IntervalResult& r, int64_t min_nanos) {
  std::vector<const Window*> order;
  for (const Window& w : r.windows) order.push_back(&w);
  if (order.size() > 1) order.erase(order.begin());
  std::stable_sort(order.begin(), order.end(),
                   [](const Window* a, const Window* b) {
                     return a->steal < b->steal;
                   });
  Selection s;
  for (const Window* w : order) {
    if (w->steal > kQuietSteal && s.seconds * 1e9 >= min_nanos &&
        s.latency_s.count() >= kMinLatencySamples) {
      break;
    }
    ++s.windows;
    s.seconds += w->seconds();
    s.cpu_seconds += static_cast<double>(w->cpu_nanos) * 1e-9;
    s.steal += w->steal * w->seconds();
    for (double v : w->latency_s.samples()) s.latency_s.Add(v);
  }
  s.steal /= s.seconds;
  return s;
}

double CoresUsed(const IntervalResult& r) {
  return static_cast<double>(r.at_end.cpu_nanos - r.at_start.cpu_nanos) /
         static_cast<double>(r.at_end.wall_nanos - r.at_start.wall_nanos);
}

/// Samples beyond the nearest-rank `q` quantile of `n` samples.
size_t TailSamples(size_t n, double q) {
  return n - static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
}

/// CPU milliseconds per query completed within the interval.
double CpuMsPerQuery(const IntervalResult& r) {
  return PerQuery(
      static_cast<double>(r.at_end.cpu_nanos - r.at_start.cpu_nanos) * 1e-6,
      r.completed_in_interval);
}

/// CPU per query in the traced windows over that in the untraced ones,
/// minus one. The first (ramp-up) window is left out; 0 when either side
/// completed nothing.
double TracingOverhead(const IntervalResult& r) {
  std::array<double, 2> cpu{};
  std::array<double, 2> queries{};
  for (size_t i = 1; i < r.windows.size(); ++i) {
    const Window& w = r.windows[i];
    cpu[w.traced] += static_cast<double>(w.cpu_nanos);
    queries[w.traced] += static_cast<double>(w.latency_s.count());
  }
  if (queries[0] == 0 || queries[1] == 0) return 0;
  return (cpu[1] / queries[1]) / (cpu[0] / queries[0]) - 1;
}

/// Process CPU of the interval's traced windows, seconds.
double TracedCpuSeconds(const IntervalResult& r) {
  int64_t nanos = 0;
  for (const Window& w : r.windows) {
    if (w.traced) nanos += w.cpu_nanos;
  }
  return static_cast<double>(nanos) * 1e-9;
}

std::vector<Metric> LayerMetrics(const IntervalResult& r, double ssb_build_s,
                                 double engine_build_s, double verify_s,
                                 double trace_overhead,
                                 double trace_self_s) {
  const uint64_t n = r.completed_in_interval;
  const LayerCounters& a = r.at_start;
  const LayerCounters& b = r.at_end;
  const double cpu_ms = CpuMsPerQuery(r);
  const auto bucket_ms = [&](sdw::Component c) {
    const size_t i = static_cast<size_t>(c);
    return PerQuery((b.breakdown_s[i] - a.breakdown_s[i]) * 1e3, n);
  };
  double attributed_ms = 0;
  for (int i = 0; i < sdw::kNumComponents; ++i) {
    attributed_ms += bucket_ms(static_cast<sdw::Component>(i));
  }
  const sdw::cjoin::CjoinStats& ca = a.cjoin;
  const sdw::cjoin::CjoinStats& cb = b.cjoin;
  using sdw::Component;
  return {
      {"ssb.build_s", ssb_build_s, "s"},
      {"core.engine_build_s", engine_build_s, "s"},
      {"storage.device_mb_per_query",
       PerQuery(static_cast<double>(b.device_bytes - a.device_bytes) * 1e-6,
                n),
       "MB"},
      {"storage.logical_reads_per_query",
       PerQuery(static_cast<double>(b.logical_reads - a.logical_reads), n),
       "count"},
      {"storage.pool_hit_ratio",
       Ratio(b.pool_hits - a.pool_hits,
             b.pool_hits - a.pool_hits + b.pool_misses - a.pool_misses),
       "ratio"},
      {"core.submit_us_p50", r.submit_us.Percentile(50), "us"},
      {"core.queue_wait_p50_s", r.queue_wait_s.Percentile(50), "s"},
      {"core.run_p50_s", r.run_s.Percentile(50), "s"},
      {"cjoin.fact_pages_per_query",
       PerQuery(static_cast<double>(cb.fact_pages_scanned -
                                    ca.fact_pages_scanned),
                n),
       "count"},
      {"cjoin.admission_ms_per_query",
       PerQuery((cb.admission_seconds - ca.admission_seconds) * 1e3, n),
       "ms"},
      {"cjoin.dim_scans_per_admission",
       Ratio(cb.admission_dim_scans - ca.admission_dim_scans,
             cb.admission_batches - ca.admission_batches),
       "count"},
      {"cjoin.fold_ratio",
       Ratio(cb.queries_folded - ca.queries_folded,
             cb.queries_admitted - ca.queries_admitted),
       "ratio"},
      {"cjoin.rejected",
       static_cast<double>(cb.queries_rejected - ca.queries_rejected +
                           cb.queries_rejected_overload -
                           ca.queries_rejected_overload),
       "count"},
      {"cjoin.agg_folds_per_query",
       PerQuery(static_cast<double>(cb.agg_batches_folded -
                                    ca.agg_batches_folded),
                n),
       "count"},
      {"cjoin.agg_merge_ms_per_query",
       PerQuery(static_cast<double>(cb.agg_merge_nanos - ca.agg_merge_nanos) *
                    1e-6,
                n),
       "ms"},
      {"cjoin.batch_pool_hit_ratio",
       Ratio(cb.batch_pool_hits - ca.batch_pool_hits,
             cb.batch_pool_hits - ca.batch_pool_hits + cb.batch_pool_misses -
                 ca.batch_pool_misses),
       "ratio"},
      {"qpipe.scan_shares_per_query",
       PerQuery(static_cast<double>(b.sp.scan_shares - a.sp.scan_shares), n),
       "count"},
      {"qpipe.join_shares_per_query",
       PerQuery(static_cast<double>(b.sp.join_shares_total() -
                                    a.sp.join_shares_total()),
                n),
       "count"},
      {"cpu.joins_ms_per_query", bucket_ms(Component::kJoins), "ms"},
      {"cpu.hashing_ms_per_query", bucket_ms(Component::kHashing), "ms"},
      {"cpu.scans_ms_per_query", bucket_ms(Component::kScans), "ms"},
      {"cpu.aggregation_ms_per_query", bucket_ms(Component::kAggregation),
       "ms"},
      {"cpu.locks_ms_per_query", bucket_ms(Component::kLocks), "ms"},
      {"cpu.misc_ms_per_query", bucket_ms(Component::kMisc), "ms"},
      {"cpu.unattributed_ms_per_query", cpu_ms - attributed_ms, "ms"},
      {"host.cores_used", CoresUsed(r), "cores"},
      {"host.steal_frac", StealFraction(r.host_start, r.host_end), "ratio"},
      {"baseline.verify_s", verify_s, "s"},
      {"trace.overhead_frac", trace_overhead, "ratio"},
      {"trace.self_cost_frac", trace_self_s / TracedCpuSeconds(r), "ratio"},
  };
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Tracer tracer(args.trace == 1);
  std::vector<double> setup_s;
  std::vector<double> ssb_s;
  std::vector<double> engine_s;
  uint64_t warmup_failed = 0;
  std::unique_ptr<Database> db;
  std::unique_ptr<sdw::core::Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();  // the engine reads the catalog: destroy it first
    db.reset();
    ScopedSpan setup(&tracer, "setup");
    {
      ScopedSpan span(&tracer, "BuildSsbDatabase");
      db = BuildDatabase(*spec, args.seed);
      ssb_s.push_back(span.ElapsedSeconds());
    }
    {
      ScopedSpan span(&tracer, "Engine::Engine");
      engine = std::make_unique<sdw::core::Engine>(
          &db->catalog, db->pool.get(), MakeEngineOptions(*spec));
      engine_s.push_back(span.ElapsedSeconds());
    }
    {
      ScopedSpan span(&tracer, "warmup");
      QueryStream warm_stream(*spec, args.seed ^ kWarmupSeedSalt);
      LoadGenerator warm(engine.get(), db.get(), *spec, &warm_stream,
                         &tracer);
      warmup_failed +=
          warm.Run({.min_completions = spec->warmup_queries}, nullptr).failed;
    }
    setup_s.push_back(setup.ElapsedSeconds());
  }

  {
    ScopedSpan span(&tracer, "ResetCounters");
    ResetCounters(engine.get(), db.get());
  }
  TraceCounters(&tracer, *db, sdw::NowNanos());
  const int64_t interval_nanos = int64_t{args.seconds} * 1'000'000'000;
  QueryStream stream(*spec, args.seed);
  OracleSample sample(kOracleSamples, args.seed);
  LoadGenerator gen(engine.get(), db.get(), *spec, &stream, &tracer);
  IntervalResult timed;
  double trace_overhead = 0;
  double trace_self_s = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = warmup_failed;
  if (args.trace == 1) {
    // Traced and untraced windows alternate within one interval, so host
    // and engine drift falls on both alike; the per-layer metrics cover the
    // whole interval.
    ScopedSpan span(&tracer, "timed_interval");
    const int64_t nanos = 2 * interval_nanos;
    const int64_t self_before = tracer.self_nanos();
    timed = gen.Run({.min_nanos = nanos, .max_nanos = nanos}, &sample,
                    /*alternate_tracing=*/true);
    trace_overhead = TracingOverhead(timed);
    trace_self_s =
        static_cast<double>(tracer.self_nanos() - self_before) * 1e-9;
  } else {
    // Steal rule: hypervisor steal slows wall-clock metrics far more than
    // its share (see METHODOLOGY.md), so the interval runs until its quiet
    // one-second windows add up to --seconds and hold kMinLatencySamples
    // completions, or until the budget is spent, and the end-to-end metrics
    // come from the windows SelectWindows picks.
    timed = gen.Run({.min_nanos = interval_nanos,
                     .min_completions = kMinLatencySamples,
                     .max_nanos = kBudgetFactor * interval_nanos,
                     .quiet_steal = kQuietSteal},
                    &sample);
  }
  attempted += timed.attempted;
  ok += timed.ok;
  failed += timed.failed;

  // The oracle reads the same catalog through its own memory-resident
  // device and pool, so it neither pays simulated I/O nor disturbs the
  // engine's pool.
  sdw::storage::StorageDevice oracle_device(
      sdw::storage::DeviceOptions{.memory_resident = true});
  sdw::storage::BufferPool oracle_pool(&oracle_device, 0);
  const sdw::baseline::VolcanoEngine oracle(&db->catalog, &oracle_pool);
  const OracleSample::Outcome verdict = sample.Verify(oracle, &tracer);
  if (verdict.mismatches > 0) {
    std::fprintf(stderr, "oracle mismatch (%zu of %zu sampled): %s\n",
                 verdict.mismatches, verdict.checked,
                 verdict.first_diff.c_str());
  }

  bool correct = timed.completed_in_interval > 0 && failed == 0 &&
                 verdict.mismatches == 0 && verdict.checked > 0;
  size_t quiet = 0;
  for (const Window& w : timed.windows) quiet += w.steal <= kQuietSteal;
  std::printf("workload=%s seed=%llu trace=%d oracle_checked=%zu "
              "oracle_mismatches=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace,
              verdict.checked, verdict.mismatches);
  std::printf("interval: seconds=%.2f windows=%zu quiet_windows=%zu "
              "host.steal_frac=%.4f host.cores_used=%.3f\n",
              static_cast<double>(timed.end_nanos - timed.start_nanos) * 1e-9,
              timed.windows.size(), quiet,
              StealFraction(timed.host_start, timed.host_end),
              CoresUsed(timed));
  if (args.trace == 1) {
    const std::string path = args.trace_dir + "/trace_" + args.workload +
                             "_" + std::to_string(args.seed) + ".json";
    if (!tracer.WriteChromeJson(path)) {
      std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
      return 1;
    }
    std::printf("trace=%s spans=%zu\n", path.c_str(), tracer.num_spans());
    PrintResult(correct, attempted, failed,
                LayerMetrics(timed, Median(ssb_s), Median(engine_s),
                             verdict.seconds, trace_overhead, trace_self_s));
  } else {
    const Selection sel = SelectWindows(timed, interval_nanos);
    std::printf("selected: seconds=%.2f windows=%zu host.steal_frac=%.4f "
                "host.cores_used=%.3f latency_samples=%zu "
                "p95_tail_samples=%zu\n",
                sel.seconds, sel.windows, sel.steal,
                sel.cpu_seconds / sel.seconds, sel.latency_s.count(),
                TailSamples(sel.latency_s.count(), 0.95));
    const double n = static_cast<double>(sel.latency_s.count());
    correct = correct && n > 0;
    PrintResult(
        correct, attempted, failed,
        {{"throughput_qps", n / sel.seconds, "1/s"},
         {"latency_p50_s", sel.latency_s.Percentile(50), "s"},
         {"latency_p95_s", sel.latency_s.Percentile(95), "s"},
         {"cpu_ms_per_query", sel.cpu_seconds * 1e3 / n, "ms"},
         {"success_rate",
          Ratio(ok - std::min<uint64_t>(ok, verdict.mismatches), attempted),
          "ratio"},
         {"peak_rss_mb", PeakRssMb(), "MB"},
         {"setup_s", Median(setup_s), "s"}});
  }
  return correct ? 0 : kIncorrectExit;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  return perfbench::Run(args);
}
