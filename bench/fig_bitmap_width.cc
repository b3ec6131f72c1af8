// Load-adaptive bitmap width: CPU per query tracks the LIVE queries, not
// the slot cap.
//
// Not a paper figure — the paper sizes CJOIN's per-tuple bitmap by the
// number of concurrent queries (§2.5). Here the cap (CjoinOptions::
// max_queries) is only capacity: the bitmap is sized by the width class
// covering the live slots (docs/STORAGE.md, "Bitmap width"). The sweep runs
// batches of N concurrent random Q3.2 queries at slot caps 64 and 1024:
//
//   * at N <= 64 both caps run one-word bitmaps, so cap 1024 must cost the
//     same CPU per query as cap 64 (the shape check: within 5 %);
//   * at N = 256 only cap 1024 can admit the batch, and its bitmap widens
//     to 4 words for exactly as long as the load needs it.
//
// Each cell reports medians over --iterations measured batches (after one
// warm-up batch) on one engine per cap; the caps run alternately.

#include <algorithm>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

struct Cell {
  double cpu_ms_per_query = 0;
  double qps = 0;
  uint64_t bitmap_words = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Runs `live`-query batches on one engine per cap, alternating the caps
// batch by batch so host drift hits both alike. Caps that cannot admit the
// batch are skipped (their cell stays empty).
std::vector<Cell> RunLive(BenchDb* db, const std::vector<size_t>& caps,
                          size_t live, int iterations) {
  std::vector<std::unique_ptr<core::Engine>> engines;
  for (size_t cap : caps) {
    core::EngineOptions opts;
    opts.config = core::EngineConfig::kCjoin;
    opts.cjoin.max_queries = cap;
    engines.push_back(live <= cap ? std::make_unique<core::Engine>(
                                        &db->catalog, db->pool.get(), opts)
                                  : nullptr);
  }
  std::vector<std::vector<double>> cpu(caps.size()), qps(caps.size());
  std::vector<Cell> cells(caps.size());
  for (int it = 0; it <= iterations; ++it) {
    // The same query batch for every cap.
    const auto queries = ssb::RandomQ32Workload(
        live, 7000 + live * 100 + static_cast<uint64_t>(it));
    for (size_t c = 0; c < caps.size(); ++c) {
      if (engines[c] == nullptr) continue;
      const auto m = harness::RunBatch(engines[c].get(), db->pool.get(),
                                       queries, /*clear_caches=*/false);
      SDW_CHECK_MSG(m.completed == live, "cap %zu: %llu of %zu completed",
                    caps[c], static_cast<unsigned long long>(m.completed),
                    live);
      if (it == 0) continue;  // warm-up: filters, pools and scratch grow
      cpu[c].push_back(m.avg_cores * m.makespan_seconds * 1e3 /
                       static_cast<double>(live));
      qps[c].push_back(static_cast<double>(live) / m.makespan_seconds);
      cells[c].bitmap_words =
          std::max(cells[c].bitmap_words, m.cjoin.bitmap_words);
    }
  }
  for (size_t c = 0; c < caps.size(); ++c) {
    if (engines[c] == nullptr) continue;
    cells[c].cpu_ms_per_query = Median(cpu[c]);
    cells[c].qps = Median(qps[c]);
  }
  return cells;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.05);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 5));

  PrintHeader(
      "Load-adaptive bitmap width: CPU per query tracks live queries",
      "n/a (the paper sizes the bitmap by the concurrent queries, §2.5)",
      StrPrintf("SSB SF=%.3g memory-resident, CJOIN, random Q3.2 batches, "
                "medians of %d",
                sf, iterations)
          .c_str(),
      "a cap-1024 pipeline with <= 64 live queries runs one-word bitmaps "
      "and costs the same CPU per query as a cap-64 one");

  auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/true);

  const std::vector<size_t> caps = {64, 1024};
  const std::vector<size_t> lives = {16, 64, 256};
  harness::ReportTable table({"live", "cap", "bitmap words", "CPU ms/query",
                              "q/s"});
  // cells[live index][cap index]; cap 64 cannot admit 256 live queries.
  std::vector<std::vector<Cell>> cells;
  for (size_t live : lives) {
    cells.push_back(RunLive(db.get(), caps, live, iterations));
    for (size_t c = 0; c < caps.size(); ++c) {
      const Cell& x = cells.back()[c];
      if (live > caps[c]) {
        table.AddRow({std::to_string(live), std::to_string(caps[c]), "-",
                      "over capacity", "-"});
        continue;
      }
      table.AddRow({std::to_string(live), std::to_string(caps[c]),
                    std::to_string(x.bitmap_words),
                    StrPrintf("%.3f", x.cpu_ms_per_query),
                    StrPrintf("%.1f", x.qps)});
    }
  }
  table.Print();
  std::printf("\n");

  harness::ShapeChecker checker;
  for (size_t l = 0; l < lives.size(); ++l) {
    if (lives[l] > 64) continue;
    checker.Leq(StrPrintf("cap 1024 CPU/query within 5%% of cap 64 at %zu "
                          "live",
                          lives[l]),
                cells[l][1].cpu_ms_per_query, cells[l][0].cpu_ms_per_query,
                0.05);
    checker.Check(
        StrPrintf("cap 1024 keeps a one-word bitmap at %zu live", lives[l]),
        cells[l][1].bitmap_words == 1,
        StrPrintf("%llu words", static_cast<unsigned long long>(
                                    cells[l][1].bitmap_words)));
  }
  checker.Check("256 live queries widen the cap-1024 bitmap to 4 words",
                cells.back()[1].bitmap_words == 4,
                StrPrintf("%llu words", static_cast<unsigned long long>(
                                            cells.back()[1].bitmap_words)));
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
