// End-to-end CJOIN pipeline test over a small SSB instance: results must
// match the query-centric Volcano comparator, a warmed pipeline must be
// allocation-free in steady state (batch recycling pool hit rate ~1), and
// slot allocation must keep the live slots packed at the bottom so the
// bitmap stays one word at any cap while <= 64 queries are live.

#include <cstdio>

#include "core/engine.h"
#include "harness/driver.h"
#include "ssb/ssb_generator.h"
#include "ssb/workload.h"
#include "storage/buffer_pool.h"
#include "storage/storage_device.h"

using namespace sdw;

static void RunConfig(core::EngineConfig config, storage::Catalog* catalog,
                      storage::BufferPool* pool,
                      const baseline::VolcanoEngine* volcano) {
  core::EngineOptions opts;
  opts.config = config;
  opts.cjoin.max_queries = 64;  // exercise the one-word bitmap fast path
  core::Engine engine(catalog, pool, opts);

  const auto queries = ssb::RandomQ32Workload(4, /*seed=*/11);

  // First batch: results verified against the unshared comparator; the
  // batch pool warms up here (misses allowed).
  harness::RunMetrics m1 =
      harness::RunBatch(&engine, pool, queries, /*clear_caches=*/true,
                        volcano);
  SDW_CHECK(m1.completed == queries.size());
  SDW_CHECK(m1.cjoin.queries_completed == queries.size());
  SDW_CHECK(m1.cjoin.fact_pages_scanned > 0);

  // Second batch on the warm pipeline: batches must come from the recycling
  // pool. Misses are legitimate up to the max-alive bound — a run that backs
  // the pipeline up deeper than any run before it allocates new high-water
  // batches, and how deep the backlog gets is scheduling-dependent (under
  // sanitizers on a loaded machine, several batches deeper than a quiet
  // run). The structural claim is that recycling dominates: misses stay an
  // order of magnitude below hits, never one allocation per batch.
  harness::RunMetrics m2 =
      harness::RunBatch(&engine, pool, queries, /*clear_caches=*/true,
                        volcano);
  SDW_CHECK(m2.completed == queries.size());
  SDW_CHECK_MSG(m2.cjoin.batch_pool_hits > 0, "pool never hit on warm run");
  SDW_CHECK_MSG(
      m2.cjoin.batch_pool_misses * 10 <= m2.cjoin.batch_pool_hits,
      "warm pipeline allocated %llu batches (%llu recycled)",
      static_cast<unsigned long long>(m2.cjoin.batch_pool_misses),
      static_cast<unsigned long long>(m2.cjoin.batch_pool_hits));
  std::printf("%s: %llu pages, pool hits=%llu misses=%llu\n",
              core::EngineConfigName(config),
              static_cast<unsigned long long>(m2.cjoin.fact_pages_scanned),
              static_cast<unsigned long long>(m2.cjoin.batch_pool_hits),
              static_cast<unsigned long long>(m2.cjoin.batch_pool_misses));
}

// Cap 1024, several generations of 64 queries: lowest-first allocation
// reuses slots [0, 64) every generation, so the bitmap never leaves one word
// (any slot >= 64 would have forced a width change) and every generation
// after the first is admitted entirely into recycled slots. Each RunBatch
// resets the engine counters, so the checks are per generation.
static void SlotsStayLow(storage::Catalog* catalog, storage::BufferPool* pool,
                         const baseline::VolcanoEngine* volcano) {
  core::EngineOptions opts;
  opts.config = core::EngineConfig::kCjoin;
  opts.cjoin.max_queries = 1024;
  core::Engine engine(catalog, pool, opts);
  constexpr uint64_t kGenerations = 4;
  for (uint64_t gen = 0; gen < kGenerations; ++gen) {
    const auto queries = ssb::RandomQ32Workload(64, /*seed=*/500 + gen);
    // Verify against the comparator on the first and last generation only:
    // the middle ones exercise allocation, not results.
    const bool verify = gen == 0 || gen + 1 == kGenerations;
    const harness::RunMetrics m = harness::RunBatch(
        &engine, pool, queries, /*clear_caches=*/false,
        verify ? volcano : nullptr);
    SDW_CHECK(m.completed == queries.size());
    SDW_CHECK_MSG(m.cjoin.bitmap_words == 1 &&
                      m.cjoin.bitmap_width_changes == 0,
                  "generation %llu at cap 1024: width %llu after %llu changes",
                  static_cast<unsigned long long>(gen),
                  static_cast<unsigned long long>(m.cjoin.bitmap_words),
                  static_cast<unsigned long long>(
                      m.cjoin.bitmap_width_changes));
    SDW_CHECK_MSG(m.cjoin.slot_recycles == (gen == 0 ? 0u : 64u),
                  "generation %llu: %llu recycled slots",
                  static_cast<unsigned long long>(gen),
                  static_cast<unsigned long long>(m.cjoin.slot_recycles));
  }
  std::printf("cap 1024, %llu generations x 64 queries: one-word bitmap\n",
              static_cast<unsigned long long>(kGenerations));
}

int main() {
  storage::Catalog catalog;
  ssb::SsbOptions ssb_opts;
  ssb_opts.scale_factor = 0.01;
  ssb::BuildSsbDatabase(&catalog, ssb_opts);

  storage::DeviceOptions dev_opts;
  storage::StorageDevice device(dev_opts);
  storage::BufferPool pool(&device, 0);
  const baseline::VolcanoEngine volcano(&catalog, &pool);

  RunConfig(core::EngineConfig::kCjoin, &catalog, &pool, &volcano);
  RunConfig(core::EngineConfig::kCjoinSp, &catalog, &pool, &volcano);
  SlotsStayLow(&catalog, &pool, &volcano);
  std::printf("cjoin_pipeline_test: OK\n");
  return 0;
}
