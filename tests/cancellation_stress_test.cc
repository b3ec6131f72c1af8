// Cancellation stress test for the QueryTicket lifecycle across all three
// execution layers, verified against the Volcano oracle:
//  * the acceptance scenario: a 64-query CJOIN batch with half the tickets
//    cancelled mid-flight — survivors produce exactly the oracle's results,
//    every ticket's Wait() returns (no future left unsatisfied), and every
//    cancelled slot is recycled by the next batch (slot_recycles stat);
//  * CJOIN-SP host cancelled while satellites are live: the shared packet
//    keeps producing (the host merely detaches) and every satellite's
//    result still matches the oracle;
//  * cancellation racing the admission pause (pending-query rejection) and
//    cancellation after completion (a no-op: the ticket stays kOk);
//  * QPipe configurations under both communication models: cancel half a
//    batch, survivors stay correct (consumer-driven cascade through
//    PageSink::Abandoned);
//  * row_limit streaming truncation (kOk with exactly the requested rows)
//    and CJOIN slot-capacity exhaustion (kResourceExhausted, deterministic);
//  * a deadline that expires before submission (rejected pre-wiring).
//
// Run under ASAN and TSAN in CI: the cancel/complete races are the point.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "baseline/volcano.h"
#include "common/macros.h"
#include "core/engine.h"
#include "core/query_ticket.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "ssb/ssb_schema.h"
#include "ssb/workload.h"
#include "storage/buffer_pool.h"
#include "storage/storage_device.h"

using namespace sdw;

namespace {

struct Db {
  storage::Catalog catalog;
  std::unique_ptr<storage::StorageDevice> device;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<baseline::VolcanoEngine> oracle;
};

std::unique_ptr<Db> MakeDb() {
  auto db = std::make_unique<Db>();
  ssb::SsbOptions opts;
  opts.scale_factor = 0.01;
  ssb::BuildSsbDatabase(&db->catalog, opts);
  db->device =
      std::make_unique<storage::StorageDevice>(storage::DeviceOptions{});
  db->pool = std::make_unique<storage::BufferPool>(db->device.get(), 0);
  db->oracle =
      std::make_unique<baseline::VolcanoEngine>(&db->catalog, db->pool.get());
  return db;
}

core::EngineOptions Opts(core::EngineConfig config,
                         core::CommModel comm = core::CommModel::kPull,
                         size_t max_queries = 64) {
  core::EngineOptions o;
  o.config = config;
  o.comm = comm;
  o.cjoin.max_queries = max_queries;
  return o;
}

/// Cancelled tickets may still win the race and complete: their status must
/// be kOk or kCancelled, and a kOk result must be the full correct result.
void CheckCancelledOrCorrect(Db* db, const query::StarQuery& q,
                             const core::QueryTicket& t, const char* what) {
  const Status s = t.Wait();
  if (s.ok()) {
    const std::string diff =
        query::DiffResults(db->oracle->Execute(q), t.result());
    SDW_CHECK_MSG(diff.empty(), "%s: completed-despite-cancel mismatch: %s",
                  what, diff.c_str());
  } else {
    SDW_CHECK_MSG(s.code() == StatusCode::kCancelled,
                  "%s: cancelled ticket finished %s", what,
                  s.ToString().c_str());
  }
}

void CheckSurvivor(Db* db, const query::StarQuery& q,
                   const core::QueryTicket& t, const char* what) {
  const Status s = t.Wait();
  SDW_CHECK_MSG(s.ok(), "%s: survivor finished %s", what,
                s.ToString().c_str());
  const std::string diff =
      query::DiffResults(db->oracle->Execute(q), t.result());
  SDW_CHECK_MSG(diff.empty(), "%s: survivor mismatch: %s", what, diff.c_str());
}

// The acceptance scenario. 64 concurrent CJOIN queries fill the slot
// capacity exactly; half are cancelled mid-flight. Survivors must match the
// oracle, every Wait() must return, and a follow-up batch must recycle the
// retired slots (free pool is empty, so every admission recycles).
void TestCjoinBatch64HalfCancelled(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(core::EngineConfig::kCjoin));
  const auto queries = ssb::RandomQ32Workload(64, 6400);
  const auto tickets = engine.SubmitBatch(queries);
  // Cancel strictly mid-flight: after the (single) admission epoch placed
  // all 64 queries in slots — which also makes the free pool deterministically
  // empty for the recycling assertion below.
  while (engine.cjoin_stats().queries_admitted < 64) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (size_t i = 0; i < tickets.size(); i += 2) tickets[i].Cancel();
  for (size_t i = 0; i < tickets.size(); ++i) {
    if (i % 2 == 0) {
      CheckCancelledOrCorrect(db, queries[i], tickets[i], "batch64");
    } else {
      CheckSurvivor(db, queries[i], tickets[i], "batch64");
    }
  }
  engine.WaitAll();  // every slot retired (cancelled ones at a pause)

  const cjoin::CjoinStats after = engine.cjoin_stats();
  SDW_CHECK_MSG(after.queries_cancelled + after.queries_completed == 64,
                "batch64 accounting: %llu cancelled + %llu completed != 64",
                static_cast<unsigned long long>(after.queries_cancelled),
                static_cast<unsigned long long>(after.queries_completed));

  // Slot recycling: batch 1 consumed all 64 free slots, so this batch can
  // only be admitted from recycled ones.
  const auto queries2 = ssb::RandomQ32Workload(8, 6500);
  const auto tickets2 = engine.SubmitBatch(queries2);
  for (size_t i = 0; i < tickets2.size(); ++i) {
    CheckSurvivor(db, queries2[i], tickets2[i], "batch64-recycle");
  }
  engine.WaitAll();
  const cjoin::CjoinStats recycled = engine.cjoin_stats();
  SDW_CHECK_MSG(recycled.slot_recycles >= 8,
                "freed slots were not reused: %llu recycles",
                static_cast<unsigned long long>(recycled.slot_recycles));
}

// CJOIN-SP: 6 identical queries share one CJOIN packet (1 host + 5
// satellites). Cancelling the host must not starve the satellites — the
// registry keeps the packet alive until every consumer detaches.
void TestHostCancelWithLiveSatellites(Db* db) {
  for (const auto comm : {core::CommModel::kPull, core::CommModel::kPush}) {
    core::Engine engine(&db->catalog, db->pool.get(),
                        Opts(core::EngineConfig::kCjoinSp, comm));
    const auto queries = ssb::SimilarQ32Workload(6, 1, 6600);
    const auto tickets = engine.SubmitBatch(queries);
    tickets[0].Cancel();  // the first query wired is the packet's host
    CheckCancelledOrCorrect(db, queries[0], tickets[0], "host-cancel");
    for (size_t i = 1; i < tickets.size(); ++i) {
      CheckSurvivor(db, queries[i], tickets[i], "host-cancel satellite");
    }
    engine.WaitAll();
    SDW_CHECK(engine.cjoin_stats().queries_admitted == 1);
  }
}

// CJOIN-SP: cancelling EVERY consumer of a shared packet retires its slot
// early (all-detached group signal) and all waits return.
void TestAllConsumersCancelled(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(core::EngineConfig::kCjoinSp));
  const auto queries = ssb::SimilarQ32Workload(4, 1, 6700);
  const auto tickets = engine.SubmitBatch(queries);
  for (const auto& t : tickets) t.Cancel();
  for (size_t i = 0; i < tickets.size(); ++i) {
    CheckCancelledOrCorrect(db, queries[i], tickets[i], "all-cancelled");
  }
  engine.WaitAll();
}

// Cancellation racing the admission pause: batch B is cancelled right after
// submission, while batch A keeps the pipeline busy — B's queries are
// either rejected while pending, retired after admission, or (rarely)
// complete. All waits must return with a sane status either way.
void TestCancelDuringAdmissionPause(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(core::EngineConfig::kCjoin));
  const auto batch_a = ssb::RandomQ32Workload(4, 6800);
  const auto batch_b = ssb::RandomQ32Workload(4, 6900);
  const auto tickets_a = engine.SubmitBatch(batch_a);
  const auto tickets_b = engine.SubmitBatch(batch_b);
  for (const auto& t : tickets_b) t.Cancel();
  for (size_t i = 0; i < tickets_a.size(); ++i) {
    CheckSurvivor(db, batch_a[i], tickets_a[i], "pause-race A");
  }
  for (size_t i = 0; i < tickets_b.size(); ++i) {
    CheckCancelledOrCorrect(db, batch_b[i], tickets_b[i], "pause-race B");
  }
  engine.WaitAll();
}

// Cancel after completion is a no-op: the ticket keeps kOk and its result.
void TestCancelAfterCompletionIsNoOp(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(core::EngineConfig::kCjoinSp));
  const query::StarQuery q = ssb::MakeQ32({});
  const auto ticket = engine.Submit(q);
  SDW_CHECK(ticket.Wait().ok());
  const size_t rows = ticket.result().num_rows();
  ticket.Cancel();
  SDW_CHECK(ticket.status().ok());
  SDW_CHECK(ticket.result().num_rows() == rows);
  const std::string diff =
      query::DiffResults(db->oracle->Execute(q), ticket.result());
  SDW_CHECK_MSG(diff.empty(), "post-cancel result changed: %s", diff.c_str());
}

// QPipe configurations: cancel half a batch under both communication
// models; survivors must stay correct through the SP sharing graph.
void TestQpipeCancelHalf(Db* db) {
  for (const auto config :
       {core::EngineConfig::kQpipe, core::EngineConfig::kQpipeSp}) {
    for (const auto comm : {core::CommModel::kPull, core::CommModel::kPush}) {
      core::Engine engine(&db->catalog, db->pool.get(), Opts(config, comm));
      const auto queries = ssb::SimilarQ32Workload(8, 2, 7000);
      const auto tickets = engine.SubmitBatch(queries);
      for (size_t i = 0; i < tickets.size(); i += 2) tickets[i].Cancel();
      for (size_t i = 0; i < tickets.size(); ++i) {
        if (i % 2 == 0) {
          CheckCancelledOrCorrect(db, queries[i], tickets[i], "qpipe-half");
        } else {
          CheckSurvivor(db, queries[i], tickets[i], "qpipe-half survivor");
        }
      }
      engine.WaitAll();
    }
  }
}

// row_limit: the drain truncates at exactly the requested row count,
// completes kOk, and (CJOIN) the detached slot retires early.
void TestRowLimitStreamingTruncation(Db* db) {
  // A high-selectivity query with thousands of result rows, so the limit
  // genuinely truncates the stream.
  const query::StarQuery q = ssb::SelectivityQ32Workload(1, 0.3, 7300)[0];
  SDW_CHECK(db->oracle->Execute(q).num_rows() > 100);
  for (const auto config :
       {core::EngineConfig::kQpipeSp, core::EngineConfig::kCjoin}) {
    core::Engine engine(&db->catalog, db->pool.get(), Opts(config));
    core::SubmitOptions opts;
    opts.row_limit = 100;
    const auto ticket = engine.Submit(q, opts);
    const Status s = ticket.Wait();
    SDW_CHECK_MSG(s.ok(), "row-limited query finished %s",
                  s.ToString().c_str());
    SDW_CHECK(ticket.result().num_rows() == 100);
    SDW_CHECK(ticket.rows_so_far() == 100);
    engine.WaitAll();
  }
}

// Slot-capacity exhaustion: 4 concurrent queries against capacity 2 land in
// one admission epoch — exactly 2 admitted, 2 rejected kResourceExhausted,
// and the rejected tickets' waits return (the silent-hang fix).
void TestSlotCapacityRejection(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(core::EngineConfig::kCjoin, core::CommModel::kPull,
                           /*max_queries=*/2));
  const auto queries = ssb::RandomQ32Workload(4, 7100);
  const auto tickets = engine.SubmitBatch(queries);
  size_t ok = 0, rejected = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const Status s = tickets[i].Wait();
    if (s.ok()) {
      ++ok;
      CheckSurvivor(db, queries[i], tickets[i], "capacity survivor");
    } else {
      SDW_CHECK_MSG(s.code() == StatusCode::kResourceExhausted,
                    "over-capacity query finished %s", s.ToString().c_str());
      ++rejected;
    }
  }
  SDW_CHECK_MSG(ok == 2 && rejected == 2,
                "capacity 2 with 4 queries: %zu ok, %zu rejected", ok,
                rejected);
  engine.WaitAll();
  SDW_CHECK(engine.cjoin_stats().queries_rejected == 2);
}

// A deadline that already expired rejects at submission, before any packet
// wiring, and metrics still carry the submission timestamp.
void TestExpiredDeadlineRejectedAtSubmit(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(core::EngineConfig::kQpipeSp));
  core::SubmitOptions opts;
  opts.deadline_nanos = 1;
  const auto tickets = engine.SubmitBatch(ssb::RandomQ32Workload(3, 7200), opts);
  for (const auto& t : tickets) {
    SDW_CHECK(t.Wait().code() == StatusCode::kDeadlineExceeded);
    SDW_CHECK(t.metrics().submit_nanos > 0);
  }
  engine.WaitAll();
}

}  // namespace

int main() {
  auto db = MakeDb();
  TestCjoinBatch64HalfCancelled(db.get());
  TestHostCancelWithLiveSatellites(db.get());
  TestAllConsumersCancelled(db.get());
  TestCancelDuringAdmissionPause(db.get());
  TestCancelAfterCompletionIsNoOp(db.get());
  TestQpipeCancelHalf(db.get());
  TestRowLimitStreamingTruncation(db.get());
  TestSlotCapacityRejection(db.get());
  TestExpiredDeadlineRejectedAtSubmit(db.get());
  std::printf("cancellation_stress_test: OK\n");
  return 0;
}
