// Load-adaptive bitmap width suite.
//
// The CJOIN per-tuple bitmap is sized by the live query slots, not by the
// slot cap: it grows at the admission pause that wires a slot beyond the
// current width and shrinks after CjoinPipeline::kShrinkAfterPauses
// consecutive pauses in which a narrower width class would have sufficed.
// Nothing about a width change may be observable in results:
//
//   * unit level: a Filter's match bits and a SharedAggregator's member
//     slices (slot members, folded members, members retired before the
//     re-width, unmerged partials) are bit-identical before and after it;
//   * engine level (cap 1024, Volcano oracle): a load ramp 16 → 200 → 16
//     live queries grows the width 1 → 4 and shrinks it back, with shared
//     aggregation on and off and with fact predicates applied in the
//     preprocessor; with query folding on, folded aggregate
//     satellites stay exact while their fold bits relocate across a grow
//     and across a shrink whose pause also retires a cancelled satellite.
//
// Assert-based like the other differential suites (SDW_CHECK, no gtest).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "baseline/volcano.h"
#include "cjoin/filter.h"
#include "cjoin/pipeline.h"
#include "cjoin/shared_agg.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "common/timing.h"
#include "core/engine.h"
#include "query/result.h"
#include "ssb/ssb_queries.h"
#include "ssb/ssb_schema.h"
#include "ssb/workload.h"
#include "test_util.h"

namespace sdw {
namespace {

using cjoin::CjoinPipeline;
using cjoin::CjoinStats;
using cjoin::Filter;
using cjoin::SharedAggregator;
using cjoin::TupleBatch;
using core::Engine;
using core::EngineOptions;
using core::QueryTicket;

testing::TestDb* Db() {
  // Big enough that a scan cycle outlives a few admission pauses (the fold
  // trial stages several while satellites are in flight), small enough for
  // the 120 s ctest budget.
  static testing::TestDb* db = testing::MakeSsbDb(0.02, 42).release();
  return db;
}

// ------------------------------------------------------------ Filter rows

// One processed batch, width-independent: each tuple's set slots, joined
// dimension row and liveness.
struct FilterOutput {
  std::vector<std::vector<uint32_t>> slots;
  std::vector<uint32_t> dim_rows;
  std::vector<bool> live;
  bool operator==(const FilterOutput&) const = default;
};

FilterOutput RunFilter(const Filter& filter, const std::vector<uint32_t>& on) {
  const storage::Table* fact = Db()->catalog.MustGetTable(ssb::kLineorder);
  TupleBatch batch;
  batch.fact_page = fact->SharePage(0);
  const uint32_t words = static_cast<uint32_t>(filter.words());
  batch.ResetFor(batch.fact_page->tuple_count(), words, /*filters=*/1);
  for (uint32_t i = 0; i < batch.num_tuples; ++i) {
    uint64_t* tb = batch.tuple_bits(i);
    bits::Zero(tb, words);
    for (uint32_t s : on) bits::Set(tb, s);
  }
  cjoin::FilterScratch scratch;
  filter.Process(&batch, &scratch);
  FilterOutput out;
  for (uint32_t i = 0; i < batch.num_tuples; ++i) {
    std::vector<uint32_t> set;
    for (size_t s = 0; s < words * 64; ++s) {
      if (bits::Test(batch.tuple_bits(i), s)) set.push_back(uint32_t(s));
    }
    out.slots.push_back(std::move(set));
    out.dim_rows.push_back(batch.tuple_dim_rows(i)[0]);
    out.live.push_back(batch.tuple_live(i));
  }
  return out;
}

query::Predicate NationPred(int nation) {
  query::Predicate p;
  p.And(query::AtomicPred::Str("s_nation", query::CompareOp::kEq,
                               std::string(ssb::NationName(nation))));
  return p;
}

// A cap-1024 filter re-laid 16 → 1 → 4 → 16 words: every live slot's match
// verdicts and the joined rows come out identical at every width, and a
// retired slot's bits are gone before the words holding it are dropped.
void FilterRewidthKeepsRows() {
  testing::TestDb* db = Db();
  const storage::Table* supplier = db->catalog.MustGetTable(ssb::kSupplier);
  const storage::Table* fact = db->catalog.MustGetTable(ssb::kLineorder);
  Filter filter(supplier, "lo_suppkey", "s_suppkey", 0, 1024);
  filter.BindFactColumn(fact->schema());
  SDW_CHECK(filter.words() == 16);
  for (uint32_t slot : {0u, 7u, 63u}) {
    SDW_CHECK(filter.AdmitQuery(slot, NationPred(int(slot % 25)),
                                db->pool.get())
                  .ok());
  }
  filter.SetPass(5);  // a live slot that does not reference this dimension
  SDW_CHECK(filter.AdmitQuery(100, NationPred(3), db->pool.get()).ok());
  const std::vector<uint32_t> narrow = {0, 5, 7, 63};
  const FilterOutput wide = RunFilter(filter, narrow);

  filter.RemoveQuery(100);
  filter.Rewidth(1);
  SDW_CHECK(RunFilter(filter, narrow) == wide);
  filter.Rewidth(4);
  SDW_CHECK(RunFilter(filter, narrow) == wide);

  // A slot beyond the old narrow width, admitted at width 4, survives the
  // grow back to full width bit-for-bit.
  SDW_CHECK(filter.AdmitQuery(200, NationPred(9), db->pool.get()).ok());
  std::vector<uint32_t> with_200 = narrow;
  with_200.push_back(200);
  const FilterOutput at4 = RunFilter(filter, with_200);
  filter.Rewidth(16);
  SDW_CHECK(RunFilter(filter, with_200) == at4);
  // Slot 100 was retired before the shrink: no stale bit resurfaced.
  const FilterOutput stale = RunFilter(filter, {100});
  for (bool l : stale.live) SDW_CHECK(!l);
}

// ----------------------------------------------------- SharedAggregator keys

// Two aggregators fed identical members and batches: `wide` keeps the
// cap-1024 width throughout (the reference), `adaptive` re-widths 1 → 4 → 1.
// After every step every live member's slice must be identical.
class AggTwin {
 public:
  static constexpr size_t kCapWords = 16;
  static constexpr size_t kFoldWords = 2;
  static constexpr size_t kParts = 2;

  AggTwin() : wide_(kParts, kCapWords, kCapWords + kFoldWords),
              adaptive_(kParts, kCapWords, kCapWords + kFoldWords) {
    adaptive_.Rewidth(1);
    gw_ = Setup(&wide_);
    ga_ = Setup(&adaptive_);
  }

  uint32_t fold_bit(uint32_t i) const { return wide_.fold_base() + i; }

  void AddSlot(uint32_t slot, const query::Predicate& p) {
    wide_.AddMember(gw_, slot, p.Bind(schema_));
    adaptive_.AddMember(ga_, slot, p.Bind(schema_));
    live_.push_back(slot);
  }
  void AddFolded(uint32_t bit, uint32_t host, const query::Predicate& p) {
    wide_.AddFoldedMember(gw_, bit, host, p.Bind(schema_), {});
    adaptive_.AddFoldedMember(ga_, bit, host, p.Bind(schema_), {});
    live_.push_back(bit);
  }
  void Retire(uint32_t bit) {
    SharedAggregator::MergePartials(gw_);
    SharedAggregator::MergePartials(ga_);
    SDW_CHECK(!wide_.RetireSlot(gw_, bit));
    SDW_CHECK(!adaptive_.RetireSlot(ga_, bit));
    live_.erase(std::find(live_.begin(), live_.end(), bit));
  }
  void Rewidth(size_t words) { adaptive_.Rewidth(words); }

  // Folds one random batch over `slots` (each tuple carries a random subset)
  // into both twins' `part` partials, at each twin's own width.
  void Fold(Rng* rng, const std::vector<uint32_t>& slots, size_t part) {
    const uint32_t n = static_cast<uint32_t>(rng->Uniform(1, 200));
    auto page = storage::Page::Make(schema_.tuple_size());
    std::vector<std::vector<uint32_t>> tuple_slots(n);
    for (uint32_t i = 0; i < n; ++i) {
      std::byte* t = page->AppendTuple();
      schema_.SetInt32(t, 0, static_cast<int32_t>(rng->Uniform(0, 6)));
      schema_.SetInt32(t, 1, static_cast<int32_t>(rng->Uniform(0, 50)));
      schema_.SetInt32(t, 2, static_cast<int32_t>(rng->Uniform(-9, 9)));
      for (uint32_t s : slots) {
        if (rng->Bernoulli(0.5)) tuple_slots[i].push_back(s);
      }
    }
    for (auto [agg, g] : {std::pair{&wide_, gw_}, std::pair{&adaptive_, ga_}}) {
      TupleBatch batch;
      batch.fact_page = page;
      const uint32_t words = static_cast<uint32_t>(agg->mask_words());
      batch.ResetFor(n, words, /*filters=*/0);
      for (uint32_t i = 0; i < n; ++i) {
        bits::Zero(batch.tuple_bits(i), words);
        for (uint32_t s : tuple_slots[i]) bits::Set(batch.tuple_bits(i), s);
        if (tuple_slots[i].empty()) batch.kill_tuple(i);
      }
      SharedAggregator::FoldScratch scratch;
      agg->FoldBatch(g, batch, schema_, nullptr, part,
                     /*preds_pre_applied=*/false, &scratch);
    }
  }

  // Every live member's slice, identical in both twins and non-trivial.
  void CheckSlices(const char* step) {
    SharedAggregator::MergePartials(gw_);
    SharedAggregator::MergePartials(ga_);
    size_t nonempty = 0;
    for (uint32_t bit : live_) {
      const std::vector<std::string> want = Rows(wide_, *gw_, bit);
      const std::vector<std::string> got = Rows(adaptive_, *ga_, bit);
      SDW_CHECK_MSG(got == want, "%s: member bit %u slice differs", step,
                    bit);
      if (!want.empty()) ++nonempty;
    }
    SDW_CHECK_MSG(nonempty * 2 >= live_.size(), "%s: slices mostly empty",
                  step);
  }

 private:
  SharedAggregator::Group* Setup(SharedAggregator* agg) {
    SharedAggregator::Group* g = agg->CreateGroup("width");
    g->join_schema = schema_;
    g->join_row_size = schema_.tuple_size();
    g->moves = {{/*from_fact=*/true, 0, 0, 0, 0, schema_.tuple_size()}};
    g->group_cols = {0};
    // Integer-exact sums: slices are compared byte for byte, so no
    // floating-point summation order may enter.
    g->aggs = {{query::AggSpec::Kind::kSum, 1, -1, -1, true, "s1"},
               {query::AggSpec::Kind::kSum, 2, -1, -1, true, "s2"}};
    g->out_schema = storage::Schema({storage::Schema::Int32("g"),
                                     storage::Schema::Int64("s1"),
                                     storage::Schema::Int64("s2")});
    g->key_width = schema_.column(0).width();
    return g;
  }

  static std::vector<std::string> Rows(const SharedAggregator& agg,
                                       const SharedAggregator::Group& g,
                                       uint32_t bit) {
    const SharedAggregator::AccTable& slice = agg.Slice(g, bit);
    std::vector<std::string> rows;
    SharedAggregator::RenderSlice(g, slice, &rows);
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  const storage::Schema schema_{{storage::Schema::Int32("g"),
                                 storage::Schema::Int32("v"),
                                 storage::Schema::Int32("w")}};
  SharedAggregator wide_;
  SharedAggregator adaptive_;
  SharedAggregator::Group* gw_ = nullptr;
  SharedAggregator::Group* ga_ = nullptr;
  std::vector<uint32_t> live_;  // member bits currently bound
};

query::Predicate ValuePred(query::CompareOp op, int64_t v) {
  query::Predicate p;
  p.And(query::AtomicPred::Int("v", op, v));
  return p;
}

void SharedAggRewidthKeepsSlices(uint64_t seed) {
  Rng rng(seed);
  AggTwin twin;
  // Slot members and folded members (fold bits in both fold words), with
  // and without fact predicates; slot 10 carries bits but is no member.
  twin.AddSlot(0, query::Predicate::True());
  twin.AddSlot(5, ValuePred(query::CompareOp::kLt, 30));
  twin.AddSlot(63, query::Predicate::True());
  twin.AddFolded(twin.fold_bit(0), 5, ValuePred(query::CompareOp::kGe, 10));
  twin.AddFolded(twin.fold_bit(1), 63, query::Predicate::True());
  twin.AddFolded(twin.fold_bit(65), 5, ValuePred(query::CompareOp::kLe, 40));
  const std::vector<uint32_t> low = {0, 5, 10, 63};
  twin.Fold(&rng, low, 0);
  twin.Fold(&rng, low, 1);
  twin.CheckSlices("width 1");

  // Grow just after two retirements, with an unmerged partial.
  twin.Retire(0);
  twin.Retire(twin.fold_bit(1));
  twin.Fold(&rng, low, 1);
  twin.Rewidth(4);
  twin.CheckSlices("grown to 4");

  // A slot beyond the old width, hosting a satellite of its own.
  twin.AddSlot(200, ValuePred(query::CompareOp::kGt, 5));
  twin.AddFolded(twin.fold_bit(2), 200, query::Predicate::True());
  const std::vector<uint32_t> wide = {5, 10, 63, 200};
  twin.Fold(&rng, wide, 0);
  twin.Fold(&rng, wide, 1);
  twin.CheckSlices("width 4 with slot 200");

  // Shrink: slot 200 and its satellite retire, then a partial over the
  // low slots stays unmerged across the re-width.
  twin.Retire(twin.fold_bit(2));
  twin.Retire(200);
  twin.Fold(&rng, low, 0);
  twin.Rewidth(1);
  twin.CheckSlices("shrunk to 1");

  // A recycled fold bit starts clean at its relocated tail position.
  twin.AddFolded(twin.fold_bit(1), 63, ValuePred(query::CompareOp::kNe, 7));
  twin.Fold(&rng, low, 1);
  twin.CheckSlices("fold bit recycled");
}

// ------------------------------------------------------- engine-level trials

const baseline::VolcanoEngine& Volcano() {
  static const baseline::VolcanoEngine* v =
      new baseline::VolcanoEngine(&Db()->catalog, Db()->pool.get());
  return *v;
}

// Oracle results, cached by query signature across trials.
const query::ResultSet& OracleFor(const query::StarQuery& q) {
  static std::map<std::string, query::ResultSet>* cache =
      new std::map<std::string, query::ResultSet>();
  const std::string key = q.Signature();
  auto it = cache->find(key);
  if (it == cache->end()) it = cache->emplace(key, Volcano().Execute(q)).first;
  return it->second;
}

void CheckResult(const query::StarQuery& q, const QueryTicket& t,
                 const char* what) {
  const Status s = t.Wait();
  SDW_CHECK_MSG(s.ok(), "%s failed: %s", what, s.ToString().c_str());
  const std::string diff = query::DiffResults(OracleFor(q), t.result(), 1e-9);
  SDW_CHECK_MSG(diff.empty(), "%s vs oracle: %s", what, diff.c_str());
}

void CheckAll(const std::vector<query::StarQuery>& qs,
              const std::vector<QueryTicket>& ts, const char* what) {
  for (size_t i = 0; i < qs.size(); ++i) CheckResult(qs[i], ts[i], what);
}

// Polls until `pred(stats)` holds; fails after a generous bound.
template <typename Pred>
CjoinStats WaitStats(Engine* engine, Pred pred, const char* what) {
  const int64_t give_up = NowNanos() + 60'000'000'000;
  while (true) {
    const CjoinStats s = engine->cjoin_stats();
    if (pred(s)) return s;
    SDW_CHECK_MSG(NowNanos() < give_up, "timed out waiting for %s", what);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

CjoinStats WaitAdmitted(Engine* engine, uint64_t n) {
  return WaitStats(
      engine, [n](const CjoinStats& s) { return s.queries_admitted >= n; },
      "admissions");
}

EngineOptions WidthOptions(bool shared_aggregation, bool folding) {
  EngineOptions opts;
  opts.config = core::EngineConfig::kCjoin;
  opts.shared_aggregation = shared_aggregation;
  opts.query_folding = folding;
  opts.cjoin.max_queries = 1024;
  return opts;
}

// 16 live → 200 live → waves of 16: the width grows 1 → 4 at the surge's
// admission pause and shrinks back to 1 once enough narrow pauses passed.
// `preds_in_preprocessor` runs the §3.2 variant, whose annotate step clears
// bits per query at the current width.
void RampTrial(bool shared_aggregation, bool preds_in_preprocessor) {
  testing::TestDb* db = Db();
  EngineOptions opts = WidthOptions(shared_aggregation, /*folding=*/false);
  opts.cjoin.fact_preds_in_preprocessor = preds_in_preprocessor;
  Engine engine(&db->catalog, db->pool.get(), opts);
  SDW_CHECK(engine.cjoin_stats().bitmap_words == 1);

  const auto first = ssb::RandomQ32Workload(16, 101);
  const auto surge = ssb::RandomQ32Workload(184, 102);
  const auto t1 = engine.SubmitBatch(first);
  CjoinStats s = WaitAdmitted(&engine, 16);
  SDW_CHECK(s.bitmap_words == 1 && s.bitmap_width_changes == 0);
  const auto t2 = engine.SubmitBatch(surge);
  s = WaitAdmitted(&engine, 200);
  SDW_CHECK_MSG(s.bitmap_words == 4 && s.bitmap_width_changes == 1,
                "surge: width %llu after %llu changes",
                static_cast<unsigned long long>(s.bitmap_words),
                static_cast<unsigned long long>(s.bitmap_width_changes));
  CheckAll(first, t1, "ramp first");
  CheckAll(surge, t2, "ramp surge");

  // Each wave costs an admission pause and a completion pause, all narrow.
  for (uint64_t wave = 0; wave < CjoinPipeline::kShrinkAfterPauses; ++wave) {
    const auto qs = ssb::RandomQ32Workload(16, 300 + wave);
    CheckAll(qs, engine.SubmitBatch(qs), "ramp wave");
  }
  s = engine.cjoin_stats();
  SDW_CHECK_MSG(s.bitmap_words == 1 && s.bitmap_width_changes == 2,
                "after ramp-down: width %llu after %llu changes",
                static_cast<unsigned long long>(s.bitmap_words),
                static_cast<unsigned long long>(s.bitmap_width_changes));
}

ssb::Q32SelectivityParams Params(std::vector<int> cust, std::vector<int> supp,
                                 int lo, int hi) {
  ssb::Q32SelectivityParams p;
  p.cust_nations = std::move(cust);
  p.supp_nations = std::move(supp);
  p.year_lo = lo;
  p.year_hi = hi;
  return p;
}

query::StarQuery Host() {
  return ssb::MakeQ32Selectivity(
      Params({0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}, 1992, 1998));
}

std::vector<query::StarQuery> Satellites() {
  return {ssb::MakeQ32Selectivity(Params({1, 3}, {0, 2, 4}, 1993, 1996)),
          ssb::MakeQ32Selectivity(Params({5}, {1, 5}, 1995, 1995)),
          ssb::MakeQ32Selectivity(Params({0, 2}, {3}, 1992, 1994))};
}

// Sleeps every fact-page read for `nanos`; 0 lifts the throttle. While it
// holds, queries in flight advance one page per `nanos` however long the
// caller takes to stage submissions.
void ThrottleFactScan(int64_t nanos) {
  FaultInjector& faults = FaultInjector::Global();
  faults.ClearSite("storage.read");
  if (nanos == 0) return;
  const uint64_t fact = Db()->catalog.MustGetTable(ssb::kLineorder)->id();
  FaultSpec spec;
  spec.kind = FaultKind::kLatency;
  spec.every_nth = 1;
  spec.latency_nanos = nanos;
  spec.key_lo = fact << 48;
  spec.key_hi = (fact << 48) | 0xFFFFFFFFFFFFull;
  faults.Arm("storage.read", spec);
}

// Folded aggregate satellites across both width changes. Pause accounting
// is exact here because the fact scan is throttled while each stage is
// submitted: a page takes kStagePageNanos, so a query's full cycle
// outlasts the staging (wiring the 95 blockers alone takes about a second
// under a sanitizer) and the only pauses are the ones this trial triggers.
void FoldRelocationTrial() {
  constexpr int64_t kStagePageNanos = 25'000'000;
  testing::TestDb* db = Db();
  FaultInjector::Global().Enable(/*seed=*/1);
  Engine engine(&db->catalog, db->pool.get(),
                WidthOptions(/*shared_aggregation=*/true, /*folding=*/true));
  const query::StarQuery host = Host();
  const auto sats = Satellites();

  // Satellites fold onto a width-1 host.
  ThrottleFactScan(kStagePageNanos);
  QueryTicket h = engine.Submit(host);
  WaitAdmitted(&engine, 1);
  const auto s1 = engine.SubmitBatch(sats);
  WaitStats(
      &engine, [&](const CjoinStats& s) { return s.queries_folded == 3; },
      "first folds");

  // Blockers the host cannot absorb push the live slots past 64: the grow
  // relocates the satellites' fold words mid-cycle.
  std::vector<query::StarQuery> blockers;
  for (const auto& q : ssb::RandomQ32Workload(100, 77)) {
    if (!query::QuerySubsumes(host, q)) blockers.push_back(q);
  }
  const auto tb = engine.SubmitBatch(blockers);
  CjoinStats s = WaitAdmitted(&engine, 4 + blockers.size());
  SDW_CHECK_MSG(s.bitmap_words == 2 && s.bitmap_width_changes == 1,
                "blockers: width %llu after %llu changes",
                static_cast<unsigned long long>(s.bitmap_words),
                static_cast<unsigned long long>(s.bitmap_width_changes));
  for (const auto& t : s1) SDW_CHECK_MSG(!t.done(), "satellite ended early");
  ThrottleFactScan(0);
  CheckResult(host, h, "host");
  CheckAll(sats, s1, "satellite across grow");
  CheckAll(blockers, tb, "blocker");

  // Narrow pause 1 was the blockers' completion. A second host (2) and its
  // satellites (3) and probes the host cannot absorb (one pause each) bring
  // the count to kShrinkAfterPauses - 1; the cancelled satellite's
  // retirement pause is the one that shrinks.
  s = engine.cjoin_stats();
  SDW_CHECK(s.bitmap_words == 2);
  const uint64_t admitted = s.queries_admitted;
  const uint64_t folded = s.queries_folded;
  ThrottleFactScan(kStagePageNanos);
  QueryTicket h2 = engine.Submit(host);
  WaitAdmitted(&engine, admitted + 1);
  const auto s2 = engine.SubmitBatch(sats);
  WaitStats(
      &engine,
      [&](const CjoinStats& st) { return st.queries_folded == folded + 3; },
      "second folds");
  std::vector<query::StarQuery> probes;
  std::vector<QueryTicket> tp;
  for (uint32_t i = 0; i + 4 < CjoinPipeline::kShrinkAfterPauses; ++i) {
    probes.push_back(ssb::MakeQ32Selectivity(
        Params({20}, {21 + static_cast<int>(i)}, 1992, 1998)));
    tp.push_back(engine.Submit(probes.back()));
    WaitAdmitted(&engine, admitted + 5 + i);
  }
  s = engine.cjoin_stats();
  SDW_CHECK_MSG(s.bitmap_words == 2 && s.bitmap_width_changes == 1,
                "shrank before the cancel's pause (width %llu)",
                static_cast<unsigned long long>(s.bitmap_words));
  s2[0].Cancel();
  SDW_CHECK(s2[0].Wait().code() == StatusCode::kCancelled);
  s = WaitStats(
      &engine, [](const CjoinStats& st) { return st.bitmap_words == 1; },
      "shrink");
  SDW_CHECK(s.bitmap_width_changes == 2);
  SDW_CHECK_MSG(!s2[1].done() && !s2[2].done() && !h2.done(),
                "second host ended before the shrink");
  ThrottleFactScan(0);
  CheckResult(host, h2, "second host");
  for (size_t i = 1; i < sats.size(); ++i) {
    CheckResult(sats[i], s2[i], "satellite across shrink");
  }
  CheckAll(probes, tp, "probe");
  SDW_CHECK(engine.cjoin_stats().queries_cancelled >= 1);
  FaultInjector::Global().Disable();
}

}  // namespace
}  // namespace sdw

int main() {
  std::fprintf(stderr, "filter rows across re-widths\n");
  sdw::FilterRewidthKeepsRows();
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::fprintf(stderr, "shared-agg slices across re-widths: seed %llu\n",
                 static_cast<unsigned long long>(seed));
    sdw::SharedAggRewidthKeepsSlices(seed);
  }
  std::fprintf(stderr, "ramp 16 -> 200 -> 16, shared aggregation\n");
  sdw::RampTrial(/*shared_aggregation=*/true, /*preds_in_preprocessor=*/false);
  std::fprintf(stderr, "ramp 16 -> 200 -> 16, streaming join output\n");
  sdw::RampTrial(/*shared_aggregation=*/false,
                 /*preds_in_preprocessor=*/false);
  std::fprintf(stderr, "ramp 16 -> 200 -> 16, fact predicates in the "
                       "preprocessor\n");
  sdw::RampTrial(/*shared_aggregation=*/true, /*preds_in_preprocessor=*/true);
  std::fprintf(stderr, "folded satellites across grow and shrink\n");
  sdw::FoldRelocationTrial();
  std::printf("bitmap_width_test: OK\n");
  return 0;
}
