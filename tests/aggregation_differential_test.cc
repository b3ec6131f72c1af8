// Differential test for the shared aggregation stage: SharedAggregator's
// fold-once / slice-per-query path must produce, for every member query,
// exactly the rows the retained scalar reference (AggregateScalar — one
// private table per query) produces, across randomized predicate and
// group-by mixes, slot counts (1, 64, 65, 256), empty batches, all-dead
// live masks, batches whose dead tuples carry stale bitmap bits, and
// mixed-signature batches (several groups folding the same batch). Rows are
// compared as sorted per-query sets: integer aggregates bit-exact, floating
// aggregates within a relative tolerance (partial-merge order is free).
// The member tables are pinned too: retiring one of 256 live members leaves
// the other slices bit-identical, and a slot or fold bit retired and
// re-bound in one pause starts from an empty table.
//
// A second layer runs whole engines end-to-end on the SSB database — one
// with the shared aggregation stage, one on the scalar reference
// (EngineOptions::shared_aggregation = false) — over queries with dimension
// payloads, shared shapes with differing predicate constants, and a global
// (no group-by) aggregate, comparing full ResultSets.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cjoin/shared_agg.h"
#include "cjoin/tuple_batch.h"
#include "common/bitmap.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/engine.h"
#include "query/result.h"
#include "ssb/ssb_schema.h"
#include "storage/page.h"
#include "test_util.h"

using namespace sdw;
using cjoin::AggregateScalar;
using cjoin::JoinRowMove;
using cjoin::SharedAggregator;
using cjoin::TupleBatch;

namespace {

constexpr size_t kParts = 3;

// ---------------------------------------------------------------- unit layer

// Synthetic fact schema all unit-layer shapes aggregate over. Fact-only
// groups (every JoinRowMove from the fact row) keep the layer independent of
// the filter/dimension machinery, which the engine layer covers.
const storage::Schema& FactSchema() {
  static const storage::Schema s({
      storage::Schema::Int32("k1"),
      storage::Schema::Int32("k2"),
      storage::Schema::Int32("v1"),
      storage::Schema::Int32("v2"),
      storage::Schema::Double("d1"),
  });
  return s;
}

storage::PagePtr MakeFactPage(uint32_t n, Rng* rng) {
  const storage::Schema& fs = FactSchema();
  storage::PagePtr page = storage::Page::Make(fs.tuple_size());
  SDW_CHECK(n <= page->capacity());
  for (uint32_t i = 0; i < n; ++i) {
    std::byte* t = page->AppendTuple();
    fs.SetInt32(t, 0, static_cast<int32_t>(rng->Uniform(0, 4)));
    fs.SetInt32(t, 1, static_cast<int32_t>(rng->Uniform(0, 2)));
    fs.SetInt32(t, 2, static_cast<int32_t>(rng->Uniform(0, 99)));
    fs.SetInt32(t, 3, static_cast<int32_t>(rng->Uniform(1, 9)));
    fs.SetDouble(t, 4, rng->NextDouble() * 100.0);
  }
  return page;
}

enum class Fill {
  kEmptyBitmaps,  // every tuple born dead (all-dead live mask)
  kFull,          // every tuple live with every slot bit set
  kRandom,        // random live/dead mix with random slot subsets
  kStaleBits,     // some dead tuples keep non-empty bitmaps (must be skipped)
};

// Builds a batch of `n` random fact tuples over `slots` query slots,
// following the distributor differential test's fill modes.
void FillBatch(TupleBatch* batch, uint32_t n, size_t slots, Fill fill,
               Rng* rng) {
  const size_t words = bits::WordsFor(slots);
  batch->fact_page = MakeFactPage(n, rng);
  batch->ResetFor(n, static_cast<uint32_t>(words), /*filters=*/1);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t* tb = batch->tuple_bits(i);
    bits::Zero(tb, words);
    switch (fill) {
      case Fill::kEmptyBitmaps:
        break;
      case Fill::kFull:
        bits::FillOnes(tb, slots);
        break;
      case Fill::kRandom:
      case Fill::kStaleBits: {
        if (rng->Bernoulli(0.1)) break;  // born dead
        const double density = rng->Bernoulli(0.5) ? 0.05 : 0.7;
        for (size_t s = 0; s < slots; ++s) {
          if (rng->Bernoulli(density)) bits::Set(tb, s);
        }
        break;
      }
    }
    if (!bits::Any(tb, words)) batch->kill_tuple(i);
  }
  if (fill == Fill::kStaleBits) {
    // The fold must trust the live mask, never a dead tuple's stale bits.
    for (uint32_t i = 0; i < n; ++i) {
      if (batch->tuple_live(i) && rng->Bernoulli(0.2)) batch->kill_tuple(i);
    }
  }
}

// One aggregation shape (group-by columns + aggregates over FactSchema).
struct ShapeSpec {
  const char* name;
  std::vector<size_t> group_cols;
  std::vector<query::BoundAgg> aggs;
};

std::vector<ShapeSpec> MakeShapes() {
  using Kind = query::AggSpec::Kind;
  std::vector<ShapeSpec> shapes;
  // Group by k1: exact-int sum + count.
  shapes.push_back({"by_k1",
                    {0},
                    {{Kind::kSum, 2, -1, -1, /*integer_exact=*/true, "sum_v1"},
                     {Kind::kCount, -1, -1, -1, false, "cnt"}}});
  // Group by (k1, k2): exact-int sum-product + floating average.
  shapes.push_back(
      {"by_k1_k2",
       {0, 1},
       {{Kind::kSumProduct, 2, 3, -1, /*integer_exact=*/true, "spv"},
        {Kind::kAvg, 4, -1, -1, false, "avg_d1"}}});
  // Global aggregate (no group columns): count + floating sum. Exercises the
  // empty-input one-zero-row rendering.
  shapes.push_back({"global",
                    {},
                    {{Kind::kCount, -1, -1, -1, false, "cnt"},
                     {Kind::kSum, 4, -1, -1, /*integer_exact=*/false,
                      "sum_d1"}}});
  return shapes;
}

// Fills a freshly created group's shape fields from a spec (what the
// pipeline's BindAggGroupLocked does from a planned query).
void BindShape(SharedAggregator::Group* g, const ShapeSpec& spec) {
  const storage::Schema& fs = FactSchema();
  g->join_schema = fs;
  g->join_row_size = fs.tuple_size();
  g->moves = {{/*from_fact=*/true, 0, /*src_col=*/0, 0, 0, fs.tuple_size()}};
  g->group_cols = spec.group_cols;
  g->aggs = spec.aggs;
  std::vector<storage::Column> cols;
  size_t key_width = 0;
  for (size_t c : spec.group_cols) {
    cols.push_back(fs.column(c));
    key_width += fs.column(c).width();
  }
  for (const auto& a : spec.aggs) {
    const bool int_out = a.integer_exact || a.kind == query::AggSpec::Kind::kCount;
    cols.push_back(int_out ? storage::Schema::Int64(a.out_name)
                           : storage::Schema::Double(a.out_name));
  }
  g->out_schema = storage::Schema(std::move(cols));
  g->key_width = key_width;
}

// Per-slot fact predicate: slots ≡ 1 (mod 5) get an unsatisfiable predicate
// (deterministic empty-slice coverage), a third are unconditionally true,
// the rest draw a random comparison on a fact column.
query::Predicate::Bound MakePred(uint32_t slot, Rng* rng) {
  query::Predicate p;
  if (slot % 5 == 1) {
    p.And(query::AtomicPred::Int("v1", query::CompareOp::kLt, 0));
  } else if (!rng->Bernoulli(1.0 / 3.0)) {
    const char* cols[] = {"k1", "k2", "v1"};
    const int64_t his[] = {4, 2, 99};
    const size_t c = rng->Index(3);
    const auto op = static_cast<query::CompareOp>(rng->Index(6));
    p.And(query::AtomicPred::Int(cols[c], op, rng->Uniform(0, his[c])));
  }
  return p.Bind(FactSchema());
}

double DecodeTol(double a, double b) {
  return 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

// Compares two rendered row sets for one group: same size, and after sorting
// (group keys are unique, so the key prefix is a total order) each pair has
// bit-equal keys, bit-equal integer aggregates and tolerance-equal floating
// aggregates.
void CheckRowsEqual(const SharedAggregator::Group& g,
                    std::vector<std::string> got, std::vector<std::string> want,
                    const char* shape, uint32_t slot) {
  SDW_CHECK_MSG(got.size() == want.size(),
                "%s slot %u: shared emitted %zu rows, scalar %zu", shape, slot,
                got.size(), want.size());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  const auto& out = g.out_schema;
  for (size_t r = 0; r < got.size(); ++r) {
    const auto* grow = reinterpret_cast<const std::byte*>(got[r].data());
    const auto* wrow = reinterpret_cast<const std::byte*>(want[r].data());
    SDW_CHECK_MSG(
        std::memcmp(grow, wrow, g.key_width) == 0,
        "%s slot %u row %zu: group keys differ", shape, slot, r);
    for (size_t a = 0; a < g.aggs.size(); ++a) {
      const size_t col = g.group_cols.size() + a;
      if (out.column(col).type == storage::ColumnType::kDouble) {
        const double gv = out.GetDouble(grow, col);
        const double wv = out.GetDouble(wrow, col);
        SDW_CHECK_MSG(std::fabs(gv - wv) <= DecodeTol(gv, wv),
                      "%s slot %u row %zu agg %zu: %.17g != %.17g", shape,
                      slot, r, a, gv, wv);
      } else {
        SDW_CHECK_MSG(out.GetInt64(grow, col) == out.GetInt64(wrow, col),
                      "%s slot %u row %zu agg %zu: %lld != %lld", shape, slot,
                      r, a,
                      static_cast<long long>(out.GetInt64(grow, col)),
                      static_cast<long long>(out.GetInt64(wrow, col)));
      }
    }
  }
}

struct MemberRef {
  size_t shape;  // index into groups
  uint32_t slot;
  SharedAggregator::AccTable scalar;  // the member's private reference table
};

void CheckMember(const SharedAggregator& agg,
                 const std::vector<SharedAggregator::Group*>& groups,
                 const std::vector<ShapeSpec>& shapes, const MemberRef& m) {
  const SharedAggregator::Group& g = *groups[m.shape];
  const SharedAggregator::AccTable& slice = agg.Slice(g, m.slot);
  std::vector<std::string> got, want;
  SharedAggregator::RenderSlice(g, slice, &got);
  SharedAggregator::RenderSlice(g, m.scalar, &want);
  CheckRowsEqual(g, std::move(got), std::move(want), shapes[m.shape].name,
                 m.slot);
}

void RunTrial(size_t slots, uint64_t seed, bool preds_pre_applied) {
  Rng rng(seed);
  const std::vector<ShapeSpec> shapes = MakeShapes();
  SharedAggregator agg(kParts, bits::WordsFor(slots));

  // Mixed signatures: every shape gets a group; every batch folds through
  // all of them. Slots spread round-robin, so with one slot only shape 0 has
  // a member and the others fold as empty-member groups.
  std::vector<SharedAggregator::Group*> groups;
  for (size_t si = 0; si < shapes.size(); ++si) {
    SharedAggregator::Group* g = agg.CreateGroup(shapes[si].name);
    BindShape(g, shapes[si]);
    groups.push_back(g);
  }
  std::vector<query::Predicate::Bound> preds;
  std::vector<MemberRef> members;
  for (uint32_t slot = 0; slot < slots; ++slot) {
    preds.push_back(MakePred(slot, &rng));
    const size_t shape = slot % shapes.size();
    agg.AddMember(groups[shape], slot, preds[slot]);
    members.push_back({shape, slot, {}});
  }

  // Fold a stream of batches; the scalar reference accumulates each member's
  // private table over the same stream. Parts rotate; a mid-stream
  // MergePartials checks that merged + later folds stay cumulative.
  SharedAggregator::FoldScratch scratch;
  const uint32_t tuple_counts[] = {0, 1, 63, 64, 65, 300};
  size_t batch_index = 0;
  auto fold = [&](const TupleBatch& batch) {
    const size_t part = batch_index++ % kParts;
    for (SharedAggregator::Group* g : groups) {
      agg.FoldBatch(g, batch, FactSchema(), nullptr, part, preds_pre_applied,
                    &scratch);
    }
    for (MemberRef& m : members) {
      AggregateScalar(*groups[m.shape], {m.slot, m.slot, false, preds[m.slot], {}}, batch,
                      FactSchema(), nullptr, preds_pre_applied, &m.scalar);
    }
  };

  for (uint32_t n : tuple_counts) {
    for (Fill f : {Fill::kEmptyBitmaps, Fill::kFull, Fill::kRandom,
                   Fill::kStaleBits}) {
      TupleBatch batch;
      FillBatch(&batch, n, slots, f, &rng);
      fold(batch);
    }
    if (n == 64) {
      // Mid-stream merge: later folds land in emptied partials and must
      // accumulate on top of the member tables.
      for (SharedAggregator::Group* g : groups) {
        SharedAggregator::MergePartials(g);
      }
    }
  }
  for (SharedAggregator::Group* g : groups) {
    SharedAggregator::MergePartials(g);
  }
  for (const MemberRef& m : members) {
    CheckMember(agg, groups, shapes, m);
  }

  // Retirement: retire every odd slot (partials are merged), keep folding,
  // and require the survivors' slices to still match their scalar reference
  // over the full stream — retirement must not perturb survivors.
  std::vector<MemberRef> survivors;
  std::vector<bool> destroyed(groups.size(), false);
  for (MemberRef& m : members) {
    if (m.slot % 2 == 1) {
      if (agg.RetireSlot(groups[m.shape], m.slot)) {
        agg.DestroyGroup(groups[m.shape]);
        destroyed[m.shape] = true;
      }
    } else {
      survivors.push_back(std::move(m));
    }
  }
  for (int extra = 0; extra < 2; ++extra) {
    TupleBatch batch;
    FillBatch(&batch, 300, slots, Fill::kRandom, &rng);
    const size_t part = batch_index++ % kParts;
    for (size_t si = 0; si < groups.size(); ++si) {
      if (destroyed[si]) continue;
      agg.FoldBatch(groups[si], batch, FactSchema(), nullptr, part,
                    preds_pre_applied, &scratch);
    }
    for (MemberRef& m : survivors) {
      AggregateScalar(*groups[m.shape], {m.slot, m.slot, false, preds[m.slot], {}}, batch,
                      FactSchema(), nullptr, preds_pre_applied, &m.scalar);
    }
  }
  for (size_t si = 0; si < groups.size(); ++si) {
    if (!destroyed[si]) SharedAggregator::MergePartials(groups[si]);
  }
  for (const MemberRef& m : survivors) {
    CheckMember(agg, groups, shapes, m);
  }
}

// --------------------------------------------------- member-major tables

// Renders member `bit`'s current slice, rows sorted.
std::vector<std::string> SliceRows(const SharedAggregator& agg,
                                   const SharedAggregator::Group& g,
                                   uint32_t bit) {
  std::vector<std::string> rows;
  SharedAggregator::RenderSlice(g, agg.Slice(g, bit), &rows);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// A member as the scalar reference sees it (its bit, the slot whose bitmap
// bit gates it, its fact predicate) plus its reference table.
struct RefMember {
  SharedAggregator::Member mem;
  SharedAggregator::AccTable scalar;
};

void FoldBoth(SharedAggregator* agg, SharedAggregator::Group* g,
              const TupleBatch& batch, size_t part,
              std::vector<RefMember>* refs) {
  SharedAggregator::FoldScratch scratch;
  agg->FoldBatch(g, batch, FactSchema(), nullptr, part,
                 /*preds_pre_applied=*/false, &scratch);
  for (RefMember& r : *refs) {
    AggregateScalar(*g, r.mem, batch, FactSchema(), nullptr,
                    /*preds_pre_applied=*/false, &r.scalar);
  }
}

void CheckRefs(const SharedAggregator& agg, const SharedAggregator::Group& g,
               const std::vector<RefMember>& refs, const char* step) {
  for (const RefMember& r : refs) {
    std::vector<std::string> want;
    SharedAggregator::RenderSlice(g, r.scalar, &want);
    CheckRowsEqual(g, SliceRows(agg, g, r.mem.bit), std::move(want), step,
                   r.mem.bit);
  }
}

// With 256 live members in one group, retiring one leaves every other
// member's slice bit-identical (the same rendered bytes, floating aggregates
// included) and equal to its scalar reference.
void RetireOneOf256(uint64_t seed) {
  constexpr size_t kSlots = 256;
  constexpr uint32_t kRetired = 137;
  Rng rng(seed);
  const ShapeSpec shape = MakeShapes()[1];
  SharedAggregator agg(kParts, bits::WordsFor(kSlots));
  SharedAggregator::Group* g = agg.CreateGroup(shape.name);
  BindShape(g, shape);
  std::vector<RefMember> refs;
  for (uint32_t slot = 0; slot < kSlots; ++slot) {
    query::Predicate::Bound pred = MakePred(slot, &rng);
    agg.AddMember(g, slot, pred);
    refs.push_back({{slot, slot, false, std::move(pred), {}}, {}});
  }
  for (size_t b = 0; b < 6; ++b) {
    TupleBatch batch;
    FillBatch(&batch, 300, kSlots, Fill::kRandom, &rng);
    FoldBoth(&agg, g, batch, b % kParts, &refs);
  }
  SharedAggregator::MergePartials(g);
  CheckRefs(agg, *g, refs, "256 live");
  std::vector<std::vector<std::string>> before;
  for (const RefMember& r : refs) before.push_back(SliceRows(agg, *g, r.mem.bit));

  SDW_CHECK(!agg.RetireSlot(g, kRetired));
  for (uint32_t slot = 0; slot < kSlots; ++slot) {
    if (slot == kRetired) continue;
    SDW_CHECK_MSG(SliceRows(agg, *g, slot) == before[slot],
                  "slot %u slice changed when slot %u retired", slot,
                  kRetired);
  }
  refs.erase(refs.begin() + kRetired);
  CheckRefs(agg, *g, refs, "255 after retire");
}

// A slot and a fold bit each retired and re-bound in the same pause (no fold
// in between) start from empty tables and then slice exactly their own
// post-bind tuples, while the other members keep their whole history.
void RebindStartsEmpty(uint64_t seed) {
  constexpr size_t kSlots = 64;
  constexpr uint32_t kRecycled = 5;
  Rng rng(seed);
  const ShapeSpec shape = MakeShapes()[0];
  SharedAggregator agg(kParts, /*mask_words=*/1, /*member_words=*/2);
  const uint32_t fold_bit = agg.fold_base() + 3;
  SharedAggregator::Group* g = agg.CreateGroup(shape.name);
  BindShape(g, shape);
  std::vector<RefMember> refs;
  for (uint32_t slot = 0; slot < kSlots; ++slot) {
    query::Predicate::Bound pred = MakePred(slot, &rng);
    agg.AddMember(g, slot, pred);
    refs.push_back({{slot, slot, false, std::move(pred), {}}, {}});
  }
  auto add_folded = [&](uint32_t host) {
    query::Predicate::Bound pred = MakePred(host + 2, &rng);
    agg.AddFoldedMember(g, fold_bit, host, pred, {});
    refs.push_back({{fold_bit, host, true, std::move(pred), {}}, {}});
  };
  add_folded(/*host=*/3);
  auto fold_some = [&] {
    for (size_t b = 0; b < 3; ++b) {
      TupleBatch batch;
      FillBatch(&batch, 200, kSlots, Fill::kRandom, &rng);
      FoldBoth(&agg, g, batch, b % kParts, &refs);
    }
    SharedAggregator::MergePartials(g);
  };
  fold_some();
  CheckRefs(agg, *g, refs, "before recycle");

  SDW_CHECK(!agg.RetireSlot(g, kRecycled));
  SDW_CHECK(!agg.RetireSlot(g, fold_bit));
  refs.pop_back();  // the folded member
  query::Predicate::Bound pred = MakePred(kRecycled + 1, &rng);
  agg.AddMember(g, kRecycled, pred);
  refs[kRecycled] = {{kRecycled, kRecycled, false, std::move(pred), {}}, {}};
  add_folded(/*host=*/9);
  SDW_CHECK_MSG(agg.Slice(*g, kRecycled).empty(),
                "re-bound slot inherited its predecessor's table");
  SDW_CHECK_MSG(agg.Slice(*g, fold_bit).empty(),
                "re-bound fold bit inherited its predecessor's table");

  fold_some();
  CheckRefs(agg, *g, refs, "after recycle");
}

// ---------------------------------------------------------- engine layer

// Same queries through two whole engines — shared aggregation stage vs the
// scalar reference path (join output streamed to per-query QPipe aggregation
// packets) — must yield identical ResultSets. Covers dimension payloads in
// group keys, which the fact-only unit layer does not.
void EngineSharedVsScalar() {
  testing::TestDb* db = testing::SharedSsbDb();

  std::vector<query::StarQuery> queries;
  auto add = [&](query::StarQuery q) { queries.push_back(std::move(q)); };

  // Two same-shape queries differing only in predicate constants: one shared
  // group, two slices.
  for (int year : {1993, 1995}) {
    query::StarQuery q;
    q.fact_table = ssb::kLineorder;
    query::DimJoin d;
    d.dim_table = ssb::kDate;
    d.fact_fk_column = "lo_orderdate";
    d.dim_pk_column = "d_datekey";
    d.pred.And(query::AtomicPred::Int("d_year", query::CompareOp::kGe, year));
    d.payload_columns.push_back("d_year");
    q.dims.push_back(std::move(d));
    q.group_by.push_back("d_year");
    query::AggSpec a;
    a.kind = query::AggSpec::Kind::kSum;
    a.col_a = "lo_revenue";
    a.out_name = "rev";
    q.aggregates.push_back(std::move(a));
    add(std::move(q));
  }
  // Distinct shape: two dimensions, two aggregates, fact predicate.
  {
    query::StarQuery q;
    q.fact_table = ssb::kLineorder;
    query::DimJoin s;
    s.dim_table = ssb::kSupplier;
    s.fact_fk_column = "lo_suppkey";
    s.dim_pk_column = "s_suppkey";
    s.pred.And(
        query::AtomicPred::Str("s_region", query::CompareOp::kEq, "ASIA"));
    s.payload_columns.push_back("s_nation");
    q.dims.push_back(std::move(s));
    query::DimJoin d;
    d.dim_table = ssb::kDate;
    d.fact_fk_column = "lo_orderdate";
    d.dim_pk_column = "d_datekey";
    d.payload_columns.push_back("d_year");
    q.dims.push_back(std::move(d));
    q.fact_pred.And(
        query::AtomicPred::Int("lo_quantity", query::CompareOp::kLt, 25));
    q.group_by = {"s_nation", "d_year"};
    query::AggSpec a1;
    a1.kind = query::AggSpec::Kind::kSumProduct;
    a1.col_a = "lo_extendedprice";
    a1.col_b = "lo_discount";
    a1.out_name = "rev";
    query::AggSpec a2;
    a2.kind = query::AggSpec::Kind::kCount;
    a2.out_name = "cnt";
    q.aggregates = {std::move(a1), std::move(a2)};
    add(std::move(q));
  }
  // Global aggregate (no group-by) behind a selective dimension predicate:
  // the one-zero-row-on-empty path end-to-end.
  {
    query::StarQuery q;
    q.fact_table = ssb::kLineorder;
    query::DimJoin c;
    c.dim_table = ssb::kCustomer;
    c.fact_fk_column = "lo_custkey";
    c.dim_pk_column = "c_custkey";
    c.pred.And(
        query::AtomicPred::Str("c_region", query::CompareOp::kEq, "EUROPE"));
    q.dims.push_back(std::move(c));
    query::AggSpec a;
    a.kind = query::AggSpec::Kind::kAvg;
    a.col_a = "lo_discount";
    a.out_name = "avg_disc";
    q.aggregates.push_back(std::move(a));
    add(std::move(q));
  }

  auto run = [&](bool shared) {
    core::EngineOptions opts;
    opts.config = core::EngineConfig::kCjoin;
    opts.shared_aggregation = shared;
    opts.cjoin.max_queries = 32;
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    auto tickets = engine.SubmitBatch(queries);
    std::vector<query::ResultSet> results;
    for (auto& t : tickets) {
      SDW_CHECK_MSG(t.Wait().ok(), "query failed (shared=%d)", shared);
      results.push_back(t.result());
    }
    if (shared) {
      const cjoin::CjoinStats stats = engine.cjoin_stats();
      SDW_CHECK_MSG(stats.agg_groups_shared >= 1,
                    "same-shape pair did not share an aggregation group");
      SDW_CHECK(stats.agg_slice_emits >= queries.size());
      SDW_CHECK(stats.agg_batches_folded > 0);
    }
    return results;
  };

  const std::vector<query::ResultSet> shared = run(true);
  const std::vector<query::ResultSet> scalar = run(false);
  SDW_CHECK(shared.size() == scalar.size());
  for (size_t i = 0; i < shared.size(); ++i) {
    const std::string diff = query::DiffResults(scalar[i], shared[i], 1e-9);
    SDW_CHECK_MSG(diff.empty(), "engine shared vs scalar, query %zu: %s", i,
                  diff.c_str());
  }
}

}  // namespace

int main() {
  // 1 slot (degenerate), 64 (one bitmap word), 65 (first multi-word
  // straddle), 256 (four words).
  for (size_t slots : {size_t{1}, size_t{64}, size_t{65}, size_t{256}}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      RunTrial(slots, seed * 1000 + slots, /*preds_pre_applied=*/false);
    }
    // Preprocessor-applied predicates: both paths must read bitmaps as-is.
    RunTrial(slots, 4000 + slots, /*preds_pre_applied=*/true);
  }
  for (uint64_t seed : {5u, 6u}) {
    RetireOneOf256(seed);
    RebindStartsEmpty(seed);
  }
  EngineSharedVsScalar();
  std::printf("aggregation_differential_test: OK\n");
  return 0;
}
