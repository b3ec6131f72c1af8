// Unit and integration tests for the CJOIN GQP: filter match/pass semantics,
// slot recycling, batched admission, wrap-around completion, dynamic filter
// addition, and correctness against the Volcano oracle for staggered
// submissions.

#include <gtest/gtest.h>

#include <future>

#include "baseline/volcano.h"
#include "cjoin/filter.h"
#include "cjoin/pipeline.h"
#include "core/shared_pages_list.h"
#include "query/plan.h"
#include "ssb/ssb_queries.h"
#include "ssb/ssb_schema.h"
#include "ssb/workload.h"
#include "test_util.h"

namespace sdw::cjoin {
namespace {

using testing::SharedSsbDb;
using testing::TestDb;

TEST(Filter, MatchAndPassSemantics) {
  TestDb* db = SharedSsbDb();
  const storage::Table* supplier = db->catalog.MustGetTable(ssb::kSupplier);
  const storage::Table* fact = db->catalog.MustGetTable(ssb::kLineorder);
  const storage::Schema& fs = fact->schema();

  Filter filter(supplier, "lo_suppkey", "s_suppkey", /*position=*/0,
                /*slots=*/64);
  // Query 0 selects suppliers of one nation; query 1 does not reference the
  // dimension (pass); query 2 selects a different nation.
  query::Predicate p0;
  p0.And(query::AtomicPred::Str("s_nation", query::CompareOp::kEq,
                                std::string(ssb::NationName(0))));
  query::Predicate p2;
  p2.And(query::AtomicPred::Str("s_nation", query::CompareOp::kEq,
                                std::string(ssb::NationName(1))));
  filter.AdmitQuery(0, p0, db->pool.get());
  filter.SetPass(1);
  filter.AdmitQuery(2, p2, db->pool.get());

  // Process one fact page with all three bits set.
  auto batch = std::make_shared<TupleBatch>();
  batch->fact_page = fact->SharePage(0);
  batch->ResetFor(batch->fact_page->tuple_count(), /*words=*/1,
                  /*filters=*/1);
  std::fill(batch->bits.begin(), batch->bits.end(), 0b111);
  filter.BindFactColumn(fs);
  FilterScratch scratch;
  filter.Process(batch.get(), &scratch);

  const storage::Schema& ss = supplier->schema();
  const size_t nation_col = ss.MustColumnIndex("s_nation");
  const size_t sk = fs.MustColumnIndex("lo_suppkey");
  for (uint32_t i = 0; i < batch->num_tuples; ++i) {
    const uint64_t bits = batch->bits[i];
    EXPECT_TRUE(bits & 0b010) << "pass bit must survive";
    const int32_t key = fs.GetInt32(batch->fact_page->tuple(i), sk);
    const std::byte* dim_row =
        supplier->row(static_cast<size_t>(key) - 1);  // keys are 1-based
    const auto nation = ss.GetChar(dim_row, nation_col);
    EXPECT_EQ((bits & 0b001) != 0, nation == ssb::NationName(0)) << i;
    EXPECT_EQ((bits & 0b100) != 0, nation == ssb::NationName(1)) << i;
    if (bits & 0b101) {
      // Joined row recorded and correct.
      EXPECT_EQ(batch->tuple_dim_rows(i)[0],
                static_cast<uint32_t>(key - 1));
    }
  }
}

TEST(Filter, CleanSlotRemovesStaleBits) {
  TestDb* db = SharedSsbDb();
  const storage::Table* supplier = db->catalog.MustGetTable(ssb::kSupplier);
  Filter filter(supplier, "lo_suppkey", "s_suppkey", 0, 64);
  filter.AdmitQuery(5, query::Predicate::True(), db->pool.get());
  EXPECT_EQ(filter.num_entries(), supplier->num_rows());
  filter.CleanSlot(5);

  // A tuple carrying only bit 5 must now be filtered out entirely.
  const storage::Table* fact = db->catalog.MustGetTable(ssb::kLineorder);
  const storage::Schema& fs = fact->schema();
  auto batch = std::make_shared<TupleBatch>();
  batch->fact_page = fact->SharePage(0);
  batch->ResetFor(batch->fact_page->tuple_count(), /*words=*/1,
                  /*filters=*/1);
  std::fill(batch->bits.begin(), batch->bits.end(), 1ull << 5);
  filter.BindFactColumn(fs);
  FilterScratch scratch;
  filter.Process(batch.get(), &scratch);
  for (uint32_t i = 0; i < batch->num_tuples; ++i) {
    EXPECT_EQ(batch->bits[i], 0u);
    EXPECT_FALSE(batch->tuple_live(i));  // filtered tuples are killed too
  }
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : db_(SharedSsbDb()),
        fact_(db_->catalog.MustGetTable(ssb::kLineorder)),
        planner_(&db_->catalog) {}

  // Runs `queries` through a fresh pipeline (simultaneous submission) and
  // checks each against the Volcano oracle's join output.
  void RunAndVerify(const std::vector<query::StarQuery>& queries,
                    CjoinOptions options = {}) {
    CjoinPipeline pipeline(&db_->catalog, db_->pool.get(), fact_, options);
    struct Slot {
      std::shared_ptr<core::SharedPagesList> spl;
      std::unique_ptr<core::SharedPagesList::Reader> reader;
      storage::Schema schema;
    };
    std::vector<Slot> outs;
    for (const auto& q : queries) {
      Slot s;
      s.spl = std::make_shared<core::SharedPagesList>(0);
      s.reader = s.spl->TryAttachFromStart();
      s.schema = planner_.JoinOutputSchema(q);
      outs.push_back(std::move(s));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      // Keep the SPL alive via the sink holder below.
      struct SplSink : public core::PageSink {
        explicit SplSink(std::shared_ptr<core::SharedPagesList> spl)
            : spl_(std::move(spl)) {}
        bool Put(storage::PagePtr p) override { return spl_->Put(std::move(p)); }
        void Close() override { spl_->Close(); }
        std::shared_ptr<core::SharedPagesList> spl_;
      };
      pipeline.Submit(queries[i], outs[i].schema,
                      std::make_shared<SplSink>(outs[i].spl), nullptr);
    }
    // Drain each query's output and compare with the oracle join sub-plan.
    const baseline::VolcanoEngine oracle(&db_->catalog, db_->pool.get());
    for (size_t i = 0; i < queries.size(); ++i) {
      query::ResultSet actual(outs[i].schema);
      while (auto page = outs[i].reader->Next()) {
        for (uint32_t t = 0; t < page->tuple_count(); ++t) {
          actual.AddRow(page->tuple(t));
        }
      }
      const auto join_plan = planner_.BuildJoinPlan(queries[i]);
      const query::ResultSet expected = oracle.ExecutePlan(*join_plan);
      EXPECT_EQ(query::DiffResults(expected, actual), "") << "query " << i;
    }
  }

  TestDb* db_;
  const storage::Table* fact_;
  query::Planner planner_;
};

TEST_F(PipelineTest, SingleQueryJoinsMatchOracle) {
  RunAndVerify({ssb::MakeQ32({})});
}

TEST_F(PipelineTest, ConcurrentHeterogeneousQueries) {
  auto queries = ssb::RandomQ32Workload(5, 31);
  queries.push_back(ssb::MakeQ11({}));  // different dims: date only
  queries.push_back(ssb::MakeQ21({}));  // adds the part filter dynamically
  RunAndVerify(queries);
}

TEST_F(PipelineTest, FactPredicateAppliedAtDistributor) {
  // Q1.1 has fact predicates (discount/quantity): CJOIN applies them on its
  // output tuples (paper §3.2); results must still match the oracle, which
  // applies them at the scan.
  RunAndVerify({ssb::MakeQ11({}), ssb::MakeQ11({1994, 4, 6, 35})});
}

TEST_F(PipelineTest, StaggeredAdmissionBatches) {
  CjoinOptions options;
  options.max_queries = 16;
  CjoinPipeline pipeline(&db_->catalog, db_->pool.get(), fact_, options);
  const auto queries = ssb::RandomQ32Workload(6, 37);

  struct SplSink : public core::PageSink {
    explicit SplSink(std::shared_ptr<core::SharedPagesList> spl)
        : spl_(std::move(spl)) {}
    bool Put(storage::PagePtr p) override { return spl_->Put(std::move(p)); }
    void Close() override { spl_->Close(); }
    std::shared_ptr<core::SharedPagesList> spl_;
  };

  const baseline::VolcanoEngine oracle(&db_->catalog, db_->pool.get());
  std::vector<std::thread> consumers;
  std::vector<std::string> diffs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto spl = std::make_shared<core::SharedPagesList>(0);
    auto reader = spl->TryAttachFromStart();
    const storage::Schema schema = planner_.JoinOutputSchema(queries[i]);
    pipeline.Submit(queries[i], schema, std::make_shared<SplSink>(spl),
                    nullptr);
    consumers.emplace_back(
        [this, &oracle, &diffs, i, schema, q = queries[i],
         spl,  // keep the list alive for the reader's lifetime
         reader = std::shared_ptr<core::SharedPagesList::Reader>(
             std::move(reader))]() mutable {
          query::ResultSet actual(schema);
          while (auto page = reader->Next()) {
            for (uint32_t t = 0; t < page->tuple_count(); ++t) {
              actual.AddRow(page->tuple(t));
            }
          }
          const auto join_plan = planner_.BuildJoinPlan(q);
          diffs[i] = query::DiffResults(oracle.ExecutePlan(*join_plan), actual);
        });
    // Stagger submissions so several admission batches happen mid-scan.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : consumers) t.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(diffs[i], "") << "query " << i;
  }
  const CjoinStats stats = pipeline.stats();
  EXPECT_EQ(stats.queries_admitted, queries.size());
  EXPECT_EQ(stats.queries_completed, queries.size());
  EXPECT_GE(stats.admission_batches, 1u);
}

TEST_F(PipelineTest, SlotRecyclingAcrossGenerations) {
  // More sequential generations than slots: forces slot recycling.
  CjoinOptions options;
  options.max_queries = 2;
  for (int generation = 0; generation < 4; ++generation) {
    RunAndVerify(ssb::RandomQ32Workload(2, 40 + static_cast<uint64_t>(generation)),
                 options);
  }
}

TEST_F(PipelineTest, AdmissionStatsAccumulate) {
  CjoinOptions options;
  CjoinPipeline pipeline(&db_->catalog, db_->pool.get(), fact_, options);
  EXPECT_EQ(pipeline.stats().queries_admitted, 0u);
  EXPECT_EQ(pipeline.num_filters(), 0u);
  // Admit one query and let it complete.
  struct NullSink : public core::PageSink {
    bool Put(storage::PagePtr) override { return true; }
    void Close() override { done.set_value(); }
    std::promise<void> done;
  };
  auto sink = std::make_shared<NullSink>();
  auto done = sink->done.get_future();
  pipeline.Submit(ssb::MakeQ32({}), planner_.JoinOutputSchema(ssb::MakeQ32({})),
                  sink, nullptr);
  done.wait();
  const CjoinStats stats = pipeline.stats();
  EXPECT_EQ(stats.queries_admitted, 1u);
  EXPECT_GT(stats.admission_seconds, 0.0);
  EXPECT_GE(stats.fact_pages_scanned, fact_->num_pages());
  EXPECT_EQ(pipeline.num_filters(), 3u);  // supplier, customer, date
}

}  // namespace
}  // namespace sdw::cjoin
