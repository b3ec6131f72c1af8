// Self-test of the benchmark's own machinery:
//   * the same seed yields the same query stream (also across different
//     Next() cut points), and another seed yields another stream;
//   * the oracle check accepts a correct result and rejects a deliberately
//     corrupted one (a changed aggregate value, and a dropped row).
// Exits non-zero on the first failed check.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
  if (!cond) ++failures;
}

std::vector<std::string> Signatures(const WorkloadSpec& spec, uint64_t seed,
                                    const std::vector<size_t>& cuts) {
  QueryStream stream(spec, seed);
  std::vector<std::string> out;
  for (size_t n : cuts) {
    for (const auto& q : stream.Next(n)) out.push_back(q.Signature());
  }
  return out;
}

void TestStreamDeterminism() {
  for (const WorkloadSpec& spec : Workloads()) {
    const std::string name(spec.name);
    // 1000 queries cross several chunk boundaries of every workload.
    const auto a = Signatures(spec, 11, {1000});
    const auto b = Signatures(spec, 11, {1, 127, 128, 300, 444});
    const auto c = Signatures(spec, 12, {1000});
    Check(a.size() == 1000 && a == b, name + ": same seed, same stream");
    Check(a != c, name + ": another seed, another stream");
  }
}

/// A finished ticket carrying `result`, as the engine would hand it back.
sdw::core::QueryTicket FinishedTicket(sdw::query::ResultSet result) {
  auto life = std::make_shared<sdw::core::QueryLifecycle>(
      1, sdw::core::SubmitOptions());
  *life->mutable_result() = std::move(result);
  life->Finish(sdw::Status::Ok());
  return sdw::core::QueryTicket(std::move(life));
}

/// `r` with the last column of row 0 changed, or with its last row dropped.
sdw::query::ResultSet Corrupt(const sdw::query::ResultSet& r, bool drop_row) {
  const sdw::storage::Schema& schema = r.schema();
  sdw::query::ResultSet out(schema);
  std::vector<std::byte> tuple(schema.tuple_size());
  const size_t rows = drop_row ? r.num_rows() - 1 : r.num_rows();
  for (size_t i = 0; i < rows; ++i) {
    std::memcpy(tuple.data(), r.row(i), tuple.size());
    if (i == 0 && !drop_row) {
      const size_t col = schema.num_columns() - 1;
      std::byte* p = tuple.data() + schema.offset(col);
      switch (schema.column(col).type) {
        case sdw::storage::ColumnType::kInt32: {
          int32_t v;
          std::memcpy(&v, p, sizeof(v));
          v += 1;
          std::memcpy(p, &v, sizeof(v));
          break;
        }
        case sdw::storage::ColumnType::kInt64: {
          int64_t v;
          std::memcpy(&v, p, sizeof(v));
          v += 1;
          std::memcpy(p, &v, sizeof(v));
          break;
        }
        case sdw::storage::ColumnType::kDouble: {
          double v;
          std::memcpy(&v, p, sizeof(v));
          v = v * 1.01 + 1;
          std::memcpy(p, &v, sizeof(v));
          break;
        }
        case sdw::storage::ColumnType::kChar:
          p[0] = static_cast<std::byte>(static_cast<unsigned char>(p[0]) ^ 1);
          break;
      }
    }
    out.AddRow(tuple.data());
  }
  return out;
}

void TestOracleRejectsCorruption() {
  WorkloadSpec spec = *FindWorkload("qpipe_mix_c2");
  spec.scale_factor = 0.01;
  auto db = BuildDatabase(spec, 5);
  const sdw::baseline::VolcanoEngine oracle(&db->catalog, db->pool.get());
  Tracer tracer(false);
  // Q2.1 groups by (year, brand): many rows, so dropping one still leaves
  // a non-empty result.
  const sdw::query::StarQuery q = sdw::ssb::MakeQ21(sdw::ssb::Q21Params());
  const sdw::query::ResultSet good = oracle.Execute(q);
  Check(good.num_rows() > 1, "oracle query returns several rows");

  const auto verdict = [&](sdw::query::ResultSet r) {
    OracleSample sample(4, 1);
    sample.Offer(q, FinishedTicket(std::move(r)));
    return sample.Verify(oracle, &tracer);
  };
  const auto clean = verdict(good);
  Check(clean.checked == 1 && clean.mismatches == 0,
        "oracle accepts the correct result");
  const auto changed = verdict(Corrupt(good, /*drop_row=*/false));
  Check(changed.checked == 1 && changed.mismatches == 1,
        "oracle rejects a changed aggregate value");
  const auto dropped = verdict(Corrupt(good, /*drop_row=*/true));
  Check(dropped.checked == 1 && dropped.mismatches == 1,
        "oracle rejects a dropped row");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestStreamDeterminism();
  perfbench::TestOracleRejectsCorruption();
  std::printf("%s\n", perfbench::failures == 0 ? "ALL PASS" : "FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
