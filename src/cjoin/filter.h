// A CJOIN filter: the fused shared-selection + shared-hash-join for one
// dimension table (paper §2.4-2.5, Figure 3).
//
// The filter's hash table maps dimension primary keys to the union of
// dimension tuples selected by any active query referencing the dimension;
// each entry carries match bits (one per query slot). Queries that do not
// reference the dimension sit in the filter's pass mask. Processing a fact
// tuple computes  bits &= match(entry) | pass_mask  — a hash probe plus one
// bitwise AND — and records the joined dimension row for projection.

#ifndef SDW_CJOIN_FILTER_H_
#define SDW_CJOIN_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "cjoin/tuple_batch.h"
#include "common/aligned.h"
#include "common/bitmap.h"
#include "common/stats.h"
#include "qpipe/flat_hash_table.h"
#include "query/predicate.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace sdw::cjoin {

/// Per-worker reusable scratch for Filter::Process. Each filter-worker
/// thread owns one; the vectors grow to the high-water batch size once and
/// are reused, so steady-state processing performs no heap allocation.
struct FilterScratch {
  std::vector<uint32_t> rows;     // batch tuple index of each live tuple
  std::vector<int64_t> keys;      // gathered FK keys, live tuples compacted
  std::vector<uint64_t> values;   // ProbeBatch output (entry index or miss)
};

/// Shared selection + hash join over one dimension.
class Filter {
 public:
  /// `position` is the filter's index in the pipeline (column of the batch
  /// dim_rows matrix); `slots` the slot capacity. Match-bit rows start at
  /// the full capacity width, WordsFor(slots); Rewidth narrows them.
  Filter(const storage::Table* dim_table, std::string fact_fk_column,
         std::string dim_pk_column, size_t position, size_t slots);

  SDW_DISALLOW_COPY(Filter);

  const storage::Table* dim_table() const { return dim_table_; }
  const std::string& fact_fk_column() const { return fact_fk_column_; }
  const std::string& dim_pk_column() const { return dim_pk_column_; }
  size_t position() const { return position_; }

  /// True when this filter implements the given join triple.
  bool Matches(const storage::Table* dim, const std::string& fk,
               const std::string& pk) const {
    return dim == dim_table_ && fk == fact_fk_column_ && pk == dim_pk_column_;
  }

  /// One pending admission of a batched admission epoch: the query's slot
  /// and its selection on this dimension. The predicate must stay alive for
  /// the duration of the AdmitQueryBatch call.
  struct AdmitRequest {
    uint32_t slot;
    const query::Predicate* pred;
  };

  /// Batched admission: ONE scan of the dimension (through the buffer pool)
  /// serves every pending query in `reqs` — each tuple is evaluated against
  /// all pending predicates and the bits of the matching queries' slots are
  /// set, so an admission pause costs one scan per dimension however many
  /// queries were waiting (SharedDB-style amortization). Called only while
  /// the pipeline is paused. Non-OK when the dimension scan failed: the
  /// filter's internal state stays consistent (sentinel restored, hash table
  /// rebuilt) but the batch's match bits are incomplete — the caller must
  /// fail the batch's queries and retire their slots (RemoveQuery erases the
  /// partial bits, exactly as for completed queries).
  Status AdmitQueryBatch(const AdmitRequest* reqs, size_t n,
                         storage::BufferPool* pool);

  /// Single-query admission: a batch of one.
  Status AdmitQuery(uint32_t slot, const query::Predicate& pred,
                    storage::BufferPool* pool) {
    const AdmitRequest req{slot, &pred};
    return AdmitQueryBatch(&req, 1, pool);
  }

  /// Dimension scans performed by admissions — one per AdmitQueryBatch call
  /// regardless of how many queries the batch carried. The stress tests
  /// assert one scan per dimension per admission epoch through this counter.
  uint64_t admission_scans() const { return admission_scans_.value(); }

  /// Marks `slot` as not referencing this dimension (pass-through).
  void SetPass(uint32_t slot) { pass_mask_.Set(slot); }

  /// Retires a query's slot: clears it from the pass mask and its match bit
  /// from every entry, so no dead slot holds bits and a recycled slot starts
  /// clean. Pipeline must be paused.
  void RemoveQuery(uint32_t slot) {
    pass_mask_.Clear(slot);
    CleanSlot(slot);
  }

  /// Clears `slot`'s bit from every hash-table entry.
  void CleanSlot(uint32_t slot);

  /// Match-bit words per entry — the pipeline's current bitmap width.
  size_t words() const { return words_; }

  /// Re-lays every entry's match bits at `words` words per entry: growing
  /// appends zero words, shrinking drops the high words (which must hold
  /// only dead slots, i.e. zeros). Batches processed afterwards must carry
  /// `words` words per tuple. Pipeline must be paused.
  void Rewidth(size_t words);

  /// Precomputes the fact FK column's byte offset and width so Process can
  /// gather keys with fixed-stride loads instead of per-tuple schema
  /// interpretation. Called once when the filter joins a pipeline.
  void BindFactColumn(const storage::Schema& fact_schema);

  /// Processes one batch in a filter-worker thread: gathers the FK keys of
  /// all live tuples (fixed offset + stride), probes them in one batched
  /// call, ANDs bitmaps, records joined dimension rows, and clears the
  /// batch's live bit for tuples whose bitmap goes empty. Requires
  /// BindFactColumn. `scratch` is the calling worker's reusable scratch.
  ///
  /// Dispatches per page layout: row-major batches run the retained
  /// fixed-stride gather + scalar-bitmap body (the differential oracle
  /// behind EngineOptions::columnar_pages=false); PAX batches run the
  /// columnar kernels — contiguous key reads straight off the FK minipage
  /// and the AVX2 multi-word bitmap pass. Both probe the same flat table
  /// and produce bit-identical bitmaps / dim_rows / live masks.
  void Process(TupleBatch* batch, FilterScratch* scratch) const;

  /// Retained per-tuple reference implementation (one GetIntAny + one
  /// dependent-load probe per tuple) — the differential-test and benchmark
  /// baseline for Process. Produces bit-identical bitmaps / dim_rows / live
  /// masks.
  void ProcessScalar(TupleBatch* batch, const storage::Schema& fact_schema,
                     size_t fact_fk_col_idx) const;

  /// Number of distinct dimension tuples currently referenced (hash table
  /// size) — the shared-operator bookkeeping the paper discusses.
  size_t num_entries() const { return flat_ht_.size(); }

 private:
  const storage::Table* dim_table_;
  const std::string fact_fk_column_;
  const std::string dim_pk_column_;
  const size_t position_;
  size_t words_;  // match-bit words per entry; changes only in Rewidth

  /// Columnar-batch kernels behind Process's per-page dispatch.
  void ProcessColumnar(TupleBatch* batch, FilterScratch* scratch) const;

  // pk -> entry index, open addressing: the admission-path insert-or-find
  // index (no Build step, grows in place at pauses) and the probe structure
  // of every Process body.
  qpipe::FlatInt64HashTable flat_ht_;
  // Per-entry arrays, always followed by one sentinel entry (zero match
  // bits, kNoDimRow row id) that ProbeBatch misses are redirected to — this
  // keeps the Process hot loop branchless (no data-dependent hit/miss
  // branch; a miss ANDs with 0|pass and re-writes kNoDimRow).
  std::vector<uint32_t> entry_rows_;    // dim row id per entry (+ sentinel)
  // Cache-line aligned: Process indexes entry rows randomly, and a 64-byte
  // base keeps every 32-byte (4-word) row inside a single line.
  CacheAlignedVector<uint64_t> entry_bits_;  // words_ match bits per entry (+")
  Bitset pass_mask_;  // sized to the slot capacity; the first words_ are read
  Counter admission_scans_;

  size_t dim_pk_col_idx_;

  // Fact FK gather plan, precomputed by BindFactColumn.
  size_t fk_col_ = 0;
  uint32_t fk_offset_ = 0;
  bool fk_is_int32_ = false;
  bool fk_bound_ = false;
};

}  // namespace sdw::cjoin

#endif  // SDW_CJOIN_FILTER_H_
