// Shared aggregation for the CJOIN Global Query Plan.
//
// After distribution, aggregation is the last block of per-query work in the
// pipeline: N same-shape queries each rebuild the same group-by table over
// the same joined tuples, differing only in which tuples their predicates
// admit. This stage folds each tuple ONCE per distinct aggregation SHAPE and
// keeps the per-query results per query, so the per-tuple aggregation cost
// grows with distinct group-by shapes, not with concurrent query count (cf.
// "Real-Time Analytics by Coordinating Reuse and Work Sharing" in
// PAPERS.md).
//
// Mechanism. Queries whose StarQuery::AggSignature() matches — identical
// join structure, group-by keys and aggregate expressions; predicate
// constants free — bind to one Group. For every annotated batch the
// distributor folds each live tuple ONCE per group into its part's PARTIAL
// table, keyed by
//
//     (group-key bytes ++ member-bitmap bytes)
//
// where the member bitmap is the tuple's query bitmap restricted to the
// group's members, with each member's fact-predicate verdict applied. The
// bitmap key partitions every accumulator's contributions exactly by which
// member queries the tuple qualified for, so a partial entry belongs, whole,
// to every member whose bit it carries.
//
// Merged state is member-major: each Member owns an AccTable keyed by group
// bytes only, which is exactly the aggregate the member would have computed
// alone (the bitmap ∧ group invariant the property tests check).
// MergePartials expands every partial entry into the table of each member
// its bitmap names; after that
//
//   * a completing member's slice is a move of its own table (TakeSlice);
//   * retiring a member drops its table — survivors' tables are untouched,
//     which is what makes mid-cycle cancellation and fault retirement side-
//     effect free, and a re-bound bit starts from an empty table.
//
// So a completion pause costs O(partial entries since the last merge × their
// member bits) plus O(the finishing member's own groups), never a walk of
// every live member's state.
//
// Partial key-tail layout: the member bitmap is the pipeline's current slot
// words (mask_words, the live bitmap width) followed by the fold words.
// Member bits are numbered independently of that width — slots from 0, fold
// bits from fold_base() — and mapped to a tail position only when a partial
// key is built or expanded. Member tables carry no bitmap, so a width change
// (Rewidth, at a pause) only merges the old-layout partials first.
//
// The pipeline's pause discipline is the synchronization contract: FoldBatch
// runs concurrently from distributor parts (each on its own partial);
// everything else requires the pipeline drained.

#ifndef SDW_CJOIN_SHARED_AGG_H_
#define SDW_CJOIN_SHARED_AGG_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cjoin/tuple_batch.h"
#include "common/bitmap.h"
#include "query/agg_ops.h"
#include "query/plan.h"
#include "query/predicate.h"
#include "storage/schema.h"

namespace sdw::cjoin {

/// Byte move from a fact row or a joined dimension row into a materialized
/// join-output tuple. Shared by the distributor's per-query projection and
/// the shared aggregation stage's row materialization.
struct JoinRowMove {
  bool from_fact;
  size_t filter_pos;  // valid when !from_fact
  size_t src_col;     // source column index (fact moves read PAX minipages)
  uint32_t src_off;   // row-major byte offset of src_col in its schema
  uint32_t dst_off;
  uint32_t len;
};

/// The shared aggregation stage. Owned by the CjoinPipeline; standalone
/// construction (no pipeline) is supported for the differential tests.
class SharedAggregator {
 public:
  /// Resolves a joined dimension row: base pointer of row `row` of the
  /// dimension bound at `filter_pos` (the pipeline wraps its filters; tests
  /// with fact-only shapes pass nullptr).
  using DimRowFn =
      std::function<const std::byte*(size_t filter_pos, uint32_t row)>;

  /// Accumulator table: key -> one accumulator per aggregate. Partial
  /// tables key by (group bytes ++ bitmap bytes); member tables and slices
  /// key by group bytes only.
  using AccTable = std::unordered_map<std::string, std::vector<query::AggAcc>>;

  /// A residual dimension predicate of a folded member: the satellite's own
  /// selection on one dimension, evaluated against the joined dimension row
  /// where it differs from its host's (identical predicates need no
  /// residual — the host's filter verdict is already exact for them).
  struct Residual {
    size_t filter_pos = 0;                 // batch dim_rows column
    const storage::Schema* dim_schema = nullptr;
    query::Predicate::Bound pred;          // bound on *dim_schema
    /// Memoized verdict per dimension-table row (bit r == pred on row r):
    /// dimension tables are immutable, so the pipeline precomputes this once
    /// at fold time and the hot path pays one bit test per tuple instead of
    /// interpreting the predicate. Empty = not memoized (evaluate `pred`).
    std::vector<uint64_t> row_pass;
  };

  /// One member query of a group. Slot members (`folded == false`) own a
  /// pipeline slot: their tuple verdicts are the slot's bitmap bits and
  /// `bit == slot`. Folded members (satellites of dynamic query folding)
  /// ride a host slot's bits instead: `slot` names the HOST slot whose
  /// filter verdict bounds them, and `bit` is a private fold bit (numbered
  /// from fold_base(), stored in the key tail's fold words) where their
  /// refined verdict — host bit ∧ own fact predicate ∧ dim residuals — is
  /// recorded, so slicing and retirement work identically for both kinds.
  struct Member {
    uint32_t bit = 0;
    uint32_t slot = 0;
    bool folded = false;
    query::Predicate::Bound fact_pred;  // bound on the fact schema
    std::vector<Residual> residuals;    // folded members only
    /// Merged state: this member's aggregate over every partial merged so
    /// far, keyed by group bytes. (`= {}` lets brace-initialized Members
    /// omit it.)
    AccTable table = {};
  };

  /// One aggregation shape and its members' shared state.
  struct Group {
    std::string signature;         // StarQuery::AggSignature()
    storage::Schema join_schema;   // materialized join-output row layout
    uint32_t join_row_size = 0;
    std::vector<JoinRowMove> moves;
    std::vector<size_t> group_cols;       // into join_schema
    std::vector<query::BoundAgg> aggs;    // bound against join_schema
    storage::Schema out_schema;           // group cols, then one col per agg
    size_t key_width = 0;                 // group-key bytes (key prefix)

    Bitset member_mask;            // bound member bits, by member number
                                   // (slots, then fold bits at fold_base)
    std::vector<Member> members;
    size_t folded_members = 0;     // count of members with folded == true

    // Indexes rebuilt on every member change and width change (pause
    // surface). The fold index lists which host slots carry satellites, and
    // each host's satellites as a CSR list of `members` indices: FoldBatch
    // walks only the satellites of the host slots a tuple actually matched
    // instead of scanning every member per tuple. `tail_member` maps a
    // partial key-tail bit to its member's index in `members` (kNoMember
    // where no member is bound), so MergePartials expands an entry without
    // searching.
    std::vector<uint64_t> sat_slot_mask;  // mask_words: slots with satellites
    std::vector<uint32_t> sat_begin;      // per slot: offset into sat_idx
    std::vector<uint32_t> sat_idx;        // member indices, grouped by slot
    std::vector<uint32_t> tail_member;    // member_words*64 tail bits

    std::vector<AccTable> partials;  // one per distributor part
  };

  /// `tail_member` value for a tail bit with no bound member.
  static constexpr uint32_t kNoMember = ~uint32_t{0};

  /// Reusable per-thread scratch for FoldBatch.
  struct FoldScratch {
    std::vector<std::byte> row;
    std::vector<uint64_t> mask;
    std::string key;
  };

  /// `num_parts` distributor parts fold concurrently. `mask_words` is the
  /// slot capacity's bitmap width: tuple bitmaps start that wide (Rewidth
  /// narrows them) and fold bits are numbered from mask_words*64. The
  /// MEMBER bitmap — the key tail — adds `member_words - mask_words` fold
  /// words for folded members, which have no slot of their own (defaults to
  /// none, i.e. no fold capacity).
  SharedAggregator(size_t num_parts, size_t mask_words,
                   size_t member_words = 0);

  /// Current tuple-bitmap width in words (the key tail's slot words).
  size_t mask_words() const { return mask_words_; }
  /// Current key-tail width in words: slot words plus fold words.
  size_t member_words() const { return mask_words_ + fold_words_; }
  /// Number of the first fold bit (fixed: the slot capacity in bits).
  uint32_t fold_base() const { return fold_base_; }
  size_t num_groups() const { return groups_.size(); }
  const std::vector<std::unique_ptr<Group>>& groups() const { return groups_; }

  // ------------------------------------------- pause surface (drained only)

  /// The group bound to `signature`, or nullptr.
  Group* FindGroup(const std::string& signature);

  /// Creates an empty group for `signature`; the caller fills the shape
  /// fields (schema, moves, group_cols, aggs, out_schema, key_width) before
  /// the pipeline resumes.
  Group* CreateGroup(std::string signature);

  /// Binds `slot` as a member (bit == slot).
  void AddMember(Group* g, uint32_t slot, query::Predicate::Bound fact_pred);

  /// Binds a folded member (dynamic query folding): `bit` is a fold bit in
  /// [fold_base, fold_base + fold words*64) and `host_slot` the
  /// in-flight slot whose filter verdict bounds the satellite. Its refined
  /// verdict per tuple is host bit ∧ fact_pred ∧ residuals.
  void AddFoldedMember(Group* g, uint32_t bit, uint32_t host_slot,
                       query::Predicate::Bound fact_pred,
                       std::vector<Residual> residuals);

  /// Merges every part's partial table into the member tables: each entry
  /// is added to the table of every member whose bit its key tail carries.
  /// A tail-less entry (a private group folded by AggregateScalar) goes to
  /// the group's only member. Partials come out empty, capacity retained.
  static void MergePartials(Group* g);

  /// Member bit `bit`'s aggregate so far (a slot for slot members, a fold
  /// bit for folded ones), keyed by group bytes only — exactly the
  /// aggregate the member would have computed alone over the merged
  /// partials. Merge first for a complete answer.
  const AccTable& Slice(const Group& g, uint32_t bit) const;

  /// The completing member's slice: moves member `bit`'s table out, leaving
  /// the member bound with an empty table. Requires partials merged.
  AccTable TakeSlice(Group* g, uint32_t bit);

  /// Renders a slice into out_schema tuples (appended to `rows`, one string
  /// of out_schema.tuple_size() bytes each). An empty slice of a global
  /// aggregate (no group columns) yields the SQL one-zero-row.
  static void RenderSlice(const Group& g, const AccTable& slice,
                          std::vector<std::string>* rows);

  /// Retires the member at bit `slot` (a slot or a fold bit): unbinds it
  /// and drops its table. Survivors' tables are untouched. Requires
  /// partials merged, so no partial entry still carries the bit when it is
  /// re-bound. Returns true when the group has no members left (the caller
  /// destroys it).
  bool RetireSlot(Group* g, uint32_t slot);

  /// Destroys an empty group.
  void DestroyGroup(Group* g);

  /// Changes the tuple-bitmap width to `mask_words` words: every group's
  /// old-layout partials are merged, then the indexes are rebuilt for the
  /// new key-tail layout (fold words follow the new slot words). Shrinking
  /// requires every bound slot below mask_words*64. Slices and member
  /// numbers are unchanged. Batches folded afterwards must carry
  /// `mask_words` words per tuple.
  void Rewidth(size_t mask_words);

  // ------------------------------------------------ hot path (part threads)

  /// Folds one annotated batch into the group's part-local partial table:
  /// one accumulator update per distinct (group key, member bitmap) per
  /// tuple, however many member queries the group serves. When
  /// `preds_pre_applied`, the slot members' fact predicates were already
  /// folded into the bitmaps (the §3.2 preprocessor variant); folded
  /// members' predicates are ALWAYS evaluated here — the preprocessor knows
  /// nothing about satellites.
  void FoldBatch(Group* g, const TupleBatch& batch,
                 const storage::Schema& fact_schema, const DimRowFn& dim_row,
                 size_t part, bool preds_pre_applied,
                 FoldScratch* scratch) const;

 private:
  /// Rebuilds `g`'s fold index and tail map from its current member list.
  void RebuildIndexes(Group* g) const;

  /// Index into `g.members` of the member bound at bit `bit`.
  size_t MemberIndex(const Group& g, uint32_t bit) const;

  /// Key-tail bit position of member bit `bit` at the current width.
  size_t TailBit(uint32_t bit) const {
    return bit < fold_base_ ? bit : bit - fold_base_ + mask_words_ * 64;
  }

  const size_t num_parts_;
  const uint32_t fold_base_;
  const size_t fold_words_;
  size_t mask_words_;  // changes only in Rewidth (pipeline drained)
  std::vector<std::unique_ptr<Group>> groups_;
};

/// Scalar per-query reference: aggregates exactly the batch tuples whose
/// bitmap contains the member's slot (applying its fact predicate unless
/// pre-applied) into `table`, keyed by group bytes only — the retained
/// query-at-a-time aggregation path the differential tests pin the shared
/// path against. Uses the same query/agg_ops.h accumulator ops.
void AggregateScalar(const SharedAggregator::Group& g,
                     const SharedAggregator::Member& mem,
                     const TupleBatch& batch,
                     const storage::Schema& fact_schema,
                     const SharedAggregator::DimRowFn& dim_row,
                     bool preds_pre_applied, SharedAggregator::AccTable* table);

}  // namespace sdw::cjoin

#endif  // SDW_CJOIN_SHARED_AGG_H_
