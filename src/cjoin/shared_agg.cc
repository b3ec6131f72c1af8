#include "cjoin/shared_agg.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sdw::cjoin {

namespace {

/// Merges accumulators `from` into `into`, aggregate by aggregate.
void MergeAccs(std::vector<query::AggAcc>* into,
               const std::vector<query::AggAcc>& from) {
  for (size_t a = 0; a < from.size(); ++a) (*into)[a].MergeFrom(from[a]);
}

/// Merges a copy of `accs` into `table[key]`.
void MergeCopy(SharedAggregator::AccTable* table, const std::string& key,
               const std::vector<query::AggAcc>& accs) {
  auto [it, inserted] = table->try_emplace(key, accs);
  if (!inserted) MergeAccs(&it->second, accs);
}

/// Merges an extracted entry into `table`: the node itself moves in when
/// its key is new (no allocation), else its accumulators merge.
void MergeNode(SharedAggregator::AccTable* table,
               SharedAggregator::AccTable::node_type node) {
  auto r = table->insert(std::move(node));
  if (!r.inserted) MergeAccs(&r.position->second, r.node.mapped());
}

/// Materializes the join-output row for batch tuple `i` into `row`.
/// `fact_row` is the tuple's row-major base pointer, or nullptr for PAX fact
/// pages (fact moves then read the column minipages directly).
void MaterializeRow(const SharedAggregator::Group& g, const TupleBatch& batch,
                    const storage::Schema& fact_schema, uint32_t i,
                    const std::byte* fact_row,
                    const SharedAggregator::DimRowFn& dim_row, std::byte* row) {
  const uint32_t* dim_rows = batch.tuple_dim_rows(i);
  for (const JoinRowMove& mv : g.moves) {
    const std::byte* src;
    if (mv.from_fact) {
      src = fact_row != nullptr
                ? fact_row + mv.src_off
                : batch.fact_page->field(fact_schema, mv.src_col, i);
    } else {
      const uint32_t r = dim_rows[mv.filter_pos];
      SDW_DCHECK(r != kNoDimRow);
      src = dim_row(mv.filter_pos, r) + mv.src_off;
    }
    std::memcpy(row + mv.dst_off, src, mv.len);
  }
}

/// Appends the group-key bytes of a materialized row to `key`.
void AppendGroupKey(const SharedAggregator::Group& g, const std::byte* row,
                    std::string* key) {
  for (size_t c : g.group_cols) {
    key->append(
        reinterpret_cast<const char*>(row + g.join_schema.offset(c)),
        g.join_schema.column(c).width());
  }
}

}  // namespace

SharedAggregator::SharedAggregator(size_t num_parts, size_t mask_words,
                                   size_t member_words)
    : num_parts_(num_parts),
      fold_base_(static_cast<uint32_t>(mask_words * 64)),
      fold_words_(member_words > mask_words ? member_words - mask_words : 0),
      mask_words_(mask_words) {}

SharedAggregator::Group* SharedAggregator::FindGroup(
    const std::string& signature) {
  for (auto& g : groups_) {
    if (g->signature == signature) return g.get();
  }
  return nullptr;
}

SharedAggregator::Group* SharedAggregator::CreateGroup(std::string signature) {
  auto g = std::make_unique<Group>();
  g->signature = std::move(signature);
  g->member_mask = Bitset(fold_base_ + fold_words_ * 64);
  g->partials.resize(num_parts_);
  RebuildIndexes(g.get());
  groups_.push_back(std::move(g));
  return groups_.back().get();
}

void SharedAggregator::RebuildIndexes(Group* g) const {
  const size_t slots = mask_words_ * 64;
  g->tail_member.assign(member_words() * 64, kNoMember);
  for (size_t m = 0; m < g->members.size(); ++m) {
    const Member& mem = g->members[m];
    SDW_CHECK(mem.folded || mem.bit < slots);
    g->tail_member[TailBit(mem.bit)] = static_cast<uint32_t>(m);
  }
  g->sat_slot_mask.assign(mask_words_, 0);
  g->sat_begin.assign(slots + 1, 0);
  g->sat_idx.clear();
  if (g->folded_members == 0) return;
  for (const Member& mem : g->members) {
    if (!mem.folded) continue;
    SDW_CHECK(mem.slot < slots);
    ++g->sat_begin[mem.slot + 1];
  }
  for (size_t s = 0; s < slots; ++s) {
    if (g->sat_begin[s + 1] != 0) bits::Set(g->sat_slot_mask.data(), s);
    g->sat_begin[s + 1] += g->sat_begin[s];
  }
  g->sat_idx.resize(g->folded_members);
  std::vector<uint32_t> fill(g->sat_begin.begin(), g->sat_begin.end() - 1);
  for (size_t m = 0; m < g->members.size(); ++m) {
    if (g->members[m].folded) {
      g->sat_idx[fill[g->members[m].slot]++] = static_cast<uint32_t>(m);
    }
  }
}

void SharedAggregator::AddMember(Group* g, uint32_t slot,
                                 query::Predicate::Bound fact_pred) {
  SDW_CHECK(slot < mask_words_ * 64);
  SDW_CHECK(!g->member_mask.Test(slot));
  g->member_mask.Set(slot);
  g->members.push_back({slot, slot, false, std::move(fact_pred), {}});
  RebuildIndexes(g);
}

void SharedAggregator::AddFoldedMember(Group* g, uint32_t bit,
                                       uint32_t host_slot,
                                       query::Predicate::Bound fact_pred,
                                       std::vector<Residual> residuals) {
  SDW_CHECK(bit >= fold_base_ && bit < fold_base_ + fold_words_ * 64);
  SDW_CHECK(host_slot < mask_words_ * 64);
  SDW_CHECK(!g->member_mask.Test(bit));
  g->member_mask.Set(bit);
  g->members.push_back(
      {bit, host_slot, true, std::move(fact_pred), std::move(residuals)});
  ++g->folded_members;
  RebuildIndexes(g);
}

void SharedAggregator::MergePartials(Group* g) {
  std::vector<uint64_t> tail;
  for (AccTable& part : g->partials) {
    for (auto it = part.begin(); it != part.end();) {
      // Each entry leaves the partial as a node whose key is cut to the
      // group bytes in place, so the member that takes it last pays no
      // allocation.
      AccTable::node_type node = part.extract(it++);
      std::string& key = node.key();
      tail.resize((key.size() - g->key_width) / sizeof(uint64_t));
      std::memcpy(tail.data(), key.data() + g->key_width,
                  tail.size() * sizeof(uint64_t));
      key.resize(g->key_width);
      if (tail.empty()) {
        // Tail-less: a private group folded by AggregateScalar.
        SDW_DCHECK(g->members.size() == 1);
        MergeNode(&g->members[0].table, std::move(node));
        continue;
      }
      // Expand the entry into every member its bitmap names; the last one
      // takes the node, the others a copy.
      uint32_t last = kNoMember;
      for (size_t w = 0; w < tail.size(); ++w) {
        for (uint64_t word = tail[w]; word != 0; word &= word - 1) {
          const uint32_t m = g->tail_member[w * 64 + std::countr_zero(word)];
          SDW_DCHECK(m != kNoMember);
          if (last != kNoMember) {
            MergeCopy(&g->members[last].table, key, node.mapped());
          }
          last = m;
        }
      }
      SDW_DCHECK(last != kNoMember);
      MergeNode(&g->members[last].table, std::move(node));
    }
  }
}

size_t SharedAggregator::MemberIndex(const Group& g, uint32_t bit) const {
  const size_t tail_bit = TailBit(bit);
  SDW_CHECK(tail_bit < g.tail_member.size());
  const uint32_t m = g.tail_member[tail_bit];
  SDW_CHECK_MSG(m != kNoMember, "member bit %u is not bound", bit);
  return m;
}

const SharedAggregator::AccTable& SharedAggregator::Slice(const Group& g,
                                                          uint32_t bit) const {
  return g.members[MemberIndex(g, bit)].table;
}

SharedAggregator::AccTable SharedAggregator::TakeSlice(Group* g, uint32_t bit) {
  for (const AccTable& part : g->partials) {
    SDW_CHECK_MSG(part.empty(), "TakeSlice requires partials merged");
  }
  return std::move(g->members[MemberIndex(*g, bit)].table);
}

void SharedAggregator::RenderSlice(const Group& g, const AccTable& slice,
                                   std::vector<std::string>* rows) {
  const size_t tuple_size = g.out_schema.tuple_size();
  const size_t num_groups = g.group_cols.size();
  auto render = [&](const std::string& key,
                    const std::vector<query::AggAcc>& accs) {
    std::string row(tuple_size, '\0');
    std::byte* dst = reinterpret_cast<std::byte*>(row.data());
    std::memcpy(dst, key.data(), key.size());
    for (size_t a = 0; a < g.aggs.size(); ++a) {
      query::EmitAcc(g.aggs[a], g.out_schema, dst, num_groups + a, accs[a]);
    }
    rows->push_back(std::move(row));
  };
  for (const auto& [key, accs] : slice) render(key, accs);
  if (slice.empty() && g.group_cols.empty()) {
    // Global aggregate on empty input: SQL yields exactly one row from
    // zero-initialized accumulators (matching RunAggregate).
    render(std::string(), std::vector<query::AggAcc>(g.aggs.size()));
  }
}

bool SharedAggregator::RetireSlot(Group* g, uint32_t slot) {
  for (const AccTable& part : g->partials) {
    SDW_CHECK_MSG(part.empty(), "RetireSlot requires partials merged");
  }
  const size_t m = MemberIndex(*g, slot);
  if (g->members[m].folded) --g->folded_members;
  // Member order is free (the indexes are rebuilt below): swap-and-pop.
  if (m + 1 != g->members.size()) g->members[m] = std::move(g->members.back());
  g->members.pop_back();
  g->member_mask.Clear(slot);
  RebuildIndexes(g);
  return g->members.empty();
}

void SharedAggregator::DestroyGroup(Group* g) {
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    if (it->get() == g) {
      groups_.erase(it);
      return;
    }
  }
  SDW_CHECK_MSG(false, "DestroyGroup: unknown group");
}

void SharedAggregator::Rewidth(size_t mask_words) {
  if (mask_words == mask_words_) return;
  SDW_CHECK(mask_words >= 1 && mask_words * 64 <= fold_base_);
  // Partial keys carry the old tail layout: expand them while the tail map
  // still reads it.
  for (auto& g : groups_) MergePartials(g.get());
  mask_words_ = mask_words;
  for (auto& g : groups_) RebuildIndexes(g.get());
}

void SharedAggregator::FoldBatch(Group* g, const TupleBatch& batch,
                                 const storage::Schema& fact_schema,
                                 const DimRowFn& dim_row, size_t part,
                                 bool preds_pre_applied,
                                 FoldScratch* scratch) const {
  SDW_DCHECK(batch.words_per_tuple == mask_words_);
  AccTable& table = g->partials[part];
  const size_t words = mask_words_;
  const size_t member_words = this->member_words();
  // Fold bit b sits at key-tail position b - fold_shift (after the slot
  // words); slot bits keep their own position.
  const size_t fold_shift = fold_base_ - words * 64;
  scratch->row.resize(g->join_row_size);
  scratch->mask.resize(member_words);
  std::byte* row = scratch->row.data();
  uint64_t* mask = scratch->mask.data();
  const uint64_t* gmask = g->member_mask.words();
  const bool has_folded = g->folded_members > 0;
  const size_t num_aggs = g->aggs.size();

  const storage::Page& fact_page = *batch.fact_page;
  const bool columnar = fact_page.columnar();
  const uint64_t* live = batch.live_words();
  const size_t live_words = bits::WordsFor(batch.num_tuples);
  for (size_t lw = 0; lw < live_words; ++lw) {
    uint64_t lword = live[lw];
    while (lword != 0) {
      const uint32_t i = static_cast<uint32_t>(
          lw * 64 + static_cast<size_t>(std::countr_zero(lword)));
      lword &= lword - 1;

      // Member bitmap: the tuple's query bitmap restricted to this group.
      // Fold-bit words start zero; folded members' verdicts are computed
      // below from their HOST slot's raw bit (tuple bitmaps carry slots
      // only).
      const uint64_t* tb = batch.tuple_bits(i);
      uint64_t any = 0;
      uint64_t sat_any = 0;
      for (size_t w = 0; w < words; ++w) {
        mask[w] = tb[w] & gmask[w];
        any |= mask[w];
        if (has_folded) sat_any |= tb[w] & g->sat_slot_mask[w];
      }
      for (size_t w = words; w < member_words; ++w) mask[w] = 0;
      if (any == 0 && sat_any == 0) continue;
      const std::byte* fact_row = columnar ? nullptr : fact_page.tuple(i);
      if (!preds_pre_applied) {
        // Per-member fact-predicate verdicts refine the bitmap, so the key
        // attributes the tuple only to members it actually qualifies for.
        for (const Member& mem : g->members) {
          if (mem.folded || mem.fact_pred.IsTrue()) continue;
          if (bits::Test(mask, mem.slot) &&
              !mem.fact_pred.EvalAt(fact_schema, fact_page, i)) {
            bits::Clear(mask, mem.slot);
          }
        }
      }
      if (sat_any != 0) {
        // Folded members: host filter verdict (the RAW slot bit — the
        // host's own fact predicate must not gate its satellites) refined
        // by the satellite's fact predicate and dim residuals. The fold
        // index narrows the walk to the satellites of matched hosts, and
        // memoized residuals cost one bit test per dimension.
        const uint32_t* dim_rows = batch.tuple_dim_rows(i);
        for (size_t w = 0; w < words; ++w) {
          uint64_t hword = tb[w] & g->sat_slot_mask[w];
          while (hword != 0) {
            const size_t host = w * 64 +
                                static_cast<size_t>(std::countr_zero(hword));
            hword &= hword - 1;
            for (uint32_t k = g->sat_begin[host]; k < g->sat_begin[host + 1];
                 ++k) {
              const Member& mem = g->members[g->sat_idx[k]];
              if (!mem.fact_pred.IsTrue() &&
                  !mem.fact_pred.EvalAt(fact_schema, fact_page, i)) {
                continue;
              }
              bool pass = true;
              for (const Residual& r : mem.residuals) {
                const uint32_t dr = dim_rows[r.filter_pos];
                SDW_DCHECK(dr != kNoDimRow);
                if (r.row_pass.empty()
                        ? !r.pred.Eval(*r.dim_schema, dim_row(r.filter_pos, dr))
                        : !bits::Test(r.row_pass.data(), dr)) {
                  pass = false;
                  break;
                }
              }
              if (pass) bits::Set(mask, mem.bit - fold_shift);
            }
          }
        }
      }
      if (!bits::Any(mask, member_words)) continue;

      MaterializeRow(*g, batch, fact_schema, i, fact_row, dim_row, row);
      scratch->key.clear();
      AppendGroupKey(*g, row, &scratch->key);
      scratch->key.append(reinterpret_cast<const char*>(mask),
                          member_words * sizeof(uint64_t));
      auto [it, inserted] = table.try_emplace(scratch->key);
      if (inserted) it->second.resize(num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        query::UpdateAcc(g->aggs[a], g->join_schema, row, &it->second[a]);
      }
    }
  }
}

void AggregateScalar(const SharedAggregator::Group& g,
                     const SharedAggregator::Member& mem,
                     const TupleBatch& batch,
                     const storage::Schema& fact_schema,
                     const SharedAggregator::DimRowFn& dim_row,
                     bool preds_pre_applied,
                     SharedAggregator::AccTable* table) {
  std::vector<std::byte> row_buf(g.join_row_size);
  std::byte* row = row_buf.data();
  std::string key;
  const size_t num_aggs = g.aggs.size();
  const storage::Page& fact_page = *batch.fact_page;
  const bool columnar = fact_page.columnar();
  for (uint32_t i = 0; i < batch.num_tuples; ++i) {
    if (!batch.tuple_live(i)) continue;
    if (!bits::Test(batch.tuple_bits(i), mem.slot)) continue;
    const std::byte* fact_row = columnar ? nullptr : fact_page.tuple(i);
    if (!preds_pre_applied && !mem.fact_pred.IsTrue() &&
        !mem.fact_pred.EvalAt(fact_schema, fact_page, i)) {
      continue;
    }
    MaterializeRow(g, batch, fact_schema, i, fact_row, dim_row, row);
    key.clear();
    AppendGroupKey(g, row, &key);
    auto [it, inserted] = table->try_emplace(key);
    if (inserted) it->second.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      query::UpdateAcc(g.aggs[a], g.join_schema, row, &it->second[a]);
    }
  }
}

}  // namespace sdw::cjoin
