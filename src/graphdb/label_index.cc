#include "graphdb/label_index.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace rpqres {

std::shared_ptr<const LabelIndex::PerLabel> LabelIndex::BuildEntry(
    const GraphDb& db, std::vector<FactId> facts) {
  auto entry = std::make_shared<PerLabel>();
  const int num_nodes = db.num_nodes();
  entry->facts_store = std::move(facts);
  // Per-label CSR over source / target nodes, by counting sort (facts are
  // visited in ascending id order, so each per-node slice is ascending).
  entry->source_offset_store.assign(num_nodes + 1, 0);
  entry->target_offset_store.assign(num_nodes + 1, 0);
  for (FactId f : entry->facts_store) {
    ++entry->source_offset_store[db.fact(f).source + 1];
    ++entry->target_offset_store[db.fact(f).target + 1];
  }
  for (int v = 0; v < num_nodes; ++v) {
    entry->source_offset_store[v + 1] += entry->source_offset_store[v];
    entry->target_offset_store[v + 1] += entry->target_offset_store[v];
  }
  entry->by_source_store.resize(entry->facts_store.size());
  entry->by_target_store.resize(entry->facts_store.size());
  std::vector<int32_t> src_cursor(entry->source_offset_store.begin(),
                                  entry->source_offset_store.end() - 1);
  std::vector<int32_t> tgt_cursor(entry->target_offset_store.begin(),
                                  entry->target_offset_store.end() - 1);
  for (FactId f : entry->facts_store) {
    entry->by_source_store[src_cursor[db.fact(f).source]++] = f;
    entry->by_target_store[tgt_cursor[db.fact(f).target]++] = f;
  }
  entry->PublishStores();
  return entry;
}

void LabelIndex::PerLabel::PublishStores() {
  // The stores are final now; publish the span views. The entry is heap
  // allocated and immutable from here on, so the spans stay valid.
  facts = facts_store;
  by_source = by_source_store;
  source_offset = source_offset_store;
  by_target = by_target_store;
  target_offset = target_offset_store;
}

LabelIndex::Entry LabelIndex::entry(char label) const {
  Entry out;
  out.label = label;
  int16_t slot = slot_[static_cast<unsigned char>(label)];
  if (slot < 0) return out;
  const PerLabel& e = *per_label_[slot];
  out.facts = e.facts;
  out.by_source = e.by_source;
  out.source_offset = e.source_offset;
  out.by_target = e.by_target;
  out.target_offset = e.target_offset;
  return out;
}

LabelIndex LabelIndex::FromMapped(const std::vector<Entry>& entries,
                                  std::shared_ptr<const void> mapping) {
  LabelIndex out;
  for (const Entry& e : entries) {
    auto entry = std::make_shared<PerLabel>();
    entry->facts = e.facts;
    entry->by_source = e.by_source;
    entry->source_offset = e.source_offset;
    entry->by_target = e.by_target;
    entry->target_offset = e.target_offset;
    entry->mapping = mapping;
    out.InsertEntry(e.label, std::move(entry));
  }
  return out;
}

void LabelIndex::InsertEntry(char label,
                             std::shared_ptr<const PerLabel> entry) {
  num_facts_ += static_cast<int64_t>(entry->facts.size());
  slot_[static_cast<unsigned char>(label)] =
      static_cast<int16_t>(per_label_.size());
  per_label_.push_back(std::move(entry));
  labels_.push_back(label);
}

LabelIndex::LabelIndex(const GraphDb& db) {
  slot_.fill(-1);
  // Ascending live fact ids per label.
  std::array<std::vector<FactId>, 256> facts_by_label;
  for (FactId f = 0; f < db.num_facts(); ++f) {
    if (!db.IsLive(f)) continue;
    facts_by_label[static_cast<unsigned char>(db.fact(f).label)].push_back(f);
  }
  for (int l = 0; l < 256; ++l) {
    if (facts_by_label[l].empty()) continue;
    InsertEntry(static_cast<char>(l),
                BuildEntry(db, std::move(facts_by_label[l])));
  }
  // InsertEntry visits labels in byte order, so labels_ is already sorted.
}

namespace {

/// One direction of a splice. `old_ids` / `old_offset` are the parent
/// entry's CSR over source (or target) nodes; `patch` holds the delta's
/// (node, fact id) pairs in that direction, sorted — a parent id is a
/// removal, an id >= `first_new_fact` an addition. Writes the spliced CSR
/// over `num_nodes` nodes to `ids` (sized to the new fact count) and
/// `offset`.
void SpliceCsr(std::span<const FactId> old_ids,
               std::span<const int32_t> old_offset,
               const std::vector<std::pair<NodeId, FactId>>& patch,
               FactId first_new_fact, int num_nodes, std::vector<FactId>* ids,
               std::vector<int32_t>* offset) {
  // The parent entry covers nodes [0, horizon); nodes past it (added after
  // the entry was built) have no parent facts.
  const NodeId horizon =
      old_offset.empty() ? 0 : static_cast<NodeId>(old_offset.size()) - 1;
  const int32_t old_total = old_offset.empty() ? 0 : old_offset[horizon];
  auto old_begin = [&](NodeId v) {
    return v < horizon ? old_offset[v] : old_total;
  };
  offset->resize(num_nodes + 1);
  int32_t* off = offset->data();
  FactId* out = ids->data();
  auto emit = [&out](const FactId* first, const FactId* last) {
    out = std::copy(first, last, out);
  };
  NodeId v = 0;
  size_t p = 0;
  for (;;) {
    const NodeId next = p < patch.size() ? patch[p].first : num_nodes;
    // Nodes [v, next) are untouched: their runs move over wholesale and
    // their offsets shift by the running size difference.
    const int32_t shift =
        static_cast<int32_t>(out - ids->data()) - old_begin(v);
    const NodeId copy_end = std::min(next, horizon);
    for (NodeId u = v; u < copy_end; ++u) off[u] = old_offset[u] + shift;
    for (NodeId u = std::max(v, copy_end); u < next; ++u) {
      off[u] = old_total + shift;
    }
    emit(old_ids.data() + old_begin(v), old_ids.data() + old_begin(next));
    if (next == num_nodes) break;
    // Node `next` is touched: its parent ids minus the removed ones, then
    // its added ids, which sort after every parent id.
    off[next] = static_cast<int32_t>(out - ids->data());
    const FactId* run = old_ids.data() + old_begin(next);
    const FactId* run_end = old_ids.data() + old_begin(next + 1);
    for (; p < patch.size() && patch[p].first == next; ++p) {
      const FactId id = patch[p].second;
      if (id < first_new_fact) {
        const FactId* hit = std::lower_bound(run, run_end, id);
        RPQRES_CHECK_MSG(hit != run_end && *hit == id,
                         "splice: a removed id is not in its parent run");
        emit(run, hit);
        run = hit + 1;
      } else {
        emit(run, run_end);
        run = run_end;
        *out++ = id;
      }
    }
    emit(run, run_end);
    v = next + 1;
  }
  off[num_nodes] = static_cast<int32_t>(out - ids->data());
  RPQRES_CHECK(out == ids->data() + ids->size());
}

}  // namespace

std::shared_ptr<const LabelIndex::PerLabel> LabelIndex::SpliceEntry(
    const GraphDb& db, const PerLabel* parent,
    std::span<const std::pair<unsigned char, FactId>> changes,
    FactId first_new_fact, std::vector<std::pair<NodeId, FactId>>* patch) {
  // `changes` is ascending by id: the removals (parent ids) come first.
  const auto first_added = std::partition_point(
      changes.begin(), changes.end(),
      [first_new_fact](const std::pair<unsigned char, FactId>& c) {
        return c.second < first_new_fact;
      });
  const size_t num_removed = first_added - changes.begin();
  const size_t num_added = changes.end() - first_added;
  static const PerLabel kNoFacts;
  const PerLabel& old = parent != nullptr ? *parent : kNoFacts;
  const size_t size = old.facts.size() - num_removed + num_added;
  if (size == 0) return nullptr;  // every fact of this label was removed

  auto entry = std::make_shared<PerLabel>();
  entry->facts_store.resize(size);
  FactId* out = entry->facts_store.data();
  const FactId* run = old.facts.data();
  const FactId* run_end = run + old.facts.size();
  for (auto c = changes.begin(); c != first_added; ++c) {
    const FactId* hit = std::lower_bound(run, run_end, c->second);
    RPQRES_CHECK_MSG(hit != run_end && *hit == c->second,
                     "splice: a removed id is not a parent fact of its label");
    out = std::copy(run, hit, out);
    run = hit + 1;
  }
  out = std::copy(run, run_end, out);
  for (auto c = first_added; c != changes.end(); ++c) *out++ = c->second;

  entry->by_source_store.resize(size);
  entry->by_target_store.resize(size);
  for (bool by_source : {true, false}) {
    patch->clear();
    for (const auto& change : changes) {
      const Fact& fact = db.fact(change.second);
      patch->emplace_back(by_source ? fact.source : fact.target,
                          change.second);
    }
    std::sort(patch->begin(), patch->end());
    SpliceCsr(by_source ? old.by_source : old.by_target,
              by_source ? old.source_offset : old.target_offset, *patch,
              first_new_fact, db.num_nodes(),
              by_source ? &entry->by_source_store : &entry->by_target_store,
              by_source ? &entry->source_offset_store
                        : &entry->target_offset_store);
  }
  entry->PublishStores();
  return entry;
}

LabelIndex::LabelIndex(const GraphDb& db, const LabelIndex& parent,
                       const std::vector<FactId>& removed,
                       FactId first_new_fact) {
  slot_.fill(-1);
  // The delta's changes, sorted by (label, id): the parent facts it
  // tombstoned and the live facts it added. Within a label the removals
  // (parent ids) precede the additions (ids >= first_new_fact). An id the
  // batch both added and removed is neither: it is dead and no parent's.
  std::vector<std::pair<unsigned char, FactId>> changes;
  changes.reserve(removed.size() + (db.num_facts() - first_new_fact));
  for (FactId f : removed) {
    if (f < first_new_fact) {
      changes.emplace_back(static_cast<unsigned char>(db.fact(f).label), f);
    }
  }
  for (FactId f = first_new_fact; f < db.num_facts(); ++f) {
    if (!db.IsLive(f)) continue;
    changes.emplace_back(static_cast<unsigned char>(db.fact(f).label), f);
  }
  std::sort(changes.begin(), changes.end());
  std::vector<std::pair<NodeId, FactId>> patch;
  size_t at = 0;
  for (int l = 0; l < 256; ++l) {
    const char label = static_cast<char>(l);
    const int16_t parent_slot = parent.slot_[l];
    size_t end = at;
    while (end < changes.size() && changes[end].first == l) ++end;
    if (end == at) {
      // Untouched: share the parent's entry.
      if (parent_slot >= 0) {
        ++shared_labels_;
        InsertEntry(label, parent.per_label_[parent_slot]);
      }
      continue;
    }
    std::shared_ptr<const PerLabel> entry = SpliceEntry(
        db, parent_slot >= 0 ? parent.per_label_[parent_slot].get() : nullptr,
        std::span(changes).subspan(at, end - at), first_new_fact, &patch);
    at = end;
    if (entry != nullptr) InsertEntry(label, std::move(entry));
  }
}

}  // namespace rpqres
