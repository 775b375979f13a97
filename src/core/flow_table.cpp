#include "core/flow_table.hpp"

#include "core/vfid.hpp"

namespace bfc {

namespace {

inline std::uint64_t key_hash(std::uint32_t vfid, int egress, int prio) {
  return mix64((static_cast<std::uint64_t>(vfid) << 24) ^
               (static_cast<std::uint64_t>(egress) << 8) ^
               static_cast<std::uint64_t>(prio));
}

inline bool matches(const FlowEntry& e, std::uint32_t vfid, int egress,
                    int prio) {
  return e.in_use && e.vfid == vfid && e.egress == egress && e.prio == prio;
}

inline void reset_entry(FlowEntry& e) {
  const FlowEntry* keep_next = e.next;
  e = FlowEntry{};
  e.next = const_cast<FlowEntry*>(keep_next);
}

}  // namespace

FlowTable::FlowTable(int n_slots, int ways, int overflow_slots)
    : ways_(ways < 1 ? 1 : ways),
      overflow_slots_(static_cast<std::size_t>(
          overflow_slots < 0 ? 0 : overflow_slots)) {
  const std::size_t slots =
      static_cast<std::size_t>(n_slots < ways_ ? ways_ : n_slots);
  n_buckets_ = slots / static_cast<std::size_t>(ways_);
  if (n_buckets_ == 0) n_buckets_ = 1;
  // Chunk directory only: no entry memory until a flow hashes in.
  chunks_.resize((n_buckets_ + kChunkBuckets - 1) / kChunkBuckets);
}

std::size_t FlowTable::bucket_of(std::uint32_t vfid, int egress,
                                 int prio) const {
  return key_hash(vfid, egress, prio) % n_buckets_;
}

FlowTable::Chunk& FlowTable::chunk_for(std::size_t bucket) {
  std::unique_ptr<Chunk>& c = chunks_[bucket / kChunkBuckets];
  if (c == nullptr) {
    c = std::make_unique<Chunk>();
    ++n_chunks_;
  }
  return *c;
}

std::size_t FlowTable::pool_block_buckets() const {
  return n_buckets_ < kPoolBuckets ? n_buckets_ : kPoolBuckets;
}

FlowEntry* FlowTable::take_bucket() {
  const std::size_t per_block = pool_block_buckets();
  const std::size_t ways = static_cast<std::size_t>(ways_);
  if (pool_free_ == 0) {
    pool_.push_back(std::make_unique<FlowEntry[]>(per_block * ways));
    pool_free_ = per_block;
  }
  return pool_.back().get() + (per_block - pool_free_--) * ways;
}

void FlowTable::ensure_overflow() {
  if (overflow_init_) return;
  overflow_init_ = true;
  // Allocated once, exactly sized: entry pointers (held in chains and by
  // the switch) must never move.
  overflow_.resize(overflow_slots_);
  for (std::size_t i = 0; i + 1 < overflow_.size(); ++i) {
    overflow_[i].next = &overflow_[i + 1];
  }
  free_overflow_ = overflow_.empty() ? nullptr : &overflow_[0];
}

std::size_t FlowTable::allocated_bytes() const {
  return chunks_.capacity() * sizeof(chunks_[0]) + n_chunks_ * sizeof(Chunk) +
         pool_.capacity() * sizeof(pool_[0]) +
         pool_.size() * pool_block_buckets() *
             static_cast<std::size_t>(ways_) * sizeof(FlowEntry) +
         overflow_.capacity() * sizeof(FlowEntry);
}

FlowEntry* FlowTable::acquire(std::uint32_t vfid, int egress, int prio,
                              bool& created) {
  created = false;
  const std::size_t b = bucket_of(vfid, egress, prio);
  Chunk& c = chunk_for(b);
  const std::size_t local = b % kChunkBuckets;
  FlowEntry*& base = c.ways[local];
  if (base == nullptr) base = take_bucket();
  FlowEntry* empty = nullptr;
  for (int w = 0; w < ways_; ++w) {
    FlowEntry& e = base[w];
    if (matches(e, vfid, egress, prio)) return &e;
    if (!e.in_use && empty == nullptr) empty = &e;
  }
  for (FlowEntry* e = c.chain[local]; e != nullptr; e = e->next) {
    if (matches(*e, vfid, egress, prio)) return e;
  }
  if (empty == nullptr) {
    // Bucket full: chain a spare from the overflow pool.
    ensure_overflow();
    if (free_overflow_ == nullptr) {
      ++rejects_;
      return nullptr;
    }
    empty = free_overflow_;
    free_overflow_ = empty->next;
    empty->next = c.chain[local];
    c.chain[local] = empty;
  }
  empty->in_use = true;
  empty->vfid = vfid;
  empty->egress = egress;
  empty->prio = prio;
  ++live_;
  created = true;
  return empty;
}

FlowEntry* FlowTable::find(std::uint32_t vfid, int egress, int prio) {
  const std::size_t b = bucket_of(vfid, egress, prio);
  const Chunk* c = chunks_[b / kChunkBuckets].get();
  if (c == nullptr) return nullptr;  // chunk never materialized
  const std::size_t local = b % kChunkBuckets;
  FlowEntry* base = c->ways[local];
  if (base == nullptr) return nullptr;  // bucket never touched
  for (int w = 0; w < ways_; ++w) {
    if (matches(base[w], vfid, egress, prio)) return &base[w];
  }
  for (FlowEntry* e = c->chain[local]; e != nullptr; e = e->next) {
    if (matches(*e, vfid, egress, prio)) return e;
  }
  return nullptr;
}

const FlowEntry* FlowTable::find(std::uint32_t vfid, int egress,
                                 int prio) const {
  return const_cast<FlowTable*>(this)->find(vfid, egress, prio);
}

void FlowTable::erase(FlowEntry* e) {
  if (e == nullptr || !e->in_use) return;
  --live_;
  // Overflow entries go back to the free list; bucketed entries are cleared
  // in place.
  if (!overflow_.empty() && e >= overflow_.data() &&
      e < overflow_.data() + overflow_.size()) {
    const std::size_t b = bucket_of(e->vfid, e->egress, e->prio);
    FlowEntry** pp = &chunks_[b / kChunkBuckets]->chain[b % kChunkBuckets];
    while (*pp != nullptr && *pp != e) pp = &(*pp)->next;
    if (*pp == e) *pp = e->next;
    reset_entry(*e);
    e->next = free_overflow_;
    free_overflow_ = e;
  } else {
    reset_entry(*e);
  }
}

}  // namespace bfc
