// Set-associative flow table (Section 3.2).
//
// Hardware gives us a fixed array of entries, `ways` per bucket, plus a small
// shared overflow pool — never dynamic allocation per flow. An entry is keyed
// by (vfid, egress port, priority class); distinct 5-tuples that fold onto
// the same key share the entry (and therefore the same physical queue).
// `acquire` returns nullptr when both the bucket and the overflow pool are
// exhausted: the caller falls back to a static queue and counts an overflow
// packet (Fig. 13).
//
// Storage is materialized in two lazy levels. Buckets group into chunks of
// 64; a chunk (~1 KB: 64 bucket pointers plus 64 overflow-chain heads) is
// allocated when the first flow hashes into it, and a bucket's `ways`
// entries only when a flow first hashes into that bucket. Bucket entries
// are carved from pool blocks the table owns (kPoolBuckets buckets each),
// so there is no per-bucket malloc and an entry never moves. The
// *capacity* contract is unchanged — bounded, nothing evicted while in
// use — but memory follows the buckets flows touch, not the hash spread:
// a switch that never sees traffic holds no entry memory at all, and one
// flow costs a chunk plus one bucket, not 64 buckets. Nothing is released
// (a switch that was busy stays warm); `allocated_chunks()` /
// `allocated_bytes()` expose the footprint to tests and reports.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace bfc {

struct FlowEntry {
  std::uint32_t vfid = 0;
  std::int32_t egress = -1;
  std::int32_t prio = 0;
  bool in_use = false;

  // Per-entry switch state.
  std::int32_t queue = -1;       // assigned physical queue at `egress`
  std::int32_t pkts = 0;         // packets resident in that queue
  std::int32_t in_port = -1;     // upstream (ingress) the entry is fed from
  bool paused = false;           // we currently pause this VFID upstream
  bool resume_pending = false;   // queued behind the resume limiter
  bool holds_resume_slot = false;  // counted among the queue's outstanding
                                   // resumes until its data arrives back

  // Links in the per-physical-queue entry list at `egress` (the Switch
  // scans it to find resume candidates when the queue drains, §3.5).
  FlowEntry* q_next = nullptr;
  FlowEntry* q_prev = nullptr;

  FlowEntry* next = nullptr;     // overflow chain
};

class FlowTable {
 public:
  // `n_slots` bucketed entries organized as (n_slots / ways) buckets of
  // `ways`, plus `overflow_slots` chainable spares.
  FlowTable(int n_slots, int ways, int overflow_slots);

  // Finds or creates the entry for the key triple. Sets `created` when the
  // entry is new. Returns nullptr when the table is full (bounded state:
  // nothing is ever evicted while in use).
  FlowEntry* acquire(std::uint32_t vfid, int egress, int prio, bool& created);

  FlowEntry* find(std::uint32_t vfid, int egress, int prio);
  const FlowEntry* find(std::uint32_t vfid, int egress, int prio) const;

  // Returns the entry to the free state. The entry must be in use.
  void erase(FlowEntry* e);

  std::size_t size() const { return live_; }
  std::size_t capacity() const {
    return n_buckets_ * static_cast<std::size_t>(ways_) + overflow_slots_;
  }
  std::int64_t overflow_rejects() const { return rejects_; }

  // Lazy-storage introspection (idle-footprint assertions, reports).
  std::size_t allocated_chunks() const { return n_chunks_; }
  std::size_t allocated_bytes() const;

  // Buckets per entry pool block (fewer when the table has fewer
  // buckets). At 4 ways a block is ~3.5 KB: few enough mallocs that a
  // busy table's blocks stay cheap, small enough that the one partly used
  // block is the only slack.
  static constexpr std::size_t kPoolBuckets = 16;

 private:
  friend class Snapshot;  // checkpoint/restore (chunk set, rejects_)

  // 64 buckets per chunk: at the default geometry (16384 VFIDs, 4 ways)
  // a switch has 64 chunks, materialized only as flows hash in.
  static constexpr std::size_t kChunkBuckets = 64;

  // A materialized chunk. The hot path's lookup is the directory load,
  // the bucket pointer, then the entries: one load deeper than a
  // monolithic array.
  struct Chunk {
    FlowEntry* ways[kChunkBuckets] = {};   // per bucket; null = untouched
    FlowEntry* chain[kChunkBuckets] = {};  // per-bucket overflow chain head
  };

  std::size_t bucket_of(std::uint32_t vfid, int egress, int prio) const;
  Chunk& chunk_for(std::size_t bucket);  // materializes the chunk
  FlowEntry* take_bucket();              // next `ways` entries from the pool
  std::size_t pool_block_buckets() const;
  void ensure_overflow();

  std::vector<std::unique_ptr<Chunk>> chunks_;  // directory; null = untouched
  std::vector<std::unique_ptr<FlowEntry[]>> pool_;  // bucket entry blocks
  std::size_t pool_free_ = 0;         // buckets left in pool_.back()
  std::vector<FlowEntry> overflow_;   // shared spare pool (lazy)
  FlowEntry* free_overflow_ = nullptr;
  int ways_;
  std::size_t n_buckets_;
  std::size_t overflow_slots_;
  std::size_t n_chunks_ = 0;
  bool overflow_init_ = false;
  std::size_t live_ = 0;
  std::int64_t rejects_ = 0;
};

}  // namespace bfc
