// Hierarchical timing wheel: the engine's one (at, key) event scheduler.
// One geometry parameter, 2^WheelBits outer slots of 512 ns, and two
// instances: TimingWheel (4096 slots, ~2.1 ms) per shard, and
// BasicTimingWheel<6> (64 slots, 32.8 us, against t3's 1 us steal cap)
// per steal batch, where a wider window spills to the far heap, still
// exact. Memory sets the batch size: t3_4096 keeps ~136 batch slots per
// shard, and each 4096-slot wheel touches ~70 KB against ~5 KB.
//
// The binary heap it replaces pays an O(log n) sift over a cache-cold
// working set on every push/pop; with tens of thousands of pending events
// per shard (1024-host runs) the scheduler itself was the bottleneck.
// Almost all events land within a bounded horizon of the shard clock —
// max link propagation + serialization + the BFC refresh period — so a
// calendar layout makes both operations O(1):
//
//   near wheel   kSlots power-of-two buckets, kSlotNs wide each.
//                A bucket is an intrusive Event chain (Event::next):
//                push is two pointer writes + a bitmap bit.
//   far heap     rare long-delay events (ms-scale RTOs, far pre-seeded
//                flow starts) beyond the horizon; a plain binary heap,
//                migrated bucket-ward as the wheel turns past them.
//   inner wheel  the bucket currently draining, scattered once into
//                kSlotNs one-nanosecond sub-buckets (intrusive chains
//                plus a 512-bit occupancy bitmap). Pushes into the
//                draining slot are again two pointer writes + a bit.
//   tick heap    the one nanosecond being drained: its sub-chain
//                (usually 1-3 events; a lone event skips it) is
//                heapified by key into a small (at, key) min-heap, which
//                also takes every push at or before that nanosecond
//                (zero-delay posts, re-pushed stragglers).
//
// A draining slot is dense — about 825 events at load on the T1 BFC
// incast, 840 under DCQCN and 4,780 on the three-tier 4096-host run — so
// one heap over the whole slot would sift 10-12 levels per pop; only
// same-nanosecond ties are heap-ordered.
//
// Determinism: pop order is *exactly* ascending (timestamp, key) — the
// same total order as the reference heap — for any interleaving of
// pushes and pops with at >= the last popped timestamp, plus re-pushes of
// events already popped (split_window puts a window back). Every pending
// event sits in exactly one tier, and the tiers partition time: the tick
// heap holds at <= tick_at_, the inner wheel (tick_at_, end of slot
// cur_), the buckets later slots, the far heap past the horizon. Draining
// tier by tier, sub-bucket by sub-bucket, with same-timestamp ties
// resolved by key in the tick heap regardless of arrival order, yields
// the global order. tests/test_timing_wheel.cpp checks this
// differentially against the reference heap, dense slots, ties and
// far-horizon overflow included.
//
// min_time() is exact (not a bound): the engine's conservative-lookahead
// window start is the cross-shard minimum of it, and an overestimate
// would widen a window past what causality allows.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "engine/event.hpp"
#include "sim/time.hpp"

namespace bfc {

template <int WheelBits>
class BasicTimingWheel {
  static_assert(WheelBits >= 6, "next_occupied_slot scans 64-bit words");

 public:
  // Geometry. 4096 slots of 512 ns cover not just every intra-fabric
  // delay (1 us links, ~120 ns MTU serialization at 100 Gbps, the 5 us
  // BFC refresh) but the lossless family's ~1 ms RoCE-style RTO re-arm —
  // which fires on every ack, so pushing it through the far heap would
  // re-create the O(log n) sift the wheel exists to remove. Only multi-ms
  // timers and far-future pre-seeded arrivals overflow. The slot width is
  // also the inner wheel's size: 512 one-nanosecond sub-buckets, 4 KB of
  // heads and an 8-word bitmap, against the hundreds of events a busy
  // slot holds.
  static constexpr int kSlotBits = 9;               // 512 ns per slot
  static constexpr int kWheelBits = WheelBits;      // TimingWheel: 12 -> 2.1 ms
  static constexpr int kSlots = 1 << kWheelBits;
  static constexpr Time kSlotNs = Time{1} << kSlotBits;
  static constexpr Time kHorizonNs = Time{kSlots} << kSlotBits;
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  BasicTimingWheel()
      : bucket_(kSlots, nullptr),
        bucket_min_(kSlots, kNever),
        occ_(kSlots / 64, 0) {
    inner_.fill(nullptr);
    inner_occ_.fill(0);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Events parked past the bucket horizon (the far heap); near occupancy
  // is size() - far_size(). Telemetry only.
  std::size_t far_size() const { return far_.size(); }

  // Warms the cache line of the event most likely to pop next while the
  // caller is still dispatching the current one.
  void prefetch_next() const {
    if (!tick_.empty()) {
      __builtin_prefetch(tick_.front().e);
      return;
    }
    const int i = next_tick();
    if (i >= 0) __builtin_prefetch(inner_[static_cast<std::size_t>(i)]);
  }

  // Schedules `e` by (e->at, e->key). Requires e->at >= the timestamp of
  // the last event popped (the engine clamps to the shard clock), or `e`
  // to be an already-popped event being put back.
  void push(Event* e) {
    ++size_;
    if (e->at <= tick_at_) {
      // The nanosecond being drained (or a straggler before it).
      tick_.push_back({e->at, e->key, e});
      std::push_heap(tick_.begin(), tick_.end(), Later{});
      return;
    }
    const std::int64_t s = slot_of(e->at);  // >= cur_: tick_at_ >= base-1
    if (s == cur_) {
      link_tick(e);
      return;
    }
    if (s < cur_ + kSlots) {
      const auto b = static_cast<std::size_t>(s & kMask);
      if (bucket_[b] == nullptr) {
        occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
        bucket_min_[b] = e->at;
      } else if (e->at < bucket_min_[b]) {
        bucket_min_[b] = e->at;
      }
      e->next = bucket_[b];
      bucket_[b] = e;
      return;
    }
    far_.push_back({e->at, e->key, e});
    std::push_heap(far_.begin(), far_.end(), Later{});
  }

  // Exact earliest pending timestamp (kNever when empty). Each tier is
  // strictly earlier than the next: tick heap, inner wheel, buckets, far.
  Time min_time() const {
    if (!tick_.empty()) return tick_.front().at;
    const int i = next_tick();
    if (i >= 0) return (cur_ << kSlotBits) + i;
    const std::int64_t s = next_occupied_slot();
    if (s >= 0) return bucket_min_[static_cast<std::size_t>(s & kMask)];
    if (!far_.empty()) return far_.front().at;
    return kNever;
  }

  // Pops the globally earliest event if its timestamp is < `limit`;
  // returns nullptr (state intact) otherwise. Repeated calls with
  // non-decreasing limits drain in exact (at, key) order.
  Event* pop_until(Time limit) {
    for (;;) {
      if (!tick_.empty()) {
        if (tick_.front().at >= limit) return nullptr;
        std::pop_heap(tick_.begin(), tick_.end(), Later{});
        Event* e = tick_.back().e;
        tick_.pop_back();
        --size_;
        return e;
      }
      const int i = next_tick();
      if (i >= 0) {
        const Time t = (cur_ << kSlotBits) + i;
        if (t >= limit) return nullptr;
        const auto u = static_cast<std::size_t>(i);
        inner_occ_[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
        Event* e = inner_[u];
        inner_[u] = nullptr;
        tick_at_ = t;
        if (e->next == nullptr) {  // a lone event needs no ordering
          --size_;
          return e;
        }
        do {
          Event* nxt = e->next;
          e->next = nullptr;
          tick_.push_back({e->at, e->key, e});
          e = nxt;
        } while (e != nullptr);
        std::make_heap(tick_.begin(), tick_.end(), Later{});
        continue;
      }
      if (size_ == 0) return nullptr;
      const std::int64_t s = next_occupied_slot();
      if (s >= 0) {
        if (bucket_min_[static_cast<std::size_t>(s & kMask)] >= limit) {
          return nullptr;  // nothing anywhere is earlier than this bucket
        }
        load_slot(s);
        continue;
      }
      // Only far events remain: turn the wheel onto the earliest one's
      // slot; migration refills the inner wheel and the loop retries.
      if (far_.front().at >= limit) return nullptr;
      enter_slot(slot_of(far_.front().at));
      migrate_far();
    }
  }

  // Checkpoint plumbing (core/snapshot.hpp): visits every pending event —
  // tick heap, inner chains, bucket chains, far heap — without disturbing
  // the wheel. Visit order is unspecified; the snapshot codec sorts by
  // (at, key).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Item& it : tick_) fn(it.e);
    for (Event* chain : inner_) {
      for (Event* e = chain; e != nullptr; e = e->next) fn(e);
    }
    for (Event* chain : bucket_) {
      for (Event* e = chain; e != nullptr; e = e->next) fn(e);
    }
    for (const Item& it : far_) fn(it.e);
  }

 private:
  static constexpr std::int64_t kMask = kSlots - 1;
  static constexpr std::size_t kTickWords = kSlotNs / 64;

  struct Item {
    Time at;
    std::uint64_t key;
    Event* e;
  };
  // Max-heap comparator putting the earliest (at, key) at the front —
  // the same order as the engine's event key contract.
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.key > b.key;
    }
  };

  static std::int64_t slot_of(Time at) { return at >> kSlotBits; }

  // Smallest absolute occupied slot in (cur_, cur_ + kSlots), or -1.
  // Bitmap scan: because occupied slots are unique mod kSlots within the
  // horizon, the first set bit at/after (cur_ + 1) in cyclic order is the
  // earliest slot.
  std::int64_t next_occupied_slot() const {
    const auto start = static_cast<std::size_t>((cur_ + 1) & kMask);
    std::size_t w = start >> 6;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t n = 0; n <= occ_.size(); ++n) {
      if (word != 0) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(word));
        const std::size_t b = (w << 6) | bit;
        const std::int64_t off =
            static_cast<std::int64_t>((b - start) & static_cast<std::size_t>(kMask));
        return cur_ + 1 + off;
      }
      w = (w + 1) % occ_.size();
      word = occ_[w];
    }
    return -1;
  }

  // Offset in slot cur_ of the earliest non-empty sub-bucket, or -1.
  // Sub-buckets at or before tick_at_ are always empty (those pushes join
  // the tick heap), so the scan starts at tick_at_'s word.
  int next_tick() const {
    const Time from = tick_at_ + 1 - (cur_ << kSlotBits);
    for (auto w = static_cast<std::size_t>(from >> 6); w < kTickWords; ++w) {
      if (inner_occ_[w] != 0) {
        return static_cast<int>(w << 6) + __builtin_ctzll(inner_occ_[w]);
      }
    }
    return -1;
  }

  // Chains `e` (in slot cur_, after tick_at_) into its sub-bucket.
  void link_tick(Event* e) {
    const auto u = static_cast<std::size_t>(e->at & (kSlotNs - 1));
    inner_occ_[u >> 6] |= std::uint64_t{1} << (u & 63);
    e->next = inner_[u];
    inner_[u] = e;
  }

  // Makes absolute slot `s` the draining slot with no nanosecond of it
  // drained yet. The tick heap and inner wheel must be empty.
  void enter_slot(std::int64_t s) {
    cur_ = s;
    tick_at_ = (s << kSlotBits) - 1;
  }

  // Advances the drain cursor to absolute slot `s`, scatters its chain
  // into the inner wheel, and pulls far events now inside the horizon.
  void load_slot(std::int64_t s) {
    enter_slot(s);
    const auto b = static_cast<std::size_t>(s & kMask);
    occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    bucket_min_[b] = kNever;
    Event* e = bucket_[b];
    bucket_[b] = nullptr;
    while (e != nullptr) {
      Event* nxt = e->next;
      link_tick(e);
      e = nxt;
    }
    migrate_far();
  }

  void migrate_far() {
    while (!far_.empty() && slot_of(far_.front().at) < cur_ + kSlots) {
      std::pop_heap(far_.begin(), far_.end(), Later{});
      Event* e = far_.back().e;
      far_.pop_back();
      --size_;  // push() re-counts it
      push(e);
    }
  }

  std::int64_t cur_ = 0;             // absolute slot being drained
  Time tick_at_ = -1;                // last nanosecond moved to tick_
  std::vector<Item> tick_;           // (at, key) min-heap, at <= tick_at_
  std::array<Event*, kSlotNs> inner_;               // slot cur_ by ns
  std::array<std::uint64_t, kTickWords> inner_occ_;  // non-empty inner_
  std::vector<Event*> bucket_;       // intrusive chains, slot -> events
  std::vector<Time> bucket_min_;     // exact earliest `at` per bucket
  std::vector<std::uint64_t> occ_;   // occupancy bitmap over buckets
  std::vector<Item> far_;            // (at, key) min-heap past the horizon
  std::size_t size_ = 0;
};

using TimingWheel = BasicTimingWheel<12>;

}  // namespace bfc
