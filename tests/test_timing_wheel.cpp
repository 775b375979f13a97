// Differential test of the engine scheduler: the hierarchical timing
// wheel must drain in *exactly* the reference heap's (timestamp, key)
// order for any workload the engine can produce — bulk pre-seeding,
// interleaved push/pop with pushes at the current clock (same-timestamp
// ties included), windowed pops with limits, and far-horizon overflow
// (ms-scale RTO-like delays that cross the near wheel's range), plus the
// dense-slot regime of a busy shard (hundreds to thousands of events per
// 512 ns slot, re-pushes into the draining slot), the for_each walk
// the checkpoint codec depends on, and a recycled steal batch slot's
// windows. Every case runs at both geometries the engine uses: the
// shard's TimingWheel and a steal batch's BasicTimingWheel<6>, whose
// 32.8 us horizon the kHorizonNs-based offsets cross into its far heap.
#include "engine/timing_wheel.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "sim/rng.hpp"
#include "test_util.hpp"

using namespace bfc;

namespace {

// The PR-2 scheduler the wheel replaced: a binary heap of value items.
struct RItem {
  Time at;
  std::uint64_t key;
  Event* e;
};
struct RLater {
  bool operator()(const RItem& a, const RItem& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.key > b.key;
  }
};
struct RefHeap {
  std::vector<RItem> h;

  void push(Event* e) {
    h.push_back({e->at, e->key, e});
    std::push_heap(h.begin(), h.end(), RLater{});
  }
  Time min_time() const {
    return h.empty() ? TimingWheel::kNever : h.front().at;
  }
  Event* pop_until(Time limit) {
    if (h.empty() || h.front().at >= limit) return nullptr;
    std::pop_heap(h.begin(), h.end(), RLater{});
    Event* e = h.back().e;
    h.pop_back();
    return e;
  }
};

Event* make_event(EventPool& pool, Time at, std::uint64_t key) {
  Event* e = pool.alloc();
  e->at = at;
  e->key = key;
  return e;
}

// Engine-like key: (entity << 32) | per-entity sequence, entities drawn
// at random so key order is uncorrelated with push order.
std::uint64_t next_key(Rng& rng, std::vector<std::uint32_t>& seq) {
  const auto entity =
      static_cast<std::size_t>(rng.uniform_int(0, 63));
  return (static_cast<std::uint64_t>(entity) << 32) | seq[entity]++;
}

template <class W>
void test_bulk_drain() {
  EventPool pool;
  W wheel;
  RefHeap ref;
  Rng rng(7);
  std::vector<std::uint32_t> seq(64, 0);
  // Timestamps span 3x the near horizon (far overflow) and repeat often
  // (ties resolved by key alone).
  for (int i = 0; i < 20000; ++i) {
    const Time at =
        static_cast<Time>(rng.uniform_int(0, 16)) * (W::kHorizonNs / 8) +
        static_cast<Time>(rng.uniform_int(0, 1000));
    Event* e = make_event(pool, at, next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
  }
  CHECK(wheel.size() == 20000);
  Time last_at = -1;
  std::uint64_t last_key = 0;
  int n = 0;
  for (;;) {
    CHECK(wheel.min_time() == ref.min_time());
    Event* w = wheel.pop_until(W::kNever);
    Event* r = ref.pop_until(W::kNever);
    CHECK(w == r);
    if (w == nullptr) break;
    // Strictly ascending (at, key): ties ordered by key.
    CHECK(w->at > last_at || (w->at == last_at && w->key > last_key));
    last_at = w->at;
    last_key = w->key;
    ++n;
  }
  CHECK(n == 20000);
  CHECK(wheel.empty());
}

template <class W>
void test_interleaved_windows() {
  EventPool pool;
  W wheel;
  RefHeap ref;
  Rng rng(11);
  std::vector<std::uint32_t> seq(64, 0);
  Time now = 0;  // engine invariant: pushes never precede the last pop
  int pops = 0, pushes = 0;
  auto push_one = [&] {
    // Offset mix: exact ties at `now`, sub-slot, intra-horizon, and far
    // (RTO-like, several horizons out).
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    Time off = 0;
    if (kind == 0) {
      off = 0;
    } else if (kind <= 4) {
      off = static_cast<Time>(rng.uniform_int(0, W::kSlotNs * 4));
    } else if (kind <= 8) {
      off = static_cast<Time>(rng.uniform_int(0, W::kHorizonNs));
    } else {
      off = static_cast<Time>(
          rng.uniform_int(W::kHorizonNs,
                          4 * W::kHorizonNs));
    }
    Event* e = make_event(pool, now + off, next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
    ++pushes;
  };
  for (int i = 0; i < 512; ++i) push_one();
  for (int round = 0; round < 4000; ++round) {
    CHECK(wheel.min_time() == ref.min_time());
    // A conservative-PDES-style window: drain everything below a limit a
    // little past the pending minimum, pushing as we go.
    const Time base = ref.min_time();
    if (base == W::kNever) break;
    const Time limit =
        base + static_cast<Time>(rng.uniform_int(0, 3 * W::kSlotNs));
    for (;;) {
      Event* w = wheel.pop_until(limit);
      Event* r = ref.pop_until(limit);
      CHECK(w == r);
      if (w == nullptr) break;
      CHECK(w->at >= now);
      now = w->at;
      ++pops;
      while (rng.uniform() < 0.45 && pushes < 30000) push_one();
    }
  }
  // Drain what's left and confirm both schedulers agree to the end.
  for (;;) {
    Event* w = wheel.pop_until(W::kNever);
    Event* r = ref.pop_until(W::kNever);
    CHECK(w == r);
    if (w == nullptr) break;
    ++pops;
  }
  CHECK(pops == pushes);
  CHECK(wheel.empty() && wheel.size() == 0);
}

template <class W>
void test_far_only_and_limits() {
  EventPool pool;
  W wheel;
  // Only far-horizon events (the RTO pattern): the wheel must turn
  // across empty space and still respect pop limits exactly.
  std::vector<Event*> evs;
  for (int i = 9; i >= 0; --i) {
    Event* e = make_event(pool, (i + 2) * W::kHorizonNs,
                          static_cast<std::uint64_t>(i));
    evs.push_back(e);
    wheel.push(e);
  }
  CHECK(wheel.min_time() == 2 * W::kHorizonNs);
  // Limit below the minimum: nothing pops, state intact.
  CHECK(wheel.pop_until(W::kHorizonNs) == nullptr);
  CHECK(wheel.size() == 10);
  for (int i = 0; i < 10; ++i) {
    Event* e = wheel.pop_until(W::kNever);
    CHECK(e != nullptr);
    CHECK(e->at == (i + 2) * W::kHorizonNs);
  }
  CHECK(wheel.empty());
  CHECK(wheel.min_time() == W::kNever);
  CHECK(wheel.pop_until(W::kNever) == nullptr);
}


// Thousands of events inside two adjacent slots, drained under limits
// that land mid-slot while pushes arrive at `now`, `now + 1`, later in
// the draining slot, in the next slot and past the horizon. Every few
// windows a drained prefix is put back, as split_window does when it
// declines to split. min_time() must match the reference after every pop.
template <class W>
void test_dense_slots() {
  EventPool pool;
  W wheel;
  RefHeap ref;
  Rng rng(23);
  std::vector<std::uint32_t> seq(64, 0);
  const Time base = 7 * W::kSlotNs + 100;  // straddles a boundary
  int pushes = 0, pops = 0;
  auto push_at = [&](Time at) {
    Event* e = make_event(pool, at, next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
    ++pushes;
  };
  for (int i = 0; i < 4000; ++i) {
    push_at(base + static_cast<Time>(
                       rng.uniform_int(0, 2 * W::kSlotNs - 1)));
  }
  for (int i = 0; i < 300; ++i) {
    push_at(base + static_cast<Time>(rng.uniform_int(0, 7)));  // heavy ties
  }
  Time now = 0;
  std::vector<Event*> window;
  for (int round = 0; round < 3000; ++round) {
    CHECK(wheel.min_time() == ref.min_time());
    const Time lo = ref.min_time();
    if (lo == W::kNever) break;
    const Time limit = lo + static_cast<Time>(rng.uniform_int(0, 40));
    const bool put_back = round % 7 == 3;
    const Time window_start = now;
    window.clear();
    for (;;) {
      Event* w = wheel.pop_until(limit);
      Event* r = ref.pop_until(limit);
      CHECK(w == r);
      if (w == nullptr) break;
      CHECK(w->at >= now);
      now = w->at;
      ++pops;
      CHECK(wheel.min_time() == ref.min_time());
      if (put_back) {
        window.push_back(w);
        continue;
      }
      if (pushes >= 40000) continue;
      const Time in_slot =
          W::kSlotNs - 1 - (now & (W::kSlotNs - 1));
      switch (rng.uniform_int(0, 9)) {
        case 0: push_at(now); break;
        case 1: push_at(now + 1); break;
        case 2: case 3: case 4:
          push_at(now + static_cast<Time>(rng.uniform_int(0, in_slot)));
          break;
        case 5: case 6:
          push_at(now + in_slot + 1 +
                  static_cast<Time>(
                      rng.uniform_int(0, W::kSlotNs - 1)));
          break;
        case 7:
          push_at(now + static_cast<Time>(
                            rng.uniform_int(1, 2 * W::kHorizonNs)));
          break;
        default: break;
      }
    }
    if (put_back) now = window_start;
    for (Event* e : window) {
      wheel.push(e);
      ref.push(e);
      --pops;
    }
  }
  for (;;) {
    CHECK(wheel.min_time() == ref.min_time());
    Event* w = wheel.pop_until(W::kNever);
    Event* r = ref.pop_until(W::kNever);
    CHECK(w == r);
    if (w == nullptr) break;
    ++pops;
  }
  CHECK(pops == pushes);
  CHECK(wheel.empty());
}

// for_each must visit every pending event exactly once wherever it sits:
// tick heap (same-nanosecond ties mid-drain, a re-pushed straggler),
// inner chains of the draining slot, later buckets and the far heap.
template <class W>
void test_for_each_after_partial_drains() {
  EventPool pool;
  W wheel;
  RefHeap ref;
  Rng rng(31);
  std::vector<std::uint32_t> seq(64, 0);
  auto push_at = [&](Time at) {
    Event* e = make_event(pool, at, next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
  };
  auto check_visit = [&] {
    std::multiset<const Event*> seen;
    wheel.for_each([&seen](const Event* e) { seen.insert(e); });
    CHECK(seen.size() == wheel.size());
    CHECK(seen.size() == ref.h.size());
    for (const RItem& it : ref.h) CHECK(seen.count(it.e) == 1);
  };
  const Time t0 = 3 * W::kSlotNs + 17;
  for (int i = 0; i < 6; ++i) push_at(t0);  // one tick, six keys
  for (int i = 0; i < 200; ++i) {
    push_at(t0 + static_cast<Time>(rng.uniform_int(1, 3000)));
  }
  for (int i = 0; i < 20; ++i) {
    push_at(t0 + static_cast<Time>(rng.uniform_int(
                     W::kHorizonNs, 3 * W::kHorizonNs)));
  }
  check_visit();
  // Pop two of the six ties: four stay in the tick heap.
  Event* popped = nullptr;
  for (int i = 0; i < 2; ++i) {
    popped = wheel.pop_until(W::kNever);
    CHECK(popped == ref.pop_until(W::kNever));
    CHECK(popped->at == t0);
  }
  check_visit();
  // Put a popped event back beside them, and add a zero-delay post plus
  // pushes into the draining slot's later ticks.
  wheel.push(popped);
  ref.push(popped);
  push_at(t0);
  push_at(t0 + 1);
  push_at(t0 + 200);
  check_visit();
  // Drain in ragged windows, checking the walk after each.
  for (int round = 0; round < 40 && !wheel.empty(); ++round) {
    const Time limit = ref.min_time() + static_cast<Time>(
                                            rng.uniform_int(0, 700));
    for (;;) {
      Event* w = wheel.pop_until(limit);
      CHECK(w == ref.pop_until(limit));
      if (w == nullptr) break;
    }
    check_visit();
  }
}


// A steal batch slot's life: each window's events arrive sorted, the
// batch posts more into its own window while draining to the window end,
// the wheel ends empty, and the slot is reused for a later window —
// sometimes just past the last pop, sometimes beyond the wheel's horizon,
// sometimes wider than the horizon itself.
template <class W>
void test_reuse_after_drain() {
  EventPool pool;
  W wheel;
  RefHeap ref;
  Rng rng(41);
  std::vector<std::uint32_t> seq(64, 0);
  auto push_at = [&](Time at) {
    Event* e = make_event(pool, at, next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
  };
  Time w0 = 5 * W::kSlotNs + 3;
  std::vector<Time> ats;
  for (int window = 0; window < 300; ++window) {
    Time width = 1000;
    switch (rng.uniform_int(0, 3)) {
      case 0: width = static_cast<Time>(rng.uniform_int(1, W::kSlotNs)); break;
      case 1: width = 2 * W::kHorizonNs; break;
      default: break;
    }
    const Time w1 = w0 + width;
    ats.clear();
    const int n = static_cast<int>(rng.uniform_int(1, 60));
    for (int i = 0; i < n; ++i) {
      ats.push_back(w0 + static_cast<Time>(rng.uniform_int(0, width - 1)));
    }
    std::sort(ats.begin(), ats.end());
    for (Time at : ats) push_at(at);
    Time now = w0;
    for (;;) {
      CHECK(wheel.min_time() == ref.min_time());
      Event* w = wheel.pop_until(w1);
      CHECK(w == ref.pop_until(w1));
      if (w == nullptr) break;
      CHECK(w->at >= now && w->at < w1);
      now = w->at;
      if (rng.uniform() < 0.3) {
        push_at(now + static_cast<Time>(rng.uniform_int(0, w1 - 1 - now)));
      }
    }
    CHECK(wheel.empty() && ref.h.empty());
    // The next window starts at or after this one's end, often far past
    // the wheel's horizon from its last pop.
    w0 = w1 + (rng.uniform() < 0.5
                   ? static_cast<Time>(rng.uniform_int(0, 3 * W::kSlotNs))
                   : static_cast<Time>(rng.uniform_int(W::kHorizonNs,
                                                       4 * W::kHorizonNs)));
  }
}

}  // namespace

template <class W>
void run_all() {
  test_bulk_drain<W>();
  test_interleaved_windows<W>();
  test_far_only_and_limits<W>();
  test_dense_slots<W>();
  test_for_each_after_partial_drains<W>();
  test_reuse_after_drain<W>();
}

int main() {
  run_all<TimingWheel>();          // the shard scheduler
  run_all<BasicTimingWheel<6>>();  // a steal batch's: kHorizonNs = 32.8 us
  return 0;
}
