// SPSC inbox ring: the cross-shard event transport of the channel-clock
// engine (engine/sharded_sim.hpp).
//
// One ring per ordered shard pair (src, dst). The producer is always the
// executor driving the src shard (which also merges its stolen batches);
// the consumer is always the executor driving the dst shard, so both ends
// are wait-free single-threaded index bumps. The hot path is an array of
// Event* slots the consumer walks sequentially — prefetchable, unlike a
// pointer-chased list — with head and tail on their own cache lines so the
// two sides never false-share.
//
// The ring never drops and never reorders. When the ring is full the
// producer appends to a producer-private overflow FIFO (intrusive, via
// Event::next) and keeps appending there until the overflow has fully
// flushed back through the ring — so arrival order is exactly push order
// even across a wraparound burst. Overflowed events are invisible to the
// consumer until flushed; the engine accounts for that by capping the
// producer's published channel clock at `overflow_min_at()` minus the
// channel lookahead, so a consumer can never run past an event that is
// still parked in an overflow list (see publish_bound()).
//
// Capacity is a power of two, defaulting to kDefaultCap and overridable
// via BFC_INBOX_RING_CAP — the test hook tests/test_engine.cpp uses to
// force wraparound and overflow with a handful of events.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "engine/event.hpp"
#include "sim/time.hpp"

namespace bfc {

class InboxRing {
 public:
  static constexpr std::size_t kDefaultCap = 1024;
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  explicit InboxRing(std::size_t capacity = kDefaultCap)
      : slots_(round_pow2(capacity)), mask_(slots_.size() - 1) {}

  // ---- producer side -------------------------------------------------

  void push(Event* e) {
    ++pushed_;
    if (ovf_head_ == nullptr && try_ring(e)) return;
    flush_overflow();
    if (ovf_head_ == nullptr && try_ring(e)) return;
    // Ring full (or an older overflow still pending): park in push order.
    ++overflowed_;
    e->next = nullptr;
    if (ovf_tail_ != nullptr) {
      ovf_tail_->next = e;
    } else {
      ovf_head_ = e;
    }
    ovf_tail_ = e;
    if (e->at < ovf_min_at_) ovf_min_at_ = e->at;
  }

  // Moves parked events into the ring as space allows; returns how many
  // moved (progress for the engine's stall check — a flush is work even
  // when no clock rises). The engine calls this before every
  // channel-clock publication, so a parked event is stuck only while the
  // consumer genuinely has a full ring's worth of undrained events in
  // front of it. A partial flush leaves ovf_min_at_ untouched: stale-low
  // is conservative (the clock cap only holds further back than needed).
  std::size_t flush_overflow() {
    std::size_t moved = 0;
    while (ovf_head_ != nullptr) {
      Event* e = ovf_head_;
      Event* next = e->next;
      // The consumer owns e (and writes e->next) the instant try_ring
      // publishes it, so e must be fully written before the attempt; on
      // failure e is still producer-private and the link is restored.
      e->next = nullptr;
      if (!try_ring(e)) {
        e->next = next;
        return moved;
      }
      ovf_head_ = next;
      ++moved;
    }
    ovf_tail_ = nullptr;
    ovf_min_at_ = kNever;
    return moved;
  }

  bool overflow_empty() const { return ovf_head_ == nullptr; }

  // Earliest timestamp parked in the overflow list (kNever when empty):
  // the producer's channel clock may not advance past this minus the
  // channel lookahead, or the consumer could run ahead of an event it
  // cannot see yet.
  Time overflow_min_at() const { return ovf_min_at_; }

  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t overflowed() const { return overflowed_; }

  // Undrained events currently visible in the ring (excludes the
  // producer-private overflow FIFO). Callable from either side:
  // relaxed loads make it an instantaneous approximation, which is all
  // the occupancy gauge needs. Telemetry only.
  std::size_t size_approx() const {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_relaxed);
  }

  // ---- consumer side -------------------------------------------------

  // Pops every visible event in push order into `fn(Event*)`. The tail
  // acquire pairs with the producer's release, so slot contents are
  // visible; the head release pairs with the producer's acquire, so a
  // slot is never overwritten before its event was taken.
  template <class Fn>
  std::size_t drain(Fn&& fn) {
    const std::size_t t = tail_.load(std::memory_order_acquire);
    std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t n = t - h;
    if (n == 0) return 0;
    for (; h != t; ++h) {
      Event* e = slots_[h & mask_];
      // Prefetch only slots covered by the tail acquire above: slot t is
      // the producer's next write target and must not be read here.
      if (h + 1 != t) {
        __builtin_prefetch(slots_[(h + 1) & mask_]);
      }
      fn(e);
    }
    head_.store(h, std::memory_order_release);
    return n;
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  static std::size_t round_pow2(std::size_t n) {
    std::size_t p = 2;
    while (p < n) p <<= 1;
    return p;
  }

  bool try_ring(Event* e) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= slots_.size()) {
      return false;
    }
    slots_[t & mask_] = e;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  std::vector<Event*> slots_;
  const std::size_t mask_;
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-written
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-written
  // Producer-private overflow FIFO; the consumer never touches these.
  alignas(64) Event* ovf_head_ = nullptr;
  Event* ovf_tail_ = nullptr;
  Time ovf_min_at_ = kNever;
  std::uint64_t pushed_ = 0;
  std::uint64_t overflowed_ = 0;
};

}  // namespace bfc
