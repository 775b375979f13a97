// Pooled, allocation-free simulation events — exactly one cache line each.
//
// The first engine generation pooled its events but inlined a full
// Packet, an AckInfo, a shared_ptr<const BloomBits>, and a std::function
// into every node (208 bytes), so at 1024 hosts the per-shard scheduler
// was cache-bound. An Event is now a 64-byte node: timestamp, ordering
// key, handler, target object, and a tagged union of payload *handles* —
// packet and ack payloads live in arena nodes (engine/packet_arena.hpp),
// cold payloads (Bloom snapshots, owned closures) in ColdNode side-table
// slots. The payload tag is what lets the recycling path return every
// handle to its arena, so a pooled event can never pin a stale snapshot
// or leak an arena slot between uses.
//
// Payload nodes travel with the event across shards (they are plain
// pointers into never-freed arena blocks) and are released into the
// *executing* shard's arena — the same migration contract as the event
// nodes themselves.
#pragma once

#include <cassert>
#include <cstdint>

#include "engine/packet_arena.hpp"
#include "sim/time.hpp"

namespace bfc {

struct Event;
using EventFn = void (*)(Event&);

// Which union member is live, i.e. which arena the recycler must return
// the payload handle to. kNone covers events whose payload is fully
// inline (u.misc / u.timer) or absent.
enum class EvPayload : std::uint32_t {
  kNone = 0,
  kPacket,  // u.pkt  — PacketNode* (+ delivery port)
  kAck,     // u.ack  — AckNode*
  kCold,    // u.cold — ColdNode* (snapshot bits and/or closure, + port)
};

struct alignas(64) Event {
  Time at = 0;
  // Deterministic tie-break: (posting entity << 32) | per-entity sequence.
  // Unlike a global push counter, this key is independent of thread
  // interleaving, so same-timestamp execution order — and therefore every
  // stat — is identical for every shard count. See docs/ARCHITECTURE.md.
  std::uint64_t key = 0;
  EventFn fn = nullptr;  // null: run `u.cold.node->closure` instead
  void* obj = nullptr;

  // Inline payload: one variant live at a time, declared by `payload` for
  // the arena-handle variants. A handler reads only the variant its
  // poster set; posters assign whole variants so no stale bytes leak
  // between uses.
  union Payload {
    struct {
      PacketNode* node;
      std::int32_t in_port;
    } pkt;  // EvPayload::kPacket
    struct {
      AckNode* node;
    } ack;  // EvPayload::kAck
    struct {
      ColdNode* node;
      std::int32_t port;
    } cold;  // EvPayload::kCold
    struct {
      void* p1;
      std::int32_t i1;
      std::int32_t i2;
    } misc;  // pointer + small ints (RTO, PFC, tx-done, flow start)
    struct {
      std::int64_t i0;
    } timer;  // one raw timestamp (pacing wake gate)
  } u = {};
  EvPayload payload = EvPayload::kNone;

  Event* next = nullptr;  // pool free list / ring overflow / wheel bucket

  void put_packet(PacketNode* n, std::int32_t in_port) {
    u.pkt = {n, in_port};
    payload = EvPayload::kPacket;
  }
  void put_ack(AckNode* n) {
    u.ack = {n};
    payload = EvPayload::kAck;
  }
  void put_cold(ColdNode* n, std::int32_t port = 0) {
    u.cold = {n, port};
    payload = EvPayload::kCold;
  }
};

// The whole point of the layout: scheduler traffic moves one cache line
// per event. Growing any field past this is a performance regression, not
// a style choice — put new payload in an arena instead.
static_assert(sizeof(Event) <= 64, "Event must fit one cache line");
static_assert(alignof(Event) == 64, "Event must be cache-line aligned");

// Returns `e`'s payload handle (if any) to the matching arena and marks
// the event payload-free. Every path that recycles or re-uses an event
// must go through this — it is what guarantees a pooled node never pins
// a snapshot or leaks an arena slot (see tests/test_engine.cpp).
inline void release_event_payload(Event& e, PacketArena& packets,
                                  AckArena& acks, ColdArena& cold) {
  switch (e.payload) {
    case EvPayload::kPacket:
      packets.release(e.u.pkt.node);
      break;
    case EvPayload::kAck:
      acks.release(e.u.ack.node);
      break;
    case EvPayload::kCold:
      cold.release(e.u.cold.node);
      break;
    case EvPayload::kNone:
      break;
  }
  e.payload = EvPayload::kNone;
}

// Block-allocating free list of Events. alloc/release are O(1) and
// allocation-free in steady state; blocks are only ever freed when the
// pool dies, so Event pointers stay valid for the whole run (events may
// be released into a different shard's pool than they came from).
class EventPool {
 public:
  Event* alloc() {
    if (free_ == nullptr) grow();
    Event* e = free_;
    free_ = e->next;
    e->next = nullptr;
    return e;
  }

  // Returns `e` to the free list. The caller must have released any arena
  // payload first (release_event_payload / Shard::recycle) — the pool has
  // no arenas to return handles to, so a live payload here is a leak.
  void release(Event* e) {
    assert(e->payload == EvPayload::kNone &&
           "EventPool::release: arena payload not returned");
    e->fn = nullptr;
    e->payload = EvPayload::kNone;
    e->next = free_;
    free_ = e;
  }

  std::size_t blocks_allocated() const { return blocks_.size(); }

 private:
  static constexpr int kBlock = 1024;

  void grow() {
    blocks_.emplace_back(new Event[kBlock]);
    Event* block = blocks_.back().get();
    for (int i = 0; i < kBlock; ++i) {
      block[i].next = free_;
      free_ = &block[i];
    }
  }

  std::vector<std::unique_ptr<Event[]>> blocks_;
  Event* free_ = nullptr;
};

}  // namespace bfc
