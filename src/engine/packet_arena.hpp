// Pooled payload nodes for the engine's hot paths.
//
// Switch egress queues used to be std::deque<Packet>: correct, but each
// deque owns heap chunks and churns them as queues grow and drain. A
// PacketFifo is an intrusive singly-linked list of arena nodes — push and
// pop recycle fixed-size nodes from the owning shard's PacketArena, so the
// per-packet queue work is two pointer writes and no allocator traffic.
//
// Since the cache-line Event refactor the same arenas also back event
// payloads: a delivery event carries a PacketNode*, an ack event an
// AckNode*, and cold control payloads (Bloom snapshots, owned closures)
// live in ColdNode side-table slots — so the Event itself stays one cache
// line (see engine/event.hpp). Lifetime contract shared by every arena:
// blocks are only freed when the arena dies, so node pointers stay valid
// for the whole run, and a node may be *released into a different shard's
// arena* than it was allocated from (exactly like pooled events — the
// releasing shard owns the node exclusively by then, so no locks).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/packet.hpp"

namespace bfc {

struct PacketNode {
  Packet pkt;
  PacketNode* next = nullptr;
};

struct AckNode {
  AckInfo ack;
  AckNode* next = nullptr;
};

// Side-table slot for cold event payloads: a pause-frame Bloom snapshot
// and/or an owned closure (traffic replay, samplers, tests). Scrubbed on
// release so a free slot never pins a snapshot or captured state.
struct ColdNode {
  std::shared_ptr<const BloomBits> bits;
  std::function<void()> closure;
  ColdNode* next = nullptr;
};

inline void scrub(PacketNode&) {}
inline void scrub(AckNode&) {}
inline void scrub(ColdNode& n) {
  n.bits = nullptr;
  n.closure = nullptr;
}

// Block-allocating free list of `NodeT` (requires a `NodeT* next` member).
// alloc/release are O(1) and allocation-free in steady state; release
// scrubs owning payload fields via the node type's `scrub` overload.
template <class NodeT>
class NodeArena {
 public:
  NodeT* alloc() {
    if (free_ == nullptr) grow();
    NodeT* n = free_;
    free_ = n->next;
    n->next = nullptr;
    return n;
  }

  void release(NodeT* n) {
    scrub(*n);
    n->next = free_;
    free_ = n;
  }

  std::size_t blocks_allocated() const { return blocks_.size(); }

 private:
  static constexpr int kBlock = 1024;

  void grow() {
    blocks_.emplace_back(new NodeT[kBlock]);
    NodeT* block = blocks_.back().get();
    for (int i = 0; i < kBlock; ++i) {
      block[i].next = free_;
      free_ = &block[i];
    }
  }

  std::vector<std::unique_ptr<NodeT[]>> blocks_;
  NodeT* free_ = nullptr;
};

using PacketArena = NodeArena<PacketNode>;
using AckArena = NodeArena<AckNode>;
using ColdArena = NodeArena<ColdNode>;

// FIFO of arena nodes, tracking the byte and packet counts the switch
// model needs (pause horizons, buffer accounting, occupancy telemetry).
class PacketFifo {
 public:
  bool empty() const { return head_ == nullptr; }
  int size() const { return n_; }
  std::int64_t bytes() const { return bytes_; }
  const Packet& front() const { return head_->pkt; }

  void push(PacketArena& arena, const Packet& p) {
    PacketNode* n = arena.alloc();
    n->pkt = p;
    if (tail_ != nullptr) {
      tail_->next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    bytes_ += p.wire;
    ++n_;
  }

  Packet pop(PacketArena& arena) {
    PacketNode* n = pop_node();
    const Packet p = n->pkt;
    arena.release(n);
    return p;
  }

  // Checkpoint plumbing (core/snapshot.hpp): walks the queued packets in
  // FIFO order without disturbing the queue.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (PacketNode* n = head_; n != nullptr; n = n->next) fn(n->pkt);
  }

  // Detaches the head node without copying or releasing it: the caller
  // owns the node and either releases it or hands it on as an event's
  // packet payload (the switch forwarding path does the latter, so a
  // forwarded packet is never copied out of its queue slot).
  PacketNode* pop_node() {
    PacketNode* n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    n->next = nullptr;
    bytes_ -= n->pkt.wire;
    --n_;
    return n;
  }

 private:
  PacketNode* head_ = nullptr;
  PacketNode* tail_ = nullptr;
  std::int64_t bytes_ = 0;
  int n_ = 0;
};

}  // namespace bfc
