// Checkpoint/warm-start codec implementation. See snapshot.hpp for the
// format contract (layout independence, exact continuation, versioned
// rejection) and docs/ARCHITECTURE.md for the full state inventory.
//
// Each piece of state is described once, by one `io(A&, T&)`. A is the
// Writer (save) or the Reader (restore); both expose the same member
// names, so the field order is stated once for both directions. Load-only
// fix-ups (relinking pointers, materializing slabs) sit inline under
// `if constexpr (A::kLoad)`. A new field is one edit here, plus a
// Snapshot::kVersion bump and re-recorded golden digests in
// tests/test_snapshot.cpp.
#include "core/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/fault.hpp"
#include "core/flow.hpp"
#include "core/network.hpp"
#include "core/nic.hpp"
#include "core/switch.hpp"
#include "engine/sharded_sim.hpp"

namespace bfc {
namespace {

constexpr std::uint64_t kMagic = 0x3150414E53434642ULL;    // "BFCSNAP1"
constexpr std::uint64_t kTrailer = 0x31444E4550414E53ULL;  // "SNAPEND1"
constexpr std::uint64_t kNoFlow = ~std::uint64_t{0};

// The image archive, in either direction: the Writer appends fields to a
// little-endian buffer, the Reader parses them back. Both expose the same
// members, and a member's name is the field's wire width whatever its C++
// type (integers and enums as two's complement, floats as their IEEE
// bits), so the image is identical across hosts regardless of the
// compiler's struct layout. The host is little-endian too, so a field is
// one memcpy of its low bytes and an integer vector one block copy.
// Reading is bounds-checked: any overrun or fail() poisons the stream,
// reads return zero from then on, and restore() reports one error per
// section instead of crashing mid-decode.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the snapshot codec copies little-endian fields verbatim");

template <bool Load>
class Archive {
 public:
  static constexpr bool kLoad = Load;

  Archive() = default;
  Archive(const std::vector<std::uint8_t>& image, Network* world)
      : net(world), p_(image.data()), end_(p_ + image.size()) {}

  Network* const net = nullptr;  // Reader: the world being rebuilt

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }

  template <class... T>
  void u8(T&&... v) {
    (field(v, 1), ...);
  }
  template <class... T>
  void u32(T&&... v) {
    (field(v, 4), ...);
  }
  template <class... T>
  void u64(T&&... v) {
    (field(v, 8), ...);
  }
  // Every count in the image passes through here. The Reader caps it by
  // the bytes left over the element's minimum wire size, so a corrupt
  // count fails the stream instead of driving a huge allocation.
  std::size_t count(std::size_t n, std::size_t width, std::size_t min_bytes) {
    field(n, width);
    if (Load && n > static_cast<std::size_t>(end_ - p_) / min_bytes) fail();
    return ok_ ? n : 0;
  }
  // A vector of integers: a u64 length, then each element at its size,
  // copied as one block.
  template <class V>
  void vec(V& v) {
    using T = typename std::remove_cv_t<V>::value_type;
    static_assert(std::is_integral_v<T>,
                  "vec() copies integer elements verbatim");
    const std::size_t n = count(v.size(), 8, sizeof(T));
    if constexpr (Load) {
      v.resize(n);
      get(v.data(), n * sizeof(T));
    } else {
      put(v.data(), n * sizeof(T));
    }
  }
  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  // One field at `width` bytes. Floats travel as their IEEE bits; for
  // every other type the memcpy is a plain copy.
  template <class T>
  void field(T& v, std::size_t width) {
    using U = std::remove_cv_t<T>;
    using Wire = std::conditional_t<
        std::is_floating_point_v<U>,
        std::conditional_t<sizeof(U) == 4, std::uint32_t, std::uint64_t>, U>;
    Wire x{};
    std::uint64_t w = 0;
    if constexpr (Load) {
      get(&w, width);
      x = static_cast<Wire>(w);
      std::memcpy(&v, &x, sizeof x);
    } else {
      std::memcpy(&x, &v, sizeof x);
      w = static_cast<std::uint64_t>(x);
      put(&w, width);
    }
  }
  void put(const void* src, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(src);
    buf_.insert(buf_.end(), b, b + n);
  }
  // On overrun (or a poisoned stream) `dst` keeps its zeroed contents.
  void get(void* dst, std::size_t n) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
      fail();
      return;
    }
    if (n != 0) std::memcpy(dst, p_, n);
    p_ += n;
  }

  std::vector<std::uint8_t> buf_;
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  bool ok_ = true;
};

using Writer = Archive<false>;
using Reader = Archive<true>;

}  // namespace

// All stateful codec logic: one io(A&, T&) per piece of state, for A =
// Writer or Reader. Codec is a member of Snapshot, so it shares every
// `friend class Snapshot` grant (Nic, Switch, Network, FlowTable,
// FlowIndex, FlowStats, ReceiverSlab, Shard, ShardedSimulator).
template <class A>
struct Snapshot::Codec {
  // The wire size of a default T: a lower bound for any T's record (only
  // length-prefixed vectors grow it), so counts can be capped against it.
  template <class T>
  static std::size_t wire_size() {
    static const std::size_t n = [] {
      Writer w;
      T x{};
      Codec<Writer>::io(w, x);
      return w.size();
    }();
    return n;
  }

  // --- generic shapes ---

  // A container as a count of `width` bytes, then each element through
  // `fn`; loading resizes first (the count is capped), so fn fills the
  // elements in place.
  template <class V, class Fn>
  static void io_seq(A& a, V& v, std::size_t width, std::size_t min_bytes,
                     Fn&& fn) {
    v.resize(a.count(v.size(), width, min_bytes));
    for (auto& x : v) fn(x);
  }

  // An ordered map as a u64 count, then (key, value) pairs in key order.
  template <class M, class Fn>
  static void io_map(A& a, M& m, std::size_t min_bytes, Fn&& fn) {
    const std::size_t n = a.count(m.size(), 8, min_bytes);
    if constexpr (A::kLoad) {
      for (std::size_t i = 0; i < n && a.ok(); ++i) {
        typename M::key_type k{};
        typename M::mapped_type v{};
        fn(k, v);
        m.emplace_hint(m.end(), k, std::move(v));
      }
    } else {
      for (auto& [k, v] : m) fn(k, v);
    }
  }

  // A count the live structure already fixes (ports, chunks, queues):
  // any other value is corrupt.
  static void io_fixed(A& a, std::size_t n, std::size_t width) {
    if (a.count(n, width, 1) != n) a.fail();
  }

  // A vector whose length the live structure fixes.
  template <class V>
  static void io_vec(A& a, V& v, std::size_t n) {
    a.vec(v);
    if (v.size() != n) a.fail();
  }

  // State behind an accessor pair: saved from `cur`, loaded into a fresh
  // vector handed to `set`.
  template <class V, class Set>
  static void io_via(A& a, const V& cur, Set&& set) {
    if constexpr (A::kLoad) {
      V v;
      a.vec(v);
      set(std::move(v));
    } else {
      a.vec(cur);
    }
  }

  // A Flow pointer as its uid; returns it relinked. Only packets may
  // carry none.
  static Flow* io_flow(A& a, Flow* f, bool nullable = false) {
    std::uint64_t uid = f != nullptr ? f->uid : kNoFlow;
    a.u64(uid);
    if constexpr (A::kLoad) {
      f = uid == kNoFlow ? nullptr : a.net->flow(uid);
      if (f == nullptr && !(nullable && uid == kNoFlow)) a.fail();
    }
    return f;
  }

  // A FlowEntry pointer as its (vfid, prio) key, found again in the
  // egress port's table on load.
  static void io_entry(A& a, FlowTable& t, int port, FlowEntry*& e) {
    std::uint32_t vfid = e != nullptr ? e->vfid : 0;
    std::int32_t prio = e != nullptr ? e->prio : 0;
    a.u32(vfid, prio);
    if constexpr (A::kLoad) {
      e = t.find(vfid, port, prio);
      if (e == nullptr) a.fail();
    }
  }

  // --- small structs ---

  static void io(A& a, Rng& g) {
    std::uint64_t s[4] = {};
    g.state(s);
    a.u64(s[0], s[1], s[2], s[3]);
    if constexpr (A::kLoad) g.set_state(s);
  }

  // A shared Bloom snapshot: a presence byte, then its words.
  static void io(A& a, std::shared_ptr<const BloomBits>& bits) {
    bool has = bits != nullptr;
    a.u8(has);
    if constexpr (A::kLoad) {
      BloomBits words;
      if (has) a.vec(words);
      bits = has ? std::make_shared<const BloomBits>(std::move(words))
                 : nullptr;
    } else if (has) {
      a.vec(*bits);
    }
  }

  static void io(A& a, FlowKey& k) {
    a.u32(k.src, k.dst, k.src_port, k.dst_port);
  }

  static void io(A& a, Packet& p) {
    p.flow = io_flow(a, p.flow, /*nullable=*/true);
    a.u32(p.seq, p.vfid, p.wire, p.hop);
    a.u8(p.is_ack, p.ce, p.single, p.nack, p.tracked);
    a.u32(p.cum);
    a.u64(p.prio);
    a.u32(p.util);
    a.u64(p.ts);
    a.u32(p.buf_in);
    for (std::uint16_t& hop : p.route) a.u32(hop);
    a.u64(p.ack_lat);
  }

  // A packet FIFO: a u32 count, then the packets head to tail.
  static void io(A& a, PacketFifo& q, PacketArena& arena) {
    const std::size_t n = a.count(q.size(), 4, wire_size<Packet>());
    if constexpr (A::kLoad) {
      for (std::size_t i = 0; i < n && a.ok(); ++i) {
        Packet p;
        io(a, p);
        q.push(arena, p);
      }
    } else {
      q.for_each([&a](Packet& p) { io(a, p); });
    }
  }

  static void io(A& a, AckInfo& k) {
    a.u64(k.uid);
    a.u32(k.cum, k.sack);
    a.u8(k.nack, k.ce);
    a.u32(k.util);
    a.u64(k.ts);
  }

  // --- header, fingerprint, engine, flows, stats ---

  static const char* io_header(A& a, Time& at) {
    std::uint64_t magic = kMagic;
    std::uint32_t version = kVersion;
    a.u64(magic);
    a.u32(version);
    a.u64(at);
    if (magic != kMagic) return "bad magic: not a BFC snapshot";
    if (version != kVersion) return "snapshot version mismatch";
    return a.ok() && at >= 0 ? nullptr
                             : "corrupt header: truncated or negative time";
  }

  // The configuration fingerprint. Loading re-encodes the live pair and
  // requires the same bytes: one comparison path, no per-field drift.
  static const char* io_fingerprint(A& a, const ShardedSimulator& sim,
                                    const Network& net) {
    const NetParams& p = net.params_;
    const bool flags[] = {p.bfc, p.dynamic_q, p.hpq, p.resume_limit, p.pfc,
                          p.sfq, p.per_flow_fq, p.inf_buffer, p.pfabric,
                          p.win_cap, p.acks_in_data};
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < std::size(flags); ++i) bits |= flags[i] << i;
    Writer w;
    w.u32(sim.n_nodes_, p.scheme, p.cc, p.retx, p.sched, bits, p.n_queues,
          p.n_vfids, p.bloom_bytes, p.bloom_hashes);
    w.u64(p.hrtt_scale, p.data_loss, p.ctrl_loss, p.fault_seed);
    w.u64(net.faults_ != nullptr ? net.faults_->transitions().size() : 0);
    for (const std::uint8_t b : w.take()) {
      std::uint8_t x = b;
      a.u8(x);
      if (x != b) a.fail();
    }
    return a.ok() ? nullptr
                  : "configuration fingerprint mismatch "
                    "(topology/scheme/overrides/faults differ)";
  }

  static void io_engine(A& a, ShardedSimulator& sim, Network& net) {
    const auto n = static_cast<std::size_t>(sim.n_nodes_);
    // Per-node event sequence numbers (environment entities are
    // harness-owned and restart at zero), then the setup-space counters:
    // streamed flow starts keep consuming these after a restore, so they
    // resume exactly where the checkpoint left them.
    for (std::size_t i = 0; i < n; ++i) a.u32(sim.seq_[i]);
    for (std::size_t i = 0; i < n; ++i) a.u32(sim.setup_seq_[i]);
    // Per-node executed-event attribution, which rebuilds shard totals.
    for (std::size_t i = 0; i < n; ++i) a.u64(sim.node_events_[i]);
    // Per-node RNG streams (fault draws + ECN marking).
    for (std::size_t i = 0; i < n; ++i) {
      io(a, net.fault_rng_[i]);
      io(a, net.mark_rng_[i]);
    }
  }

  static void io(A& a, Flow& f) {
    a.u64(f.uid);
    io(a, f.key);
    a.u64(f.bytes);
    a.u32(f.total_pkts);
    a.u8(f.incast);
    // v2: packed route ids instead of two serialized HopVecs.
    a.u32(f.vfid, f.path_id, f.rpath_id, f.rvfid);
    a.u64(f.base_rtt, f.ack_lat, f.rto, f.line_bps, f.rate_bps);
    a.u32(f.win_pkts, f.next_seq, f.cum, f.max_sent, f.sacked_beyond_cum);
    io_via(a, f.acked.words(),
           [&f](auto w) { f.acked.set_words(std::move(w)); });
    io_via(a, f.retx_q.pending(),
           [&f](auto q) { f.retx_q.assign_pending(std::move(q)); });
    a.u64(f.next_send, f.last_progress, f.last_rewind, f.last_fast_retx);
    a.u8(f.sender_done);
    a.u32(f.rto_gen, f.route_epoch);
    a.u8(f.backoff_exp);
    a.u64(f.parked_since);
    a.u8(f.send_state, f.index_slots);
    a.u64(f.cc_target, f.cc_alpha, f.cc_last_cut, f.cc_last_inc,
          f.tm_prev_rtt, f.tm_grad, f.hpcc_last_dec);
    a.u32(f.rroute_epoch, f.rcv_slot);
  }

  // Flows, uid-sorted (the map iteration order is hash-layout-dependent).
  // A loaded flow must join two hosts; its source picks the owning shard.
  static void io_flows(A& a, ShardedSimulator& sim, Network& net) {
    std::vector<Flow*> flows;
    for (const auto& slice : net.flows_) {
      for (const auto& [uid, f] : slice) flows.push_back(f.get());
    }
    std::sort(flows.begin(), flows.end(),
              [](const Flow* x, const Flow* y) { return x->uid < y->uid; });
    const auto host = [&net](std::uint32_t node) {
      return node < net.devices_.size() &&
             net.topo().is_host(static_cast<int>(node));
    };
    const std::size_t n = a.count(flows.size(), 8, wire_size<Flow>());
    for (std::size_t i = 0; i < n && a.ok(); ++i) {
      auto owned = A::kLoad ? std::make_unique<Flow>() : nullptr;
      Flow& f = A::kLoad ? *owned : *flows[i];
      io(a, f);
      if constexpr (A::kLoad) {
        if (!host(f.key.src) || !host(f.key.dst)) a.fail();
        const int src = a.ok() ? static_cast<int>(f.key.src) : 0;
        auto& slice = net.flows_[static_cast<std::size_t>(sim.shard_of(src))];
        slice[f.uid] = std::move(owned);
      }
    }
  }

  static void io(A& a, FlowRecord& r) {
    io(a, r.key);
    a.u64(r.bytes, r.start, r.end);
    a.u8(r.incast);
  }

  // FlowStats, already folded; std::map iterates key-sorted.
  static void io(A& a, FlowStats& st) {
    io_map(a, st.records_, 8 + wire_size<FlowRecord>(),
           [&a](auto& uid, FlowRecord& r) {
             a.u64(uid);
             io(a, r);
           });
    io_seq(a, st.pending_, 8, 16, [&a](auto& p) { a.u64(p.first, p.second); });
    a.u64(st.completed_);
  }

  // --- devices ---

  // One sender-index container as a uid list. The index is source-side
  // state, so every listed flow must be sourced at this NIC.
  static void io_senders(A& a, int node, std::vector<Flow*>& flows) {
    io_seq(a, flows, 8, 8, [&a, node](Flow*& f) {
      f = io_flow(a, f);
      if (f != nullptr && static_cast<int>(f->key.src) != node) a.fail();
    });
  }

  static void io(A& a, Nic& nic) {
    NicStats& s = nic.stats_;
    a.u64(s.rto_fires, s.data_retx, s.pkts_sent, s.delivered_payload,
          s.acks_data_path, s.acks_deferred, s.reroutes, s.unreachable_parks,
          s.blackholed);
    a.u8(nic.busy_, nic.pfc_paused_, nic.link_down_);
    a.u64(nic.wake_at_);
    io(a, nic.pause_bits_);
    io_seq(a, nic.ack_q_, 8, wire_size<Packet>(),
           [&a](Packet& p) { io(a, p); });
    // Receiver slab: slots (live and free) plus the free list, so slot
    // handles (Flow::rcv_slot) stay valid verbatim.
    ReceiverSlab& rs = nic.rcv_slab_;
    io_seq(a, rs.slab_, 8, 12, [&a](ReceiverState& r) {
      a.u32(r.rcv_next);
      io_via(a, r.rcvd.words(),
             [&r](auto w) { r.rcvd.set_words(std::move(w)); });
    });
    a.vec(rs.free_);
    a.u64(rs.hw_);
    // Sender flow index, in container order (the eligible FIFO order IS
    // the service order). The kIn* membership bits ride each Flow's own
    // image, so loading only rethreads the FIFO links — a flow may sit in
    // it once — and materializes the slab if anything was queued.
    FlowIndex& ix = nic.index_;
    std::vector<Flow*> flows;
    for (Flow* f = ix.elig_head_; f != nullptr; f = f->elig_next) {
      flows.push_back(f);
    }
    io_senders(a, nic.id(), flows);
    for (std::size_t i = 0; A::kLoad && i < flows.size() && a.ok(); ++i) {
      Flow* f = flows[i];
      if (f->elig_next != nullptr || f == ix.elig_tail_) a.fail();
      if (a.ok()) ix.fifo_push(f);
    }
    for (auto heap : {&FlowIndex::SenderSlab::pacing,
                      &FlowIndex::SenderSlab::paused}) {
      flows.clear();
      if (ix.slab_ != nullptr) flows = (*ix.slab_).*heap;
      io_senders(a, nic.id(), flows);
      if (A::kLoad && !flows.empty()) ix.slab().*heap = flows;
    }
    io(a, ix.bits_);
    a.u64(ix.next_gate_, ix.transitions_);
  }

  // Live entries, key-sorted so the image is independent of insertion
  // history and chunk placement. Way/overflow placement is NOT encoded:
  // find() is keyed, so placement is behavior-invariant, and restore
  // re-acquires in sorted order. Then the materialized-chunk set and
  // overflow init: restore force-materializes the chunk directories (not
  // their buckets) so the footprint telemetry (table_chunks) round-trips
  // exactly.
  static void io(A& a, FlowTable& t, int n_ports) {
    std::vector<FlowEntry*> live;
    for (const auto& chunk : t.chunks_) {
      for (std::size_t b = 0; chunk != nullptr && b < std::size(chunk->ways);
           ++b) {
        FlowEntry* ways = chunk->ways[b];
        for (int w = 0; ways != nullptr && w < t.ways_; ++w) {
          if (ways[w].in_use) live.push_back(&ways[w]);
        }
      }
    }
    for (FlowEntry& e : t.overflow_) {
      if (e.in_use) live.push_back(&e);
    }
    std::sort(live.begin(), live.end(),
              [](const FlowEntry* x, const FlowEntry* y) {
                return std::tie(x->egress, x->vfid, x->prio) <
                       std::tie(y->egress, y->vfid, y->prio);
              });
    // 27 bytes: vfid, egress, prio, queue, pkts, in_port, three flags.
    const std::size_t n = a.count(live.size(), 8, 27);
    for (std::size_t i = 0; i < n && a.ok(); ++i) {
      FlowEntry scratch;
      FlowEntry* e = A::kLoad ? &scratch : live[i];
      a.u32(e->vfid, e->egress, e->prio);
      if constexpr (A::kLoad) {
        bool created = false;
        const bool port_ok = e->egress >= 0 && e->egress < n_ports;
        FlowEntry* got =
            port_ok ? t.acquire(e->vfid, e->egress, e->prio, created) : nullptr;
        if (got == nullptr) a.fail();
        e = got != nullptr ? got : e;
      }
      a.u32(e->queue, e->pkts, e->in_port);
      a.u8(e->paused, e->resume_pending, e->holds_resume_slot);
      if (e->in_port < -1 || e->in_port >= n_ports) a.fail();
    }
    io_fixed(a, t.chunks_.size(), 8);
    for (std::size_t ci = 0; ci < t.chunks_.size() && a.ok(); ++ci) {
      bool chunk = t.chunks_[ci] != nullptr;
      a.u8(chunk);
      if (A::kLoad && chunk) t.chunk_for(ci * FlowTable::kChunkBuckets);
    }
    bool overflow = t.overflow_init_;
    a.u8(overflow);
    if (A::kLoad && overflow) t.ensure_overflow();
    a.u64(t.rejects_);
  }

  static void io(A& a, Switch::Egress& eg, Switch& sw) {
    PacketArena& arena = sw.shard().arena();
    a.u64(eg.last_active);
    io(a, eg.hpq, arena);
    // A data queue's records take at least 32 bytes: FIFO count (4),
    // dq_flows (4), deficit (8), entry-list count (4), resume count +
    // outstanding + paused (12).
    const std::size_t nq = a.count(eg.dq.size(), 4, 32);
    if constexpr (A::kLoad) {
      eg.dq.resize(nq);
      // Head-pause memos are caches keyed by (pause_gen, head vfid);
      // zeroed memos simply miss and recompute against pause_bits.
      eg.head_gen.assign(nq, 0);
      eg.head_vfid.assign(nq, 0);
      eg.head_paused.assign(nq, 0);
      eg.q_entries.assign(nq, nullptr);
      eg.resume.resize(nq);
    }
    for (PacketFifo& q : eg.dq) io(a, q, arena);
    io_vec(a, eg.dq_occ, (nq + 63) / 64);
    a.u64(eg.pause_gen);
    io_vec(a, eg.dq_flows, nq);
    io_vec(a, eg.deficit, nq);
    const auto entry = [&a, &sw, &eg](FlowEntry*& e) {
      io_entry(a, sw.table_, eg.port, e);
    };
    // Per-queue entry lists, head to tail. Loading relinks them tail
    // first; an entry listed twice, or under a queue it is not assigned
    // to, is corrupt.
    std::vector<FlowEntry*> list;
    io_fixed(a, nq, 4);
    for (std::size_t q = 0; q < nq && a.ok(); ++q) {
      list.clear();
      for (FlowEntry* e = eg.q_entries[q]; e != nullptr; e = e->q_next) {
        list.push_back(e);
      }
      io_seq(a, list, 4, 8, entry);
      for (std::size_t i = list.size(); A::kLoad && a.ok() && i > 0; --i) {
        FlowEntry* e = list[i - 1];
        if (e->q_prev != nullptr || e->q_next != nullptr ||
            e == eg.q_entries[q] || e->queue != static_cast<int>(q)) {
          a.fail();
        }
        if (a.ok()) sw.link_queue_entry(eg, e);
      }
    }
    // Per-queue resume limiters.
    io_fixed(a, nq, 4);
    for (std::size_t q = 0; q < nq && a.ok(); ++q) {
      Switch::QueueResume& qr = eg.resume[q];
      list.assign(qr.pending.begin(), qr.pending.end());
      io_seq(a, list, 4, 8, entry);
      for (std::size_t i = 0; A::kLoad && i < list.size(); ++i) {
        qr.pending.push_back(list[i]);
      }
      a.u32(qr.outstanding, qr.paused);
    }
    io_map(a, eg.srpt, 8 + wire_size<Packet>(), [&a](auto& prio, Packet& p) {
      a.u64(prio);
      io(a, p);
    });
    a.u64(eg.srpt_bytes, eg.port_bytes);
    a.u32(eg.rr);
    a.u8(eg.busy, eg.peer_pfc_paused);
    a.u64(eg.pfc_since, eg.pfc_ns);
    io(a, eg.pause_bits);
    // Ideal-FQ dynamic queue map, key-sorted for layout independence.
    std::vector<std::pair<std::uint64_t, int>> fq(eg.flow_q.begin(),
                                                  eg.flow_q.end());
    std::sort(fq.begin(), fq.end());
    io_seq(a, fq, 8, 12, [&a](auto& kv) {
      a.u64(kv.first);
      a.u32(kv.second);
    });
    if constexpr (A::kLoad) eg.flow_q.insert(fq.begin(), fq.end());
    a.vec(eg.free_q);
  }

  static void io(A& a, Switch::Ingress& in) {
    a.u64(in.last_active);
    // The Bloom exists iff the (fingerprinted) scheme is BFC, at the
    // configured size.
    bool has_bloom = in.bloom != nullptr;
    a.u8(has_bloom);
    if (has_bloom != (in.bloom != nullptr)) a.fail();
    if (a.ok() && has_bloom) {
      CountingBloom& bloom = *in.bloom;
      const int n_bits = bloom.n_bits();
      io_via(a, bloom.counters(),
             [&bloom](auto c) { bloom.set_counters(std::move(c)); });
      if (bloom.n_bits() != n_bits) a.fail();
    }
    a.u64(in.resident_bytes);
    a.u8(in.pfc_sent, in.snapshot_dirty);
    a.u32(in.paused_flows);
    a.u64(in.pause_t0);
  }

  // A port-indexed slab directory: the port count (fixed by the
  // topology), then per port a presence byte and the live slab's state.
  template <class Slab, class Fn>
  static void io_slabs(A& a, std::vector<std::unique_ptr<Slab>>& slots,
                       Fn&& fn) {
    io_fixed(a, slots.size(), 4);
    for (std::size_t port = 0; port < slots.size() && a.ok(); ++port) {
      bool live = slots[port] != nullptr;
      a.u8(live);
      if (live) fn(static_cast<int>(port));
    }
  }

  static void io(A& a, Switch& sw) {
    a.u64(sw.buffer_used_, sw.totals_.pfc_pauses_sent,
          sw.totals_.pfc_resumes_sent, sw.totals_.drops, sw.totals_.blackholed,
          sw.bfc_totals_.pauses, sw.bfc_totals_.resumes,
          sw.bfc_totals_.overflow_packets, sw.assignments_, sw.collisions_);
    const std::size_t n_ports = sw.ports_->size();
    io_vec(a, sw.saved_rr_, n_ports);
    for (std::int64_t& ns : sw.reclaimed_pfc_ns_) a.u64(ns);
    a.vec(sw.port_down_);
    io_vec(a, sw.port_down_t0_, sw.port_down_.size());
    if (!sw.port_down_.empty() && sw.port_down_.size() != n_ports) a.fail();
    if constexpr (A::kLoad) {
      // Pin the armed flags so ensure_egress/ensure_ingress materialize
      // without posting events or consuming sequence numbers — the
      // pending ev_reclaim/ev_refresh events (if any were armed) arrive
      // with the saved event list. The saved flag values land at the end.
      sw.reclaim_armed_ = true;
      sw.refresh_armed_ = true;
    }
    io(a, sw.table_, static_cast<int>(n_ports));
    io_slabs(a, sw.egress_,
             [&a, &sw](int port) { io(a, sw.ensure_egress(port), sw); });
    io_slabs(a, sw.ingress_,
             [&a, &sw](int port) { io(a, sw.ensure_ingress(port)); });
    a.u8(sw.refresh_armed_, sw.reclaim_armed_);
    a.u64(sw.eg_live_hw_, sw.in_live_hw_, sw.reclaim_sweeps_,
          sw.reclaimed_ports_);
  }

  // --- events ---

  // One row per pooled event handler; the row index is the handler's
  // stable wire id. Every event in a running simulation dispatches to one
  // of these (closures — fn == nullptr — are the harness's and are not
  // serialized). Each row pairs the handler with its payload's io, which
  // also gets the event's shard (loading allocates arena payloads there).
  struct Handler {
    EventFn fn;
    void (*payload)(A&, Event&, Shard&);
  };

  static const std::vector<Handler>& handlers() {
    const auto none = [](A&, Event&, Shard&) {};
    const auto flow = [](A& a, Event& e, Shard&) {
      e.u.misc.p1 = io_flow(a, static_cast<Flow*>(e.u.misc.p1));
    };
    const auto ports = [](A& a, Event& e, Shard&) {
      a.u32(e.u.misc.i1, e.u.misc.i2);
    };
    static const std::vector<Handler> rows = {
        {&Nic::ev_flow_start, flow},
        {&Nic::ev_tx_done, none},
        {&Nic::ev_wake, [](A& a, Event& e, Shard&) { a.u64(e.u.timer.i0); }},
        {&Nic::ev_rto,
         [](A& a, Event& e, Shard&) {
           e.u.misc.p1 = io_flow(a, static_cast<Flow*>(e.u.misc.p1));
           a.u32(e.u.misc.i1);
         }},
        {&Nic::ev_ack,
         [](A& a, Event& e, Shard& sh) {
           if constexpr (A::kLoad) e.put_ack(sh.pack(AckInfo{}));
           io(a, e.u.ack.node->ack);
         }},
        {&Switch::ev_tx_done,
         [](A& a, Event& e, Shard&) { a.u32(e.u.misc.i1); }},
        {&Switch::ev_refresh, none},
        {&Switch::ev_reclaim, none},
        {&Network::ev_deliver,
         [](A& a, Event& e, Shard& sh) {
           if constexpr (A::kLoad) e.put_packet(sh.pack(Packet{}), 0);
           io(a, e.u.pkt.node->pkt);
           a.u32(e.u.pkt.in_port);
         }},
        {&Network::ev_snapshot,
         [](A& a, Event& e, Shard& sh) {
           if constexpr (A::kLoad) e.put_cold(sh.cold_slot());
           io(a, e.u.cold.node->bits);
           a.u32(e.u.cold.port);
         }},
        {&Network::ev_pfc, ports},
        {&Network::ev_link_state, ports},
    };
    return rows;
  }

  // Pending events, merged across shards in (at, key) order. A loaded
  // event needs a registered handler, a real node and a time no earlier
  // than the checkpoint's.
  static void io_events(A& a, ShardedSimulator& sim, Time at) {
    const std::vector<Handler>& rows = handlers();
    std::vector<Event*> evs;
    for (const auto& sh : sim.shards_) {
      // The Writer only reads these.
      sh->wheel_.for_each([&evs](const Event* e) {
        if (e->fn != nullptr) evs.push_back(const_cast<Event*>(e));
      });
    }
    std::sort(evs.begin(), evs.end(), [](const Event* x, const Event* y) {
      return std::tie(x->at, x->key) < std::tie(y->at, y->key);
    });
    // 24 bytes: at, key, handler id, node.
    const std::size_t n = a.count(evs.size(), 8, 24);
    for (std::size_t i = 0; i < n && a.ok(); ++i) {
      Event scratch;
      Event* e = A::kLoad ? &scratch : evs[i];
      std::uint32_t id = 0;
      while (id < rows.size() && rows[id].fn != e->fn) ++id;
      std::int32_t node = A::kLoad ? 0 : static_cast<Device*>(e->obj)->id();
      a.u64(e->at, e->key);
      a.u32(id, node);
      if (id >= rows.size() || node < 0 || node >= sim.n_nodes_ ||
          e->at < at) {
        a.fail();
        break;
      }
      Shard& sh = sim.shard_of_node(node);
      if constexpr (A::kLoad) {
        e = sh.pool_.alloc();
        *e = scratch;
        e->fn = rows[id].fn;
        e->obj = a.net->device(node);
      }
      rows[id].payload(a, *e, sh);
      if (A::kLoad && a.ok()) sh.wheel_.push(e);
      if (A::kLoad && !a.ok()) sh.recycle(e);
    }
  }

  // Everything after the header and fingerprint, in image order. Returns
  // the failing section's diagnostic, or null.
  static const char* io_state(A& a, ShardedSimulator& sim, Network& net,
                              Time at) {
    io_engine(a, sim, net);
    if (!a.ok()) return "truncated image (engine section)";
    io_flows(a, sim, net);
    if (!a.ok()) return "truncated image (flow section)";
    io(a, net.stats_);
    if (!a.ok()) return "truncated image (stats section)";
    for (int node = 0; node < sim.n_nodes_ && a.ok(); ++node) {
      Device& d = *net.device(node);
      if (net.topo().is_host(node)) {
        io(a, static_cast<Nic&>(d));
      } else {
        io(a, static_cast<Switch&>(d));
      }
    }
    if (!a.ok()) return "corrupt or truncated image (device section)";
    io_events(a, sim, at);
    if (!a.ok()) return "corrupt or truncated image (event section)";
    std::uint64_t trailer = kTrailer;
    a.u64(trailer);
    return trailer == kTrailer ? nullptr : "missing trailer";
  }
};

std::vector<std::uint8_t> Snapshot::save(ShardedSimulator& sim, Network& net,
                                         Time at) {
  // Pull every in-flight cross-shard event into its destination wheel and
  // fold the per-shard completion logs — after this, the wheels plus the
  // Network ARE the complete state.
  sim.drain_transport_for_snapshot();
  net.flow_stats();

  Writer w;
  Codec<Writer>::io_header(w, at);
  Codec<Writer>::io_fingerprint(w, sim, net);
  if (Codec<Writer>::io_state(w, sim, net, at) != nullptr) return {};
  return w.take();
}

bool Snapshot::restore(ShardedSimulator& sim, Network& net,
                       const std::vector<std::uint8_t>& image,
                       std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  bool any_flows = false;
  for (const auto& slice : net.flows_) any_flows |= !slice.empty();
  if (sim.events_processed() != 0 || any_flows) {
    return fail("restore target is not a freshly-constructed pair");
  }
  using Load = Codec<Reader>;
  Reader r(image, &net);
  Time at = 0;
  if (const char* why = Load::io_header(r, at)) return fail(why);
  if (const char* why = Load::io_fingerprint(r, sim, net)) return fail(why);
  if (const char* why = Load::io_state(r, sim, net, at)) return fail(why);

  // Clocks and per-shard totals: every shard resumes at the checkpoint
  // time; events_run is the sum of the per-node attribution over owned
  // nodes (the harness credits its closure ticks separately, see
  // ShardedSimulator::credit_closure_events).
  for (int s = 0; s < sim.n_shards(); ++s) {
    Shard& sh = sim.shard(s);
    sh.now_ = at;
    sh.events_run_ = 0;
    sh.events_stolen_ = 0;
  }
  for (int node = 0; node < sim.n_nodes_; ++node) {
    Shard& sh = sim.shard_of_node(node);
    sh.events_run_ += sim.node_events_[static_cast<std::size_t>(node)];
  }
  return true;
}

Time Snapshot::saved_time(const std::vector<std::uint8_t>& image) {
  Reader r(image, nullptr);
  Time at = -1;
  return Codec<Reader>::io_header(r, at) == nullptr ? at : -1;
}

}  // namespace bfc
