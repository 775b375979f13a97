// The sharded simulation engine: N shard-local event loops over one
// partitioned topology, synchronized conservatively by per-link channel
// clocks, null-message style (docs/ARCHITECTURE.md "shard synchronization
// protocol"). Every shard publishes a monotone clock — a lower bound on any
// event it may still send — and advances past min over senders of (clock +
// channel lookahead), where the per-pair lookahead is the shortest-path
// closure of the minimum cross-shard link delays. A shard therefore waits
// only on shards that can actually reach it in time, with no global barrier
// on the critical path. Cross-shard events travel in per-pair SPSC inbox
// rings (engine/inbox_ring.hpp). min(S, usable cores) executor threads
// round-robin the shards. A hot shard can shed same-window per-locality-
// group batches via work stealing with deterministic merge-back, claimed
// by hungry executors and up to S helper executors: threads that own no
// shard, one per usable core beyond S (nothing checks those are idle).
//
// Every node of the topology is owned by exactly one Shard, and all of a
// node's events execute on (or on behalf of) its owning shard. Shards only
// interact through timestamped events whose delay is at least one link
// propagation — the source of all lookahead.
//
// Determinism: events are ordered by (timestamp, posting-node, per-node
// sequence). That key depends only on the logical computation, never on
// thread interleaving, and no synchronization protocol ever lets an event
// execute before everything that could precede it in that order has
// arrived — so a run's per-device event order, and therefore every
// reported stat, is bit-identical for every shard count under the same
// seed. tests/test_channel_clocks.cpp checks every shard count against the
// 1-shard run (which never touches the protocol);
// tests/test_determinism_fuzz.cpp sweeps randomized cases.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/topology.hpp"
#include "engine/event.hpp"
#include "engine/inbox_ring.hpp"
#include "engine/packet_arena.hpp"
#include "engine/timing_wheel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace bfc {

class Shard;
class ShardedSimulator;

// Cross-shard synchronization protocol. Channel clocks are the only one;
// the one-value type stays because callers (ExperimentConfig::sync, the
// perfbench harness) still pass it to the constructor.
enum class SyncMode { kChannel };

// Per-entity sequence numbers live in two disjoint spaces: *setup*
// sequences (fault installation, flow prepare/stream starts) count from 0,
// *runtime* sequences (everything a handler or closure posts while the
// clock runs) carry this base bit. Splitting the spaces is what lets a
// streamed flow start — drawn on demand mid-run — mint the exact key the
// pre-seeded prepare_flow path would have minted, without the two racing
// for one counter. Setup events have always been created before any
// runtime event of the same entity, so tagging runtime keys above every
// setup key preserves the historical (at, key) order bit for bit.
constexpr std::uint32_t kRunSeqBase = 0x80000000u;

// One locality group's slice of a split window: the unit of work stealing.
// The owner pops every event below the (capped) window end, pushes each
// into its locality group's batch wheel, and offers the batches; whoever
// claims one — a blocked neighbor, a helper executor or the owner itself —
// executes it against these private pools and buffers, so the only shared
// state two concurrently-running batches of one shard touch is disjoint
// per-entity state (sequence counters, per-node RNGs, per-device queues).
// Posts that leave the (group, window) box are deferred and merged back by
// the owner, in group order, after every batch of the window has completed.
struct StealBatch {
  Shard* owner = nullptr;
  int group = -1;
  Time w0 = 0;       // window start (inclusive)
  Time w1 = 0;       // window end (exclusive): no batch event runs past it
  Time now = 0;      // virtual clock while executing
  BasicTimingWheel<6> wheel;  // (at, key) order; 64 slots: timing_wheel.hpp
  // Private allocators: recycled events and payload nodes land here and
  // migrate back through normal arena traffic (same contract as
  // cross-shard event recycling).
  EventPool pool;
  PacketArena arena;
  AckArena acks;
  ColdArena cold;
  // Posts leaving the batch: (event, destination node) with dst < 0 for
  // the owner's own wheel. Merged by the owner after the window.
  std::vector<std::pair<Event*, int>> deferred;
  std::vector<std::pair<std::uint64_t, Time>> completions;
  std::uint64_t events_run = 0;
  int claimed_by = -1;  // executor: shard index, or S+k for helper k
  // Batch-private telemetry sinks (null when the owner's telemetry is
  // off): the executor writes here, the owner folds them back in group
  // order after the window — same handoff as `deferred`/`completions`,
  // so telemetry recording never adds cross-thread traffic.
  obs::ShardObs* obs = nullptr;                 // -> obs_store, or null
  obs::ShardObs obs_store;
  std::vector<obs::FlightRec>* flight = nullptr;  // -> flight_store
  std::vector<obs::FlightRec> flight_store;
  std::atomic<int> state{0};  // kStealOffered/Claimed/Done (sharded_sim.cpp)
};

namespace detail {
// Non-null exactly while this thread executes a stolen batch; Shard's
// allocation/post/clock entry points consult it to redirect into the
// batch's private state. Defined inline with a constant initializer so
// every access is a plain TLS load (an `extern` declaration makes each
// one call a TLS init function first).
inline thread_local StealBatch* tl_batch = nullptr;
}  // namespace detail

// One shard's event loop: a hierarchical timing wheel of cache-line
// pooled events plus the arenas that back its switches' queues and its
// events' payloads. All methods are only safe from the executor thread
// driving the shard (or from any thread while the engine is idle, e.g. when
// pre-seeding events before run_until()) — except through a claimed
// StealBatch, which redirects them to batch-private state.
class Shard {
 public:
  Time now() const {
    const StealBatch* b = detail::tl_batch;
    return b != nullptr && b->owner == this ? b->now : now_;
  }
  int index() const { return idx_; }
  PacketArena& arena() {
    StealBatch* b = detail::tl_batch;
    return b != nullptr && b->owner == this ? b->arena : arena_;
  }
  AckArena& acks() {
    StealBatch* b = detail::tl_batch;
    return b != nullptr && b->owner == this ? b->acks : acks_;
  }
  ColdArena& cold() {
    StealBatch* b = detail::tl_batch;
    return b != nullptr && b->owner == this ? b->cold : cold_;
  }
  std::uint64_t events_run() const { return events_run_; }
  // Events of this shard that a non-owning claimant (a neighbor shard's
  // step or a helper) ran via work stealing (a subset of events_run()).
  std::uint64_t events_stolen() const { return events_stolen_; }

  // Telemetry sink for code executing on behalf of this shard, or null
  // when telemetry is off (callers must check — the null test IS the
  // off-switch). A stolen batch redirects to its private store, merged
  // back by the owner in group order.
  obs::ShardObs* obs() {
    StealBatch* b = detail::tl_batch;
    return b != nullptr && b->owner == this ? b->obs : obs_;
  }

  // Fresh pooled event stamped with `src_entity`'s next sequence number,
  // clamped to the shard clock (the past is not addressable). The posting
  // device passes its own node id; environment code (samplers, traffic
  // replay) posts through post_closure() which uses the shard's own
  // reserved entity.
  Event* make(int src_entity, Time at);

  // Fresh pooled event keyed in `src_entity`'s *setup* sequence space
  // (see kRunSeqBase): pre-run installation and streamed flow starts,
  // which must mint identical keys whether the arrival was materialized
  // up front or drawn on demand mid-run. Never legal from inside a
  // stolen batch (setup counters are engine-global, not batch-private).
  Event* make_setup(int src_entity, Time at);

  // Arena-backed payload handles for events posted from this shard. The
  // node travels with the event and is released into the *executing*
  // shard's arena by recycle() — same migration contract as event nodes.
  PacketNode* pack(const Packet& p) {
    PacketNode* n = arena().alloc();
    n->pkt = p;
    return n;
  }
  AckNode* pack(const AckInfo& a) {
    AckNode* n = acks().alloc();
    n->ack = a;
    return n;
  }
  ColdNode* cold_slot() { return cold().alloc(); }

  // Schedules `e` on the shard owning `dst_node`. A cross-shard post must
  // land at least one channel lookahead ahead of this shard's clock; a
  // violation would silently break determinism, so it aborts instead.
  void post(Event* e, int dst_node);

  // Schedules `e` on this shard (the common self/same-shard case).
  void post_local(Event* e);

  // Cold path: closure event on this shard. Environment-only; never legal
  // from inside a stolen batch (closures are pinned to their shard).
  void post_closure(Time at, std::function<void()> fn);

  // Returns `e`'s arena payload (packet/ack/cold slot) to the executing
  // context's arenas, then the node to its pool. The only way events are
  // retired — see release_event_payload() for why.
  void recycle(Event* e);

  // Per-shard flow-completion log (folded by Network::flow_stats()); a
  // stolen batch buffers its entries for the owner's merge.
  void log_completion(std::uint64_t uid, Time t);
  std::vector<std::pair<std::uint64_t, Time>>& completions() {
    return completions_;
  }

 private:
  friend class ShardedSimulator;
  friend class Snapshot;  // checkpoint/restore of now_/wheel_/events_run_

  // Runs local events with timestamp < wend (and <= stop).
  void run_window(Time wend, Time stop);

  // Epoch gauge/histogram sampling (obs/metrics.hpp): takes the sample
  // due at obs_epoch_ and advances the epoch past `t`. Only called from
  // run_window when t >= obs_epoch_; the sentinel below keeps that
  // comparison false forever when metrics are off.
  void obs_epoch_sample(Time t);

  ShardedSimulator* engine_ = nullptr;
  int idx_ = 0;
  Time now_ = 0;
  TimingWheel wheel_;
  EventPool pool_;
  PacketArena arena_;
  AckArena acks_;
  ColdArena cold_;
  std::uint64_t events_run_ = 0;
  std::uint64_t events_stolen_ = 0;
  std::vector<std::pair<std::uint64_t, Time>> completions_;
  // Work-stealing state: the widest window that keeps a locality group
  // independent of its neighbors, the group -> batch slot map for the
  // window being split, and the reusable batches.
  Time steal_cap_ = 0;
  std::vector<int> group_slot_;  // global group id -> active batch, or -1
  std::vector<std::unique_ptr<StealBatch>> batches_;
  std::vector<StealBatch*> active_;  // this window's batches, group order
  std::vector<Event*> scratch_;      // window pop buffer
  // Telemetry (owned by engine_->telemetry_; null when off). obs_epoch_
  // is the next sim-time sampling point — the max() sentinel makes the
  // per-event check in run_window never fire when metrics are off.
  obs::ShardObs* obs_ = nullptr;
  obs::FlightRing* flight_ = nullptr;
  Time obs_epoch_ = std::numeric_limits<Time>::max();
  Time obs_period_ = 0;
};

class ShardedSimulator {
 public:
  // Partitions `topo` across `n_shards` shards using the topology's
  // pod/ToR grouping (greedy heaviest-group-first by host count). The
  // per-pair channel lookahead matrix is the all-pairs shortest-path
  // closure of the minimum link delay between each shard pair; lookahead()
  // is its off-diagonal minimum. `sync` has one value (see SyncMode).
  ShardedSimulator(const TopoGraph& topo, int n_shards,
                   SyncMode sync = SyncMode::kChannel);

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int n_shards() const { return static_cast<int>(shards_.size()); }
  int shard_of(int node) const {
    return shard_of_[static_cast<std::size_t>(node)];
  }
  Shard& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  Shard& shard_of_node(int node) { return shard(shard_of(node)); }
  Time lookahead() const { return lookahead_; }
  // Channel lookahead from shard `src` to shard `dst`: no event posted by
  // src can land on dst sooner than src's clock plus this.
  Time channel_lookahead(int src, int dst) const {
    return chan_delay_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(n_shards()) +
                       static_cast<std::size_t>(dst)];
  }
  const char* sync_name() const { return "channel"; }
  bool steal_enabled() const { return steal_on_; }
  // Threads a multi-shard run starts: min(S, usable_cores()) executors
  // driving the shards, plus usable_cores() - S helpers clamped to [0, S]
  // with stealing on (else 0).
  int executors() const { return executors_; }
  int helpers() const { return helpers_; }
  // CPUs this process may run on: its affinity mask on Linux, which a
  // taskset- or cpuset-limited container keeps below the online count
  // (hardware_concurrency() elsewhere).
  static int usable_cores();

  // Legacy single-shard convenience API (TrafficGen, samplers, direct
  // benches). Aborts on a multi-shard engine: closures there must target a
  // specific shard via Shard::post_closure, before the run starts.
  Time now() const { return shards_[0]->now(); }
  void at(Time t, std::function<void()> fn);
  void after(Time delay, std::function<void()> fn);

  // Runs every event with timestamp <= stop, then advances every shard's
  // clock to `stop`. Repeated calls continue where the last one stopped.
  void run_until(Time stop);

  std::uint64_t events_processed() const;
  // Events executed by a non-owning executor via work stealing.
  std::uint64_t events_stolen() const;
  // Cross-shard events that overflowed a full inbox ring into the
  // producer-side FIFO (they still arrive, in order; this counts how
  // often the ring capacity was the limit).
  std::uint64_t inbox_overflows() const;

  // Engine telemetry root (obs/metrics.hpp), or null when every knob
  // (BFC_METRICS/BFC_TRACE/BFC_FLIGHT) is off. The harness reads the
  // merged registry and flight snapshots from here after a run.
  obs::Telemetry* telemetry() { return telemetry_.get(); }

  // Checkpoint support (core/snapshot.hpp). Handler events executed so
  // far, per target node — a pure function of the simulation, so a
  // restore at any shard count can rebuild each shard's events_run() as
  // the sum over its owned nodes. Closure (environment) events are not
  // node-attributable; the harness re-credits them per restored shard via
  // credit_closure_events after re-seeding its samplers, which keeps the
  // reported event totals bit-identical to an unbroken run.
  const std::vector<std::uint64_t>& node_event_counts() const {
    return node_events_;
  }
  void credit_closure_events(int shard, std::uint64_t n) {
    shards_[static_cast<std::size_t>(shard)]->events_run_ += n;
  }

 private:
  friend class Shard;
  friend class Snapshot;  // checkpoint/restore of seq_/wheels/transport

  // Per-shard published channel clock, one cache line each: the only
  // cross-thread state on the hot path.
  struct alignas(64) PubClock {
    std::atomic<Time> t{0};
  };
  // Per-executor stall-check slot (see run_executor): the progress
  // generation under which the executor last finished a round with no
  // progress, kNotIdle, or kExited once it returned.
  struct alignas(64) IdleGen {
    static constexpr std::uint64_t kNotIdle = ~std::uint64_t{0};
    static constexpr std::uint64_t kExited = kNotIdle - 1;
    std::atomic<std::uint64_t> gen{kNotIdle};
  };
  enum class Step { kFinished, kRan, kBlocked };

  // --- channel clocks ---
  // Executor k: round-robins channel_step over shards k, k+T, k+2T, ...
  // (T = executors_) until all of them finish.
  void run_executor(int k, Time stop);
  // Stall check: every executor of this run is idle under `gen` (or has
  // returned) and the progress generation is still `gen`.
  bool all_idle_at(std::uint64_t gen) const;
  // Helper executor `executor` (>= S): claims offered batches until every
  // executor of this run_until has returned.
  void run_helper(int executor);
  // One protocol step of shard s; *moved = a ring drained or
  // publish_clock made progress.
  Step channel_step(int s, Time stop, bool* moved);
  // Earliest timestamp any other shard could still send to `s`. When
  // `argmin` is non-null it receives the shard whose clock binds that
  // minimum — the "blocking neighbor" of a clock-wait span.
  Time earliest_inbound(int s, int* argmin = nullptr) const;
  // Flushes ring overflows, then raises this shard's published clock to
  // min(wheel min, earliest inbound, overflow caps); true if the clock
  // rose or an overflow was flushed (progress, see run_executor).
  bool publish_clock(int s, Time eit);
  std::size_t drain_rings(int s);        // events moved ring -> wheel
  bool overflow_clear(int s, Time stop);
  InboxRing& ring(int src, int dst) {
    return *rings_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(n_shards()) +
                   static_cast<std::size_t>(dst)];
  }

  // --- work stealing ---
  int group_of_event(const Event* e) const;
  void split_window(Shard& sh, Time w0, Time h, Time stop);
  void execute_batch(StealBatch& b, int executor);
  void steal_post_local(StealBatch& b, Event* e);
  void steal_post_cross(StealBatch& b, Event* e, int dst_shard, int dst_node);
  bool try_steal_one(int thief);

  [[noreturn]] void lookahead_violation(const Event* e, int src_shard,
                                        int dst_shard, Time from,
                                        Time bound) const;

  // Moves every in-flight cross-shard event (rings and producer-side
  // overflows) into its destination wheel. Only legal while the engine is
  // idle; the snapshot codec calls it so the saved wheels are the complete
  // pending-event set.
  void drain_transport_for_snapshot();

  std::vector<int> shard_of_;
  std::vector<std::uint32_t> seq_;  // runtime space: nodes, then shard envs
  std::vector<std::uint32_t> setup_seq_;  // setup space: nodes only
  std::vector<std::unique_ptr<Shard>> shards_;
  Time lookahead_ = 0;
  int n_nodes_ = 0;

  std::vector<Time> chan_delay_;   // S*S per-pair lookahead (closure)
  std::unique_ptr<PubClock[]> clock_;  // per-shard published channel clock
  std::vector<std::unique_ptr<InboxRing>> rings_;  // src * S + dst
  std::vector<int> group_of_node_;
  // Handler events executed, per target node (the event's obj device).
  // Written only from entity-disjoint contexts — a shard's serial loop or
  // a stolen batch, which partitions by locality group — so the plain
  // increments are race-free. See node_event_counts().
  std::vector<std::uint64_t> node_events_;
  bool steal_on_ = false;
  std::size_t steal_threshold_ = 0;
  int executors_ = 1;  // threads driving shards in a multi-shard run
  int helpers_ = 0;    // helper executors per multi-shard run

  std::mutex steal_mu_;
  std::vector<StealBatch*> steal_board_;
  std::atomic<int> hungry_{0};
  std::atomic<int> executors_live_{0};  // executors not yet returned
  // Bumped after executor rounds that ran work, moved a ring or raised a
  // clock (see run_executor's stall check). Own cache line: executors
  // write it on their first idle round after progress.
  alignas(64) std::atomic<std::uint64_t> progress_gen_{0};
  std::unique_ptr<IdleGen[]> idle_gen_;  // one per executor

  std::unique_ptr<obs::Telemetry> telemetry_;
};

}  // namespace bfc
