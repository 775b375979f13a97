#include "engine/sharded_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>
#if defined(__linux__)
#include <sched.h>
#endif

#include "core/packet.hpp"
#include "sim/env_knob.hpp"

namespace bfc {

namespace {

constexpr Time kTimeInf = std::numeric_limits<Time>::max();

// StealBatch::state values. A batch is idle/complete at 0 so the merge
// wait loop and a freshly-constructed batch agree.
constexpr int kStealDone = 0;
constexpr int kStealOffered = 1;
constexpr int kStealClaimed = 2;

}  // namespace

int ShardedSimulator::usable_cores() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

Event* Shard::make(int src_entity, Time at) {
  StealBatch* b = detail::tl_batch;
  if (b != nullptr && b->owner == this) {
    Event* e = b->pool.alloc();
    e->at = at < b->now ? b->now : at;
    e->key = (static_cast<std::uint64_t>(src_entity) << 32) |
             (kRunSeqBase |
              engine_->seq_[static_cast<std::size_t>(src_entity)]++);
    return e;
  }
  Event* e = pool_.alloc();
  e->at = at < now_ ? now_ : at;
  e->key = (static_cast<std::uint64_t>(src_entity) << 32) |
           (kRunSeqBase |
            engine_->seq_[static_cast<std::size_t>(src_entity)]++);
  return e;
}

Event* Shard::make_setup(int src_entity, Time at) {
  if (detail::tl_batch != nullptr) {
    std::fprintf(stderr,
                 "Shard::make_setup: illegal from inside a stolen batch "
                 "(shard %d)\n",
                 idx_);
    std::abort();
  }
  Event* e = pool_.alloc();
  e->at = at < now_ ? now_ : at;
  e->key = (static_cast<std::uint64_t>(src_entity) << 32) |
           engine_->setup_seq_[static_cast<std::size_t>(src_entity)]++;
  return e;
}

void Shard::post(Event* e, int dst_node) {
  const int dst = engine_->shard_of(dst_node);
  StealBatch* b = detail::tl_batch;
  if (b != nullptr && b->owner == this) {
    if (dst == idx_) {
      engine_->steal_post_local(*b, e);
    } else {
      engine_->steal_post_cross(*b, e, dst, dst_node);
    }
    return;
  }
  if (dst == idx_) {
    wheel_.push(e);
    return;
  }
  const Time d = engine_->channel_lookahead(idx_, dst);
  if (e->at < now_ + d) {
    engine_->lookahead_violation(e, idx_, dst, now_, d);
  }
  engine_->ring(idx_, dst).push(e);
}

void Shard::post_local(Event* e) {
  StealBatch* b = detail::tl_batch;
  if (b != nullptr && b->owner == this) {
    engine_->steal_post_local(*b, e);
    return;
  }
  wheel_.push(e);
}

void Shard::post_closure(Time at, std::function<void()> fn) {
  StealBatch* b = detail::tl_batch;
  if (b != nullptr && b->owner == this) {
    // Closures are shard-pinned (they may touch any device of the shard),
    // so split_window never offers a window containing one — and nothing
    // inside a stolen batch may create one.
    std::fprintf(stderr,
                 "Shard::post_closure: illegal from inside a stolen batch "
                 "(shard %d)\n",
                 idx_);
    std::abort();
  }
  Event* e = make(engine_->n_nodes_ + idx_, at);
  ColdNode* n = cold_.alloc();
  n->closure = std::move(fn);
  e->put_cold(n);
  wheel_.push(e);
}

void Shard::recycle(Event* e) {
  StealBatch* b = detail::tl_batch;
  if (b != nullptr && b->owner == this) {
    release_event_payload(*e, b->arena, b->acks, b->cold);
    b->pool.release(e);
    return;
  }
  release_event_payload(*e, arena_, acks_, cold_);
  pool_.release(e);
}

void Shard::log_completion(std::uint64_t uid, Time t) {
  StealBatch* b = detail::tl_batch;
  if (b != nullptr && b->owner == this) {
    b->completions.emplace_back(uid, t);
    return;
  }
  completions_.emplace_back(uid, t);
}

void Shard::run_window(Time wend, Time stop) {
  // Events run while at < wend and at <= stop; the wheel walks buckets
  // and pops each batch in exact (timestamp, key) order.
  const Time limit = wend <= stop ? wend : stop + 1;
  while (Event* e = wheel_.pop_until(limit)) {
    wheel_.prefetch_next();
    now_ = e->at;
    ++events_run_;
    // Telemetry taps. Off costs one always-false compare (obs_epoch_ is
    // the max() sentinel) and one null test; neither touches sim state,
    // so results are bit-identical either way.
    if (e->at >= obs_epoch_) obs_epoch_sample(e->at);
    if (flight_ != nullptr) flight_->push(e->at, e->key);
    if (e->fn != nullptr) {
      // Per-node attribution feeds the checkpoint codec (closures are
      // not node-attributable and are re-credited by the harness).
      ++engine_->node_events_[static_cast<std::size_t>(
          static_cast<const Device*>(e->obj)->id())];
      e->fn(*e);
    } else {
      e->u.cold.node->closure();
    }
    recycle(e);
  }
}

void Shard::obs_epoch_sample(Time t) {
  obs::ShardObs* o = obs_;
  o->count(obs::kEpochSamples);
  const std::size_t wheel_total = wheel_.size();
  const std::size_t wheel_far = wheel_.far_size();
  o->gauge_set(obs::kWheelNear, wheel_total - wheel_far);
  o->gauge_set(obs::kWheelFar, wheel_far);
  std::size_t inbox = 0;
  if (!engine_->rings_.empty()) {
    const int S = engine_->n_shards();
    for (int src = 0; src < S; ++src) {
      if (src != idx_) inbox += engine_->ring(src, idx_).size_approx();
    }
  }
  o->gauge_set(obs::kInboxOccupancy, inbox);
  o->gauge_set(obs::kEventBlocks, pool_.blocks_allocated());
  o->gauge_set(obs::kArenaBlocks, arena_.blocks_allocated() +
                                      acks_.blocks_allocated() +
                                      cold_.blocks_allocated());
  o->histo_add(obs::kWheelDepth, wheel_total);
  o->histo_add(obs::kInboxDepth, inbox);
  if (o->trace) {
    o->span(obs::SpanKind::kGaugeSample, t, t, obs::kWheelNear,
            static_cast<std::int64_t>(wheel_total - wheel_far));
    o->span(obs::SpanKind::kGaugeSample, t, t, obs::kWheelFar,
            static_cast<std::int64_t>(wheel_far));
    o->span(obs::SpanKind::kGaugeSample, t, t, obs::kInboxOccupancy,
            static_cast<std::int64_t>(inbox));
  }
  // Next epoch strictly after t: an idle stretch advances in one step.
  obs_epoch_ += ((t - obs_epoch_) / obs_period_ + 1) * obs_period_;
}

ShardedSimulator::ShardedSimulator(const TopoGraph& topo, int n_shards,
                                   SyncMode /*sync: one protocol*/) {
  int S = n_shards < 1 ? 1 : n_shards;
  if (S > topo.num_nodes()) S = topo.num_nodes();
  n_nodes_ = topo.num_nodes();
  shard_of_ = topo.partition(S);
  seq_.assign(static_cast<std::size_t>(n_nodes_ + S), 0);
  setup_seq_.assign(static_cast<std::size_t>(n_nodes_), 0);
  node_events_.assign(static_cast<std::size_t>(n_nodes_), 0);
  for (int s = 0; s < S; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->engine_ = this;
    shards_.back()->idx_ = s;
    shards_.back()->group_slot_.assign(
        static_cast<std::size_t>(topo.num_groups()), -1);
  }
  group_of_node_.reserve(static_cast<std::size_t>(n_nodes_));
  for (int node = 0; node < n_nodes_; ++node) {
    group_of_node_.push_back(topo.group_of(node));
  }

  // Channel lookahead: the tightest latency any cross-shard interaction
  // between a given pair can have. Every interaction — a forwarded
  // packet, a pause frame, an ack shortcut — corresponds to a physical
  // path whose delay is at least the sum of its link propagations, which
  // the all-pairs shortest-path closure of the per-pair minimum link
  // delays lower-bounds. lookahead() is the off-diagonal minimum.
  chan_delay_ = topo.shard_link_delays(shard_of_, S);
  lookahead_ = kTimeInf;
  for (int i = 0; i < S; ++i) {
    for (int j = 0; j < S; ++j) {
      const Time d = chan_delay_[static_cast<std::size_t>(i * S + j)];
      if (i != j && d < lookahead_) lookahead_ = d;
    }
  }
  if (lookahead_ == kTimeInf) lookahead_ = milliseconds(1);  // no cross links
  if (S > 1 && lookahead_ <= 0) {
    std::fprintf(stderr,
                 "ShardedSimulator: zero-delay link crosses shards; cannot "
                 "derive a lookahead window\n");
    std::abort();
  }
  for (int k = 0; k < S; ++k) {
    for (int i = 0; i < S; ++i) {
      const Time ik = chan_delay_[static_cast<std::size_t>(i * S + k)];
      if (ik == kTimeInf) continue;
      for (int j = 0; j < S; ++j) {
        const Time kj = chan_delay_[static_cast<std::size_t>(k * S + j)];
        if (kj == kTimeInf) continue;
        Time& ij = chan_delay_[static_cast<std::size_t>(i * S + j)];
        if (ik + kj < ij) ij = ik + kj;
      }
    }
  }

  if (S > 1) {
    const auto cap = static_cast<std::size_t>(
        env_long("BFC_INBOX_RING_CAP", InboxRing::kDefaultCap, 2, 1 << 20));
    rings_.resize(static_cast<std::size_t>(S) * static_cast<std::size_t>(S));
    for (int i = 0; i < S; ++i) {
      for (int j = 0; j < S; ++j) {
        if (i != j) {
          rings_[static_cast<std::size_t>(i * S + j)] =
              std::make_unique<InboxRing>(cap);
        }
      }
    }
    clock_ = std::make_unique<PubClock[]>(static_cast<std::size_t>(S));
  }

  // Thread layout from one core count: min(S, cores) executors (see
  // run_executor), stealing on by default only with a second core, and a
  // helper (see run_helper) per core beyond S, capped at S: every helper
  // polls steal_mu_, and one per shard (2 beside 2 on 4 cores) is the
  // layout measured. The steal window cap per shard is the fastest
  // intra-shard inter-group interaction: either a direct same-shard link
  // between two groups, or a round trip that physically leaves the shard
  // and comes back (the ack shortcut can compress such a path into one
  // event).
  const int cores = usable_cores();
  executors_ = std::clamp(cores, 1, S);
  if (S > 1) {
    idle_gen_ =
        std::make_unique<IdleGen[]>(static_cast<std::size_t>(executors_));
  }
  steal_threshold_ = static_cast<std::size_t>(
      env_long("BFC_STEAL_THRESHOLD", 256, 1, 1L << 30));
  steal_on_ = S > 1 && env_switch("BFC_STEAL", cores > 1);
  helpers_ = steal_on_ ? std::clamp(cores - S, 0, S) : 0;
  for (int s = 0; s < S; ++s) {
    Time cap = kTimeInf;
    for (int m = 0; m < S; ++m) {
      if (m == s) continue;
      const Time out = chan_delay_[static_cast<std::size_t>(s * S + m)];
      const Time back = chan_delay_[static_cast<std::size_t>(m * S + s)];
      if (out != kTimeInf && back != kTimeInf && out + back < cap) {
        cap = out + back;
      }
    }
    for (int node = 0; node < n_nodes_; ++node) {
      if (shard_of(node) != s) continue;
      for (const PortInfo& port : topo.ports(node)) {
        if (shard_of(port.peer) == s &&
            group_of_node_[static_cast<std::size_t>(port.peer)] !=
                group_of_node_[static_cast<std::size_t>(node)] &&
            port.delay < cap) {
          cap = port.delay;
        }
      }
    }
    shards_[static_cast<std::size_t>(s)]->steal_cap_ =
        (cap == kTimeInf || cap <= 0) ? 0 : cap;
  }

  // Telemetry (obs/metrics.hpp): resolved per engine instance like every
  // other knob. A null telemetry_ leaves the shards' obs_/flight_ null
  // and obs_epoch_ at the never-reached sentinel — the entire off-path.
  telemetry_ = obs::Telemetry::from_env(S);
  if (telemetry_ != nullptr) {
    const obs::Telemetry::Config& tc = telemetry_->config();
    for (int s = 0; s < S; ++s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      if (tc.metrics) {
        sh.obs_ = &telemetry_->shard(s);
        sh.obs_period_ = tc.epoch;
        sh.obs_epoch_ = tc.epoch;
      }
      if (tc.flight > 0) sh.flight_ = &telemetry_->flight(s);
    }
  }
}

void ShardedSimulator::at(Time t, std::function<void()> fn) {
  if (n_shards() != 1) {
    std::fprintf(stderr,
                 "ShardedSimulator::at: global closure API requires a "
                 "single-shard engine (have %d shards)\n",
                 n_shards());
    std::abort();
  }
  shards_[0]->post_closure(t, std::move(fn));
}

void ShardedSimulator::after(Time delay, std::function<void()> fn) {
  at(now() + (delay < 0 ? 0 : delay), std::move(fn));
}

// --------------------------------------------------------------------
// Per-link channel clocks (null-message style).
//
// Each shard s publishes clock[s], a monotone lower bound on the
// timestamp of any event it may still send: min(its wheel minimum, its
// own inbound horizon, and — while a ring overflow is parked — the
// earliest parked timestamp minus that channel's lookahead). Shard d may
// safely execute everything below
//
//   EIT(d) = min over s != d of clock[s] + chan_delay[s][d]
//
// because an event from s arrives no earlier than clock[s] (s's earliest
// possible send time) plus the channel lookahead. Reading the clocks
// (acquire) BEFORE draining the rings is what makes the horizon safe: a
// producer pushes into the ring before it raises its clock (release), so
// any event below the horizon we compute is already visible to the drain
// that follows. Progress needs no barrier — clocks rise through the
// fixed-point iteration (every publication folds in the latest inbound
// horizon), and since every channel lookahead is positive the horizon
// strictly advances past any finite configuration, so the protocol is
// deadlock-free; an idle stretch costs each shard a few clock loads per
// advance.

Time ShardedSimulator::earliest_inbound(int s, int* argmin) const {
  const int S = n_shards();
  Time eit = kTimeInf;
  for (int m = 0; m < S; ++m) {
    if (m == s) continue;
    const Time d = chan_delay_[static_cast<std::size_t>(m * S + s)];
    if (d == kTimeInf) continue;  // m can never reach s
    const Time c = clock_[static_cast<std::size_t>(m)].t.load(
        std::memory_order_acquire);
    const Time arrive = c >= kTimeInf - d ? kTimeInf : c + d;
    if (arrive < eit) {
      eit = arrive;
      if (argmin != nullptr) *argmin = m;
    }
  }
  return eit;
}

std::size_t ShardedSimulator::drain_rings(int s) {
  const int S = n_shards();
  TimingWheel& wheel = shards_[static_cast<std::size_t>(s)]->wheel_;
  std::size_t drained = 0;
  for (int src = 0; src < S; ++src) {
    if (src == s) continue;
    drained += ring(src, s).drain([&wheel](Event* e) { wheel.push(e); });
  }
  return drained;
}

bool ShardedSimulator::publish_clock(int s, Time eit) {
  const int S = n_shards();
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  Time b = sh.wheel_.min_time();
  if (eit < b) b = eit;
  // Progress here means either the published clock rises or parked
  // overflow events move into a ring. The latter matters for the
  // stall check in run_executor: with a tiny ring, whole
  // passes can advance purely by cycling events overflow -> ring ->
  // neighbor wheel while every clock stays capped — that is real
  // progress, not a protocol deadlock.
  bool flushed = false;
  std::uint64_t flushed_events = 0;
  for (int d = 0; d < S; ++d) {
    if (d == s) continue;
    InboxRing& r = ring(s, d);
    const std::size_t moved = r.flush_overflow();
    if (moved > 0) {
      flushed = true;
      flushed_events += moved;
    }
    if (!r.overflow_empty()) {
      // Parked events are invisible to d until flushed; hold the clock
      // far enough back that d's horizon cannot pass them. overflow_min_at
      // can be stale-low after a partial flush, which only over-caps.
      const Time cap =
          r.overflow_min_at() - channel_lookahead(s, d);
      if (cap < b) b = cap;
    }
  }
  if (b < 0) b = 0;
  if (sh.obs_ != nullptr && flushed_events > 0) {
    sh.obs_->count(obs::kRingFlushEvents, flushed_events);
  }
  std::atomic<Time>& c = clock_[static_cast<std::size_t>(s)].t;
  if (b <= c.load(std::memory_order_relaxed)) return flushed;  // monotone
  c.store(b, std::memory_order_release);
  if (sh.obs_ != nullptr) sh.obs_->count(obs::kClockAdvances);
  return true;
}

bool ShardedSimulator::overflow_clear(int s, Time stop) {
  // Parked events with timestamps beyond `stop` do not block finishing:
  // like events still in the wheel or a ring, they simply wait for the
  // next run_until(). Insisting on a fully empty overflow would deadlock
  // when the destination shard already finished (it never drains again,
  // so a full ring can never accept the flush) — and in exactly that
  // situation every parked event is provably > stop, because the
  // destination could only finish once our capped clock pushed its
  // inbound horizon past stop, and the cap sits at overflow_min_at minus
  // the channel lookahead. overflow_min_at may be stale-low after a
  // partial flush, which only delays finishing, never unsafely allows it.
  const int S = n_shards();
  for (int d = 0; d < S; ++d) {
    if (d == s) continue;
    const InboxRing& r = ring(s, d);
    if (!r.overflow_empty() && r.overflow_min_at() <= stop) return false;
  }
  return true;
}

ShardedSimulator::Step ShardedSimulator::channel_step(int s, Time stop,
                                                      bool* moved) {
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  obs::ShardObs* o = sh.obs_;
  int peer = -1;
  const Time eit =  // acquire: orders the drain below
      earliest_inbound(s, o != nullptr ? &peer : nullptr);
  const std::size_t drained = drain_rings(s);
  *moved = publish_clock(s, eit) || drained > 0;
  const Time h = eit > stop ? stop + 1 : eit;
  const Time wmin = sh.wheel_.min_time();
  if (wmin < h) {
    if (o != nullptr && o->waiting) {
      // The wait that began on an earlier blocked step ends here: local
      // work became runnable at wmin (sim time), after sitting since
      // wait_t0 on wait_peer's clock.
      const Time t1 = wmin > o->wait_t0 ? wmin : o->wait_t0;
      o->count(obs::kClockWaitNs,
               static_cast<std::uint64_t>(t1 - o->wait_t0));
      o->span(obs::SpanKind::kClockWait, o->wait_t0, t1, o->wait_peer,
              t1 - o->wait_t0);
      o->waiting = false;
    }
    if (steal_on_ && sh.steal_cap_ > 0 &&
        hungry_.load(std::memory_order_relaxed) > 0 &&
        sh.wheel_.size() >= steal_threshold_) {
      split_window(sh, wmin, h, stop);
    } else {
      sh.run_window(h, stop);
    }
    return Step::kRan;
  }
  if (eit > stop && wmin > stop && overflow_clear(s, stop)) {
    if (o != nullptr && o->waiting) {
      const Time t1 = stop > o->wait_t0 ? stop : o->wait_t0;
      o->count(obs::kClockWaitNs,
               static_cast<std::uint64_t>(t1 - o->wait_t0));
      o->span(obs::SpanKind::kClockWait, o->wait_t0, t1, o->wait_peer,
              t1 - o->wait_t0);
      o->waiting = false;
    }
    // Nothing below the horizon anywhere: later arrivals (if any) carry
    // t > stop and stay ringed/wheeled for the next run_until(). The
    // terminal clock releases every neighbor still waiting on us.
    clock_[static_cast<std::size_t>(s)].t.store(kTimeInf,
                                                std::memory_order_release);
    sh.now_ = stop;
    return Step::kFinished;
  }
  // Stealing a neighbor's batch is useful wall-clock work, but this shard
  // is still blocked on its neighbor's clock — the wait span stays open.
  if (o != nullptr && !o->waiting) {
    o->waiting = true;
    o->wait_t0 = sh.now_;
    o->wait_peer = peer;
    o->count(obs::kClockWaits);
  }
  if (steal_on_ && try_steal_one(s)) return Step::kRan;
  return Step::kBlocked;
}

// Stall check. An executor bumps the progress generation after rounds
// that ran an event, moved a ring or raised a clock, at the latest on its
// first round without progress. Each round starts under the generation
// the executor last read (before the round's first state load); a round
// with no progress, no unpublished progress before it and the generation
// unchanged at its end registers in the executor's slot. When every live
// executor is registered under `gen` and the generation is still `gen`,
// the engine is at a true fixed point. Let W run from the start of the
// earliest registered round to now; the generation did not move in W. An
// effect before W was bumped before W (its executor bumped before the
// round it registered), so every registered round read it: the acquire
// load of `gen` synchronizes with every earlier bump. Suppose some effect
// happened in W, and take the first one, by executor X. X's round making it started after X's
// registered round, and up to that effect it read exactly the state the
// registered round read, since nothing changed in between. Step is a
// function of that state (ring contents, clocks, wheels; a stealable
// batch exists only inside another round that ran), so that round could
// not have made progress either: a contradiction. Hence no shard can ever
// move again, yet some have events pending: the lookahead matrix admitted
// an interaction it shouldn't have.
bool ShardedSimulator::all_idle_at(std::uint64_t gen) const {
  for (int j = 0; j < executors_; ++j) {
    const std::uint64_t g =
        idle_gen_[static_cast<std::size_t>(j)].gen.load(
            std::memory_order_acquire);
    if (g != gen && g != IdleGen::kExited) return false;
  }
  return progress_gen_.load(std::memory_order_acquire) == gen;
}

void ShardedSimulator::run_executor(int k, Time stop) {
  // Same results at any T: the clocks don't care who advances them.
  const int S = n_shards();
  const int T = executors_;
  std::vector<char> done(static_cast<std::size_t>(S), 0);
  int remaining = (S - k + T - 1) / T;
  int idle = 0;
  bool hungry = false;
  IdleGen& mine = idle_gen_[static_cast<std::size_t>(k)];
  // The generation this round starts under: read before the round's first
  // state load, so the round saw every effect published under it.
  std::uint64_t gen = progress_gen_.load(std::memory_order_acquire);
  bool unpublished = false;  // progress made since this executor's bump
  while (remaining > 0) {
    bool ran = false;
    bool progress = false;
    for (int s = k; s < S; s += T) {
      if (done[static_cast<std::size_t>(s)]) continue;
      bool moved = false;
      const Step r = channel_step(s, stop, &moved);
      if (r == Step::kFinished) {
        done[static_cast<std::size_t>(s)] = 1;
        --remaining;
      }
      ran = ran || r == Step::kRan;
      progress = progress || r != Step::kBlocked || moved;
    }
    unpublished = unpublished || progress;
    if (remaining == 0) break;
    if (ran) {
      idle = 0;
      if (hungry) {
        hungry_.fetch_sub(1, std::memory_order_relaxed);
        hungry = false;
      }
      continue;
    }
    if (!progress && unpublished) {
      // Rounds that ran pay no atomic: the first idle round publishes
      // (release) the whole streak; the result starts the next round.
      gen = progress_gen_.fetch_add(1, std::memory_order_acq_rel) + 1;
      unpublished = false;
    } else if (!progress) {
      const std::uint64_t now = progress_gen_.load(std::memory_order_acquire);
      if (now != gen) {
        gen = now;
      } else {
        if (mine.gen.load(std::memory_order_relaxed) != gen) {
          mine.gen.store(gen, std::memory_order_release);
        }
        if (all_idle_at(gen)) {
          int unfinished = 0;
          for (int s = 0; s < S; ++s) {
            unfinished += clock_[static_cast<std::size_t>(s)].t.load(
                              std::memory_order_relaxed) != kTimeInf;
          }
          std::fprintf(stderr,
                       "ShardedSimulator: channel clocks stalled with %d "
                       "shards unfinished — lookahead matrix is unsound\n",
                       unfinished);
          std::abort();
        }
      }
    }
    // No shard of ours ran: advertise hunger so hot shards split their
    // windows, then back off (a shared core needs the quantum more than
    // we need the spin).
    if (steal_on_ && !hungry) {
      hungry_.fetch_add(1, std::memory_order_relaxed);
      hungry = true;
    }
    if (++idle > 64) std::this_thread::yield();
  }
  if (hungry) hungry_.fetch_sub(1, std::memory_order_relaxed);
  // Publish the finishing round, then leave: a stall check that sees
  // kExited also sees the generation move past any round it skipped.
  progress_gen_.fetch_add(1, std::memory_order_release);
  mine.gen.store(IdleGen::kExited, std::memory_order_release);
  executors_live_.fetch_sub(1, std::memory_order_release);
}

void ShardedSimulator::run_helper(int executor) {
  // A helper owns no shard, so it is hungry for the whole run: hot shards
  // split whenever their wheel is deep enough, and the batches they offer
  // find an executor even while every shard executor is busy. Which
  // thread runs a batch never reaches the results (batch-private state,
  // group-order merge). No batch outlives its owner's split_window, so
  // once every executor has returned the board is empty for good.
  hungry_.fetch_add(1, std::memory_order_relaxed);
  int idle = 0;
  while (executors_live_.load(std::memory_order_acquire) > 0) {
    if (try_steal_one(executor)) {
      idle = 0;
    } else if (++idle > 64) {
      std::this_thread::yield();
    }
  }
  hungry_.fetch_sub(1, std::memory_order_relaxed);
}

// --------------------------------------------------------------------
// Work stealing: a hot shard splits one window into per-locality-group
// batches and lets blocked neighbors and helper executors run some of
// them. Sound because (a) groups only interact on timescales >= steal_cap_
// (the window is capped at w0 + steal_cap_, so a batch can never need
// another batch's same-window output — enforced, not assumed: see
// steal_post_local), and (b) all mutable state a batch touches is
// per-entity and entity-disjoint across groups (device/queue state,
// sequence counters, per-node RNGs, flow sender/receiver halves).
// Deterministic because each batch runs its events in exact (at, key)
// order — including events it posts to itself inside the window, via the
// batch's wheel — and the merge-back happens in group order after every
// batch completed, feeding a wheel/stats layer that is insensitive to
// inter-group arrival order. Which executor ran a batch never matters.

int ShardedSimulator::group_of_event(const Event* e) const {
  if (e->fn == nullptr) return -1;  // shard-pinned closure
  return group_of_node_[static_cast<std::size_t>(
      static_cast<const Device*>(e->obj)->id())];
}

void ShardedSimulator::split_window(Shard& sh, Time w0, Time h, Time stop) {
  Time w1 = w0 >= kTimeInf - sh.steal_cap_ ? kTimeInf : w0 + sh.steal_cap_;
  if (w1 > h) w1 = h;
  if (w1 > stop + 1) w1 = stop + 1;
  sh.scratch_.clear();
  bool pinned = false;
  while (Event* e = sh.wheel_.pop_until(w1)) {
    sh.scratch_.push_back(e);
    if (e->fn == nullptr) pinned = true;
  }
  if (pinned || sh.scratch_.size() < steal_threshold_) {
    // Closure in the window (may read the whole shard) or not enough work
    // to pay for the split: put everything back — pushes at or below the
    // pop cursor land in the wheel's tick heap, preserving order — and
    // run the full window serially.
    for (Event* e : sh.scratch_) sh.wheel_.push(e);
    sh.scratch_.clear();
    sh.run_window(h, stop);
    return;
  }

  // Partition into per-group batches. Reusing a slot's wheel is sound: it
  // is empty between windows (execute_batch drains it or aborts), and a
  // shard's windows are monotone, so every push lands at or after the
  // wheel's last pop, as the wheel requires.
  sh.active_.clear();
  for (Event* e : sh.scratch_) {
    const int g = group_of_event(e);
    int slot = sh.group_slot_[static_cast<std::size_t>(g)];
    if (slot < 0) {
      slot = static_cast<int>(sh.active_.size());
      if (slot >= static_cast<int>(sh.batches_.size())) {
        sh.batches_.push_back(std::make_unique<StealBatch>());
      }
      StealBatch* b = sh.batches_[static_cast<std::size_t>(slot)].get();
      b->owner = &sh;
      b->group = g;
      b->w0 = w0;
      b->w1 = w1;
      b->now = w0;
      b->events_run = 0;
      b->claimed_by = -1;
      // Batch-private telemetry sinks mirror the owner's enablement
      // (merge zeroes obs_store, so a recycled slot starts clean).
      b->obs = sh.obs_ != nullptr ? &b->obs_store : nullptr;
      b->obs_store.trace = sh.obs_ != nullptr && sh.obs_->trace;
      b->flight = sh.flight_ != nullptr ? &b->flight_store : nullptr;
      b->state.store(kStealOffered, std::memory_order_relaxed);
      sh.active_.push_back(b);
      sh.group_slot_[static_cast<std::size_t>(g)] = slot;
    }
    sh.active_[static_cast<std::size_t>(slot)]->wheel.push(e);
  }
  sh.scratch_.clear();
  for (StealBatch* b : sh.active_) {
    sh.group_slot_[static_cast<std::size_t>(b->group)] = -1;
  }
  std::sort(sh.active_.begin(), sh.active_.end(),
            [](const StealBatch* a, const StealBatch* b) {
              return a->group < b->group;
            });

  if (sh.obs_ != nullptr) {
    sh.obs_->count(obs::kStealBatchesOffered, sh.active_.size());
  }
  if (sh.active_.size() > 1) {
    {
      std::lock_guard<std::mutex> lk(steal_mu_);
      for (StealBatch* b : sh.active_) steal_board_.push_back(b);
    }
    // Give the hungry neighbors that triggered the split a scheduling
    // chance to claim before we race them for our own batches — on an
    // oversubscribed box the blocked thief only runs if we yield.
    std::this_thread::yield();
  } else {
    sh.active_[0]->state.store(kStealClaimed, std::memory_order_relaxed);
    sh.active_[0]->claimed_by = sh.idx_;
  }

  // Execute every batch nobody claimed, then wait out the thieves.
  for (;;) {
    StealBatch* mine = nullptr;
    if (sh.active_.size() > 1) {
      std::lock_guard<std::mutex> lk(steal_mu_);
      for (StealBatch* b : sh.active_) {
        if (b->state.load(std::memory_order_relaxed) == kStealOffered) {
          b->state.store(kStealClaimed, std::memory_order_relaxed);
          b->claimed_by = sh.idx_;
          mine = b;
          break;
        }
      }
    } else if (sh.active_[0]->claimed_by == sh.idx_ &&
               sh.active_[0]->state.load(std::memory_order_relaxed) ==
                   kStealClaimed) {
      mine = sh.active_[0];
    }
    if (mine == nullptr) break;
    execute_batch(*mine, sh.idx_);
    mine->state.store(kStealDone, std::memory_order_release);
  }
  int spins = 0;
  for (StealBatch* b : sh.active_) {
    while (b->state.load(std::memory_order_acquire) != kStealDone) {
      if (++spins > 128) std::this_thread::yield();
    }
  }
  if (sh.active_.size() > 1) {
    std::lock_guard<std::mutex> lk(steal_mu_);
    steal_board_.erase(
        std::remove_if(steal_board_.begin(), steal_board_.end(),
                       [&sh](const StealBatch* b) { return b->owner == &sh; }),
        steal_board_.end());
  }

  // Deterministic merge-back, in group order: deferred posts enter the
  // wheel/rings (both insensitive to insertion order — the wheel re-sorts
  // by (at, key), ring consumers likewise), completions fold into the
  // per-shard log.
  Time maxt = sh.now_;
  for (StealBatch* b : sh.active_) {
    sh.events_run_ += b->events_run;
    if (b->claimed_by != sh.idx_) sh.events_stolen_ += b->events_run;
    if (b->events_run > 0 && b->now > maxt) maxt = b->now;
    for (auto& [e, dst] : b->deferred) {
      if (dst < 0) {
        sh.wheel_.push(e);
      } else {
        ring(sh.idx_, shard_of(dst)).push(e);
      }
    }
    b->deferred.clear();
    for (const auto& c : b->completions) sh.completions_.push_back(c);
    b->completions.clear();
    // Telemetry merge rides the same group-order fold (the kStealDone
    // acquire above orders the executor's batch writes before these
    // reads). Only batches another executor ran become steal spans.
    if (sh.obs_ != nullptr) {
      if (b->claimed_by != sh.idx_) {
        sh.obs_->count(obs::kStealBatchesStolen);
        sh.obs_->span(obs::SpanKind::kSteal, b->w0,
                      b->events_run > 0 ? b->now : b->w0, b->claimed_by,
                      static_cast<std::int64_t>(b->events_run));
      }
      sh.obs_->merge_from(b->obs_store);
    }
    if (sh.flight_ != nullptr) {
      for (const obs::FlightRec& fr : b->flight_store) {
        sh.flight_->push(fr.at, fr.key);
      }
      b->flight_store.clear();
    }
  }
  sh.now_ = maxt;
  sh.active_.clear();
}

void ShardedSimulator::execute_batch(StealBatch& b, int executor) {
  const auto out_of_window = [&](Time at) {
    std::fprintf(stderr,
                 "ShardedSimulator: stolen batch (shard %d, group %d, "
                 "executor %d) would run t=%lld outside its window "
                 "[%lld, %lld)\n",
                 b.owner->idx_, b.group, executor, static_cast<long long>(at),
                 static_cast<long long>(b.w0), static_cast<long long>(b.w1));
    std::abort();
  };
  detail::tl_batch = &b;
  while (Event* e = b.wheel.pop_until(b.w1)) {
    if (e->at < b.w0) out_of_window(e->at);
    b.now = e->at;
    ++b.events_run;
    if (b.flight != nullptr) b.flight->push_back({e->at, e->key});
    ++node_events_[static_cast<std::size_t>(
        static_cast<const Device*>(e->obj)->id())];
    e->fn(*e);  // closures never enter a batch (split_window pins them)
    b.owner->recycle(e);
  }
  detail::tl_batch = nullptr;
  // pop_until never returns an event at or past w1; one left behind would
  // run in the slot's next window, possibly another group's.
  if (!b.wheel.empty()) out_of_window(b.wheel.min_time());
}

void ShardedSimulator::steal_post_local(StealBatch& b, Event* e) {
  const int g = group_of_event(e);
  if (g == b.group && e->at < b.w1) {
    // Same group, same window: interleave into the batch in (at, key)
    // order, exactly as the shard wheel would have.
    b.wheel.push(e);
    return;
  }
  if (e->at < b.w1) {
    // A cross-group interaction inside the window would execute after the
    // merge — out of order. steal_cap_ exists to make this impossible; if
    // it fires, the cap derivation no longer bounds some interaction.
    std::fprintf(stderr,
                 "ShardedSimulator: intra-shard post (group %d -> %d) at "
                 "t=%lld lands inside the steal window [%lld, %lld) — "
                 "steal_cap is unsound for this topology\n",
                 b.group, g, static_cast<long long>(e->at),
                 static_cast<long long>(b.w0), static_cast<long long>(b.w1));
    std::abort();
  }
  b.deferred.emplace_back(e, -1);
}

void ShardedSimulator::steal_post_cross(StealBatch& b, Event* e,
                                        int dst_shard, int dst_node) {
  const Time d = channel_lookahead(b.owner->idx_, dst_shard);
  if (e->at < b.now + d) {
    lookahead_violation(e, b.owner->idx_, dst_shard, b.now, d);
  }
  b.deferred.emplace_back(e, dst_node);
}

bool ShardedSimulator::try_steal_one(int thief) {
  StealBatch* b = nullptr;
  {
    std::lock_guard<std::mutex> lk(steal_mu_);
    for (StealBatch* cand : steal_board_) {
      if (cand->owner->idx_ == thief) continue;
      if (cand->state.load(std::memory_order_relaxed) == kStealOffered) {
        cand->state.store(kStealClaimed, std::memory_order_relaxed);
        cand->claimed_by = thief;
        b = cand;
        break;
      }
    }
  }
  if (b == nullptr) return false;
  execute_batch(*b, thief);
  b->state.store(kStealDone, std::memory_order_release);
  return true;
}

// --------------------------------------------------------------------

void ShardedSimulator::run_until(Time stop) {
  const int S = n_shards();
  if (S == 1) {
    Shard& sh = *shards_[0];
    sh.run_window(stop + 1, stop);
    if (sh.now_ < stop) sh.now_ = stop;
    return;
  }
  // Channel clocks start each run conservative (0 is a valid bound for
  // any pending event) and rise to kTimeInf as shards finish.
  for (int s = 0; s < S; ++s) {
    clock_[static_cast<std::size_t>(s)].t.store(0, std::memory_order_relaxed);
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(executors_ - 1 + helpers_));
  executors_live_.store(executors_, std::memory_order_relaxed);
  // Reset before any executor starts, so a slot left at kExited by the
  // previous run_until cannot make a live executor look finished.
  for (int k = 0; k < executors_; ++k) {
    idle_gen_[static_cast<std::size_t>(k)].gen.store(
        IdleGen::kNotIdle, std::memory_order_relaxed);
  }
  for (int k = 1; k < executors_; ++k) {
    threads.emplace_back([this, k, stop] { run_executor(k, stop); });
  }
  for (int k = 0; k < helpers_; ++k) {
    threads.emplace_back([this, S, k] { run_helper(S + k); });
  }
  run_executor(0, stop);
  for (std::thread& t : threads) t.join();
}

std::uint64_t ShardedSimulator::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->events_run();
  return n;
}

std::uint64_t ShardedSimulator::events_stolen() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->events_stolen();
  return n;
}

std::uint64_t ShardedSimulator::inbox_overflows() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) {
    if (r != nullptr) n += r->overflowed();
  }
  return n;
}

void ShardedSimulator::drain_transport_for_snapshot() {
  const int S = n_shards();
  if (S == 1) return;
  // A flush can refill a ring a drain just emptied, so iterate the
  // (overflow -> ring -> wheel) pipeline to a fixed point. Ring capacity
  // is >= 2 and drains empty completely, so every pass with parked events
  // makes progress.
  for (;;) {
    std::size_t moved = 0;
    for (int i = 0; i < S; ++i) {
      for (int j = 0; j < S; ++j) {
        if (i != j) moved += ring(i, j).flush_overflow();
      }
    }
    for (int s = 0; s < S; ++s) moved += drain_rings(s);
    if (moved == 0) break;
  }
}

void ShardedSimulator::lookahead_violation(const Event* e, int src_shard,
                                           int dst_shard, Time from,
                                           Time bound) const {
  std::fprintf(stderr,
               "ShardedSimulator: cross-shard event (shard %d -> %d) at "
               "t=%lld violates the lookahead window (now=%lld, "
               "lookahead=%lld); the partition admits an interaction "
               "faster than any cross-shard path\n",
               src_shard, dst_shard, static_cast<long long>(e->at),
               static_cast<long long>(from), static_cast<long long>(bound));
  std::abort();
}

}  // namespace bfc
