// Differential oracle for the channel-clock engine: every shard count
// must reproduce the 1-shard run bit for bit. The 1-shard run is the
// reference because run_until short-circuits S == 1 before any sync code
// (one wheel, no rings, clocks or stealing), so any divergence at S > 1
// is a channel-clock bug by construction.
//
// Also covers the thread-layout axis the protocol has to be insensitive
// to: one executor round-robining every shard (the layout on one core) vs
// the unpinned layout.
#include <algorithm>
#include <cstdlib>
#if defined(__linux__)
#include <sched.h>
#endif

#include "harness/experiment.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

ExperimentResult run_with(const TopoGraph& topo, Scheme scheme,
                          int shards) {
  ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.5;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = microseconds(150);
  cfg.traffic.seed = 7;
  cfg.drain = microseconds(450);
  cfg.shards = shards;
  return run_experiment(topo, cfg);
}

void check_identical(const ExperimentResult& a, const ExperimentResult& b) {
  CHECK(a.flows_started == b.flows_started);
  CHECK(a.flows_completed == b.flows_completed);
  CHECK(a.drops == b.drops);
  CHECK(a.bfc.pauses == b.bfc.pauses);
  CHECK(a.bfc.resumes == b.bfc.resumes);
  CHECK(a.bfc.overflow_packets == b.bfc.overflow_packets);
  CHECK(a.collision_frac == b.collision_frac);
  CHECK(a.buffer_samples_mb == b.buffer_samples_mb);
  CHECK(a.p99_slowdown == b.p99_slowdown);
  CHECK(a.bins.size() == b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    CHECK(a.bins[i].slowdowns == b.bins[i].slowdowns);
  }
}

// Event counts are only comparable at the SAME shard count: the harness
// posts its buffer-sampling closures per switch-owning shard, so total
// bookkeeping events scale with the partition (simulation stats do not).
void check_same_schedule(const ExperimentResult& a,
                         const ExperimentResult& b) {
  CHECK(a.shards == b.shards);
  CHECK(a.events_processed == b.events_processed);
  CHECK(a.shard_events == b.shard_events);
}

void check_scheme(const TopoGraph& topo, Scheme scheme) {
  const ExperimentResult oracle = run_with(topo, scheme, 1);
  CHECK(oracle.flows_started > 0);
  CHECK(oracle.flows_completed > 0);

  // Channel clocks at every shard count vs the 1-shard oracle.
  for (const int shards : {1, 2, 4, 8}) {
    const ExperimentResult r = run_with(topo, scheme, shards);
    CHECK(r.shards == shards);
    check_identical(oracle, r);
  }
}

// One executor round-robining all four shards and the unpinned layout
// drive the same clocks to the same fixed points; only wall-clock may
// differ. The engine sizes its executors from the affinity mask, so
// pinning this process to one CPU is what selects the one-executor run.
void check_single_executor_parity(const TopoGraph& topo) {
#if defined(__linux__)
  const ExperimentResult spread = run_with(topo, Scheme::kBfc, 4);
  cpu_set_t saved;
  CHECK(sched_getaffinity(0, sizeof(saved), &saved) == 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  CHECK(sched_setaffinity(0, sizeof(one), &one) == 0);
  const ExperimentResult pinned = run_with(topo, Scheme::kBfc, 4);
  CHECK(sched_setaffinity(0, sizeof(saved), &saved) == 0);
  CHECK(spread.executors == std::min(4, ShardedSimulator::usable_cores()));
  CHECK(pinned.executors == 1);
  CHECK(pinned.helpers == 0);
  check_identical(pinned, spread);
  check_same_schedule(pinned, spread);
#else
  (void)topo;  // no affinity API: the one-executor layout is not forced
#endif
}

}  // namespace

int main() {
  // The rig assumes it owns the scheduling knobs.
  unsetenv("BFC_STEAL");
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  check_scheme(topo, Scheme::kBfc);
  // DCQCN exercises the per-node ECN-marking RNGs across protocols.
  check_scheme(topo, Scheme::kDcqcnWin);
  check_single_executor_parity(topo);
  return 0;
}
