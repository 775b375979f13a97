// Differential oracle for the channel-clock engine: every shard count
// must reproduce the 1-shard run bit for bit. The 1-shard run is the
// reference because run_until short-circuits S == 1 before any sync code
// (one wheel, no rings, clocks or stealing), so any divergence at S > 1
// is a channel-clock bug by construction.
//
// Also covers the execution-mode axis the protocol has to be insensitive
// to: cooperative (single-thread round-robin) vs threaded scheduling.
#include <cstdlib>

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
    CHECK(r.sync == "channel");
    CHECK(r.shards == shards);
    check_identical(oracle, r);
  }
}

// Cooperative round-robin and threaded workers drive the same clocks to
// the same fixed points; only wall-clock may differ.
void check_coop_threaded_parity(const TopoGraph& topo) {
  setenv("BFC_COOP", "1", 1);
  const ExperimentResult coop = run_with(topo, Scheme::kBfc, 4);
  setenv("BFC_COOP", "0", 1);
  const ExperimentResult threaded = run_with(topo, Scheme::kBfc, 4);
  unsetenv("BFC_COOP");
  check_identical(coop, threaded);
  check_same_schedule(coop, threaded);
}

}  // namespace

int main() {
  // The rig assumes it owns the scheduling knobs.
  unsetenv("BFC_COOP");
  unsetenv("BFC_STEAL");
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  check_scheme(topo, Scheme::kBfc);
  // DCQCN exercises the per-node ECN-marking RNGs across protocols.
  check_scheme(topo, Scheme::kDcqcnWin);
  check_coop_threaded_parity(topo);
  return 0;
}
