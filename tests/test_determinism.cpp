// The sharded engine's headline guarantee: a run is a pure function of
// (topology, scheme, seed) — the shard count must not appear in any
// reported stat. Runs the same experiment at 1, 2, 4, and 8 shards on a
// 3-tier fabric and requires bit-identical flow records, buffer samples,
// and counters. (At 8 shards every core group rides its own shard, so
// the greedy partition's host-less groups cross the mailbox machinery
// too.)
#include "harness/experiment.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

ExperimentResult run_with_shards(const TopoGraph& topo, Scheme scheme,
                                 int shards) {
  ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.5;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = microseconds(300);
  cfg.traffic.seed = 42;
  cfg.drain = microseconds(600);
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
  // Buffer samples compare element-wise: same tick times, same per-switch
  // values, same (tick-major, switch-order) layout.
  CHECK(a.buffer_samples_mb == b.buffer_samples_mb);
  CHECK(a.p99_slowdown == b.p99_slowdown);
  CHECK(a.bins.size() == b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    CHECK(a.bins[i].slowdowns == b.bins[i].slowdowns);
  }
}

void check_scheme(const TopoGraph& topo, Scheme scheme) {
  const ExperimentResult one = run_with_shards(topo, scheme, 1);
  CHECK(one.flows_started > 0);
  CHECK(one.flows_completed > 0);
  // Re-running at 1 shard is trivially reproducible; 2, 4, and 8 shards
  // cross the channel-clock/lookahead machinery and must still match bit
  // for bit.
  check_identical(one, run_with_shards(topo, scheme, 1));
  const ExperimentResult two = run_with_shards(topo, scheme, 2);
  CHECK(two.shards == 2);
  check_identical(one, two);
  const ExperimentResult four = run_with_shards(topo, scheme, 4);
  CHECK(four.shards == 4);
  check_identical(one, four);
  const ExperimentResult eight = run_with_shards(topo, scheme, 8);
  CHECK(eight.shards == 8);
  check_identical(one, eight);
}

}  // namespace

int main() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  check_scheme(topo, Scheme::kBfc);
  // DCQCN exercises the per-node ECN-marking RNGs across shard counts.
  check_scheme(topo, Scheme::kDcqcnWin);
  return 0;
}
