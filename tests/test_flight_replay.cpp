// Flight-recorder replay: with work stealing off, the per-shard stream
// of executed (at, key) pairs is itself a pure function of the run, so
// two identical runs must record bit-identical rings — which is what
// makes a dumped flight from a red fuzz case replayable: re-running the
// case reproduces the same stream up to the divergence point. Also
// round-trips the dump/load text format on real recorder output.
#include "harness/experiment.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/flight_recorder.hpp"
#include "test_util.hpp"

using namespace bfc;

namespace {

ExperimentResult run_one(const TopoGraph& topo, int shards) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.5;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = microseconds(150);
  cfg.traffic.seed = 7;
  cfg.drain = microseconds(300);
  cfg.shards = shards;
  return run_experiment(topo, cfg);
}

}  // namespace

int main() {
  // Pin the scheduling knob that could legitimately reorder execution:
  // stealing moves events to other executors, so the replay contract is
  // stated for the steal-off engine — the same configuration the fuzz rig
  // replays failures under. With stealing off each shard's stream is its
  // own serial loop, whatever the executor layout.
  setenv("BFC_FLIGHT", "256", 1);
  setenv("BFC_STEAL", "0", 1);
  unsetenv("BFC_METRICS");
  unsetenv("BFC_TRACE");

  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());

  const ExperimentResult a = run_one(topo, 4);
  const ExperimentResult b = run_one(topo, 4);
  CHECK(a.flows_completed > 0);
  CHECK(a.flight.size() == 4);
  CHECK(b.flight.size() == 4);
  std::size_t recorded = 0;
  for (int s = 0; s < 4; ++s) {
    CHECK(a.flight[static_cast<std::size_t>(s)] ==
          b.flight[static_cast<std::size_t>(s)]);
    recorded += a.flight[static_cast<std::size_t>(s)].size();
    // A full ring retains exactly the configured capacity.
    CHECK(a.flight[static_cast<std::size_t>(s)].size() <= 256);
  }
  CHECK(recorded > 0);

  // Dump and reload the real recorder output; the artifact must survive
  // the text round trip bit for bit (keys are full 64-bit values).
  const char* path = "test_flight_replay_dump.txt";
  CHECK(obs::dump_flight(path, a.flight));
  std::vector<std::vector<obs::FlightRec>> back;
  CHECK(obs::load_flight(path, &back));
  CHECK(back == a.flight);
  std::remove(path);

  // The recorder never perturbs the simulation: a different shard count
  // records different streams (different partitions), but the reported
  // stats must stay bit-identical.
  const ExperimentResult one = run_one(topo, 1);
  CHECK(one.flows_started == a.flows_started);
  CHECK(one.flows_completed == a.flows_completed);
  CHECK(one.drops == a.drops);
  CHECK(one.buffer_samples_mb == a.buffer_samples_mb);
  CHECK(one.p99_slowdown == a.p99_slowdown);

  unsetenv("BFC_FLIGHT");
  unsetenv("BFC_STEAL");
  std::printf("test_flight_replay: OK\n");
  return 0;
}
