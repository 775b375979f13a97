// Streaming-vs-materialized trace differential: the lazy per-shard
// ArrivalStream pullers must reproduce the generate_trace schedule
// exactly — same arrivals in the same order at any window size — and a
// streamed experiment must report bit-identical end-to-end stats, at
// every shard count, to that schedule materialized up front: every flow
// prepared with Network::prepare_flow on a bare 1-shard engine before the
// clock starts. This is the oracle that lets streaming be the only trace
// path: any divergence is a streaming bug by construction.
#include <vector>

#include "harness/experiment.hpp"
#include "workload/traffic_gen.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

TrafficConfig traffic(Time stop, std::uint64_t seed) {
  TrafficConfig t;
  t.dist = &SizeDist::by_name("google");
  t.load = 0.5;
  t.incast_load = 0.05;
  t.stop = stop;
  t.seed = seed;
  return t;
}

// Arrival-sequence identity: pull the stream window by window (including
// deliberately awkward window sizes — a prime stride, a window bigger
// than the whole trace) and compare against the materialized schedule
// element for element.
void check_trace_identity(const char* name, const TopoGraph& topo,
                          const TrafficConfig& cfg, Time window) {
  const std::vector<FlowArrival> materialized = generate_trace(topo, cfg);
  CHECK(!materialized.empty());
  ArrivalStream stream(topo, cfg);
  std::vector<FlowArrival> streamed;
  const auto sink = [&](const FlowArrival& a) { streamed.push_back(a); };
  for (Time b = 0; b < cfg.stop; b += window) {
    stream.advance(std::min(b + window, cfg.stop), sink);
  }
  CHECK(streamed.size() == materialized.size());
  Time prev = 0;
  for (std::size_t i = 0; i < materialized.size(); ++i) {
    CHECK(streamed[i].at == materialized[i].at);
    CHECK(streamed[i].key == materialized[i].key);
    CHECK(streamed[i].bytes == materialized[i].bytes);
    CHECK(streamed[i].uid == materialized[i].uid);
    CHECK(streamed[i].incast == materialized[i].incast);
    CHECK(streamed[i].at >= prev);  // start order, like the trace
    prev = streamed[i].at;
  }
  std::printf("trace identity ok: %s (%zu arrivals, window %.1f us)\n", name,
              materialized.size(), to_usec(window));
}

ExperimentConfig experiment(int shards) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic = traffic(microseconds(150), 7);
  cfg.drain = microseconds(450);
  cfg.shards = shards;
  cfg.gen_window = microseconds(20);  // several pump windows per run
  return cfg;
}

// The materialized reference for experiment(1): the whole trace prepared
// before the clock starts, the buffer series sampled by sim.at closures
// (tick-major, switch order — the harness's layout), and the compared
// stats read straight off the Network.
ExperimentResult run_materialized(const TopoGraph& topo) {
  const ExperimentConfig cfg = experiment(1);
  ShardedSimulator sim(topo, 1);
  Network net(sim, topo, cfg.scheme, cfg.overrides);
  for (const FlowArrival& a : generate_trace(topo, cfg.traffic)) {
    net.prepare_flow(a.key, a.bytes, a.uid, a.incast, a.at);
  }
  ExperimentResult r;
  const Time horizon = cfg.traffic.stop + cfg.drain;
  for (Time t = 0; t <= horizon; t += cfg.buffer_sample_period) {
    sim.at(t, [&r, &net] {
      for (const Switch* sw : net.switches()) {
        r.buffer_samples_mb.push_back(
            static_cast<double>(sw->buffer_used()) / 1e6);
      }
    });
  }
  sim.run_until(horizon);
  net.flow_stats().apply_tags();
  r.flows_started = net.flow_stats().started();
  r.flows_completed = net.flow_stats().completed();
  r.drops = net.switch_totals().drops;
  r.bfc = net.bfc_totals();
  r.collision_frac = net.collision_frac();
  r.bins = paper_size_bins();
  fill_slowdowns(net.flow_stats(), net.ideal_fct_fn(), r.bins);
  r.p99_slowdown = bin_percentiles(r.bins, 99);
  for (const Switch* sw : net.switches()) r.table_chunks += sw->table_chunks();
  for (const Nic* nic : net.nics()) {
    r.receiver_slots_hw += nic->receiver_slots_hw();
    r.nic_class_transitions += nic->flow_index().transitions();
  }
  return r;
}

// Simulation-level stats only: streaming adds its pump closures to the
// env entity, so engine event *counts* legitimately differ from the
// reference — what must not differ is anything the simulation computed.
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
  CHECK(a.nic_class_transitions == b.nic_class_transitions);
  CHECK(a.receiver_slots_hw == b.receiver_slots_hw);
  CHECK(a.table_chunks == b.table_chunks);
}

void check_experiment_identity(const char* name, const TopoGraph& topo) {
  const ExperimentResult oracle = run_materialized(topo);
  CHECK(oracle.flows_started > 0);
  CHECK(oracle.flows_completed > 0);
  for (const int shards : {1, 2, 4}) {
    const ExperimentResult streamed =
        run_experiment(topo, experiment(shards));
    CHECK(streamed.shards == shards);
    check_identical(oracle, streamed);
  }
  std::printf("experiment identity ok: %s (%llu flows, shards 1/2/4)\n", name,
              static_cast<unsigned long long>(oracle.flows_completed));
}

}  // namespace

int main() {
  const TopoGraph t1 = TopoGraph::fat_tree(FatTreeConfig::t1());
  const TopoGraph t3 = TopoGraph::three_tier(ThreeTierConfig::t3_1024());
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    const TrafficConfig cfg = traffic(microseconds(200), seed);
    check_trace_identity("t1_128", t1, cfg, microseconds(7));
    check_trace_identity("t1_128", t1, cfg, microseconds(1000));
    check_trace_identity("t3_1024", t3, cfg, microseconds(7));
    check_trace_identity("t3_1024", t3, cfg, microseconds(50));
  }
  check_experiment_identity("t1_128", t1);
  check_experiment_identity("t3_1024", t3);
  return 0;
}
