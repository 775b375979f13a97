#include "harness/sweep_server.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "engine/sharded_sim.hpp"
#include "sim/env_knob.hpp"

namespace bfc {

bool SweepServer::resident_enabled() {
  static const bool on = env_switch("BFC_RESIDENT", false);
  return on;
}

int SweepServer::jobs() {
  static const int n = [] {
    const long def = std::clamp(ShardedSimulator::usable_cores(), 1, 8);
    return static_cast<int>(env_long("BFC_RESIDENT_JOBS", def, 1, 64));
  }();
  return n;
}

std::vector<ExperimentResult> SweepServer::run_batch(
    const TopoGraph& topo, const std::vector<ExperimentConfig>& cfgs) {
  std::vector<ExperimentResult> out(cfgs.size());
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs()), cfgs.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      out[i] = run_experiment(topo, cfgs[i]);
    }
    return out;
  }
  // Index-claiming pool: each point is an isolated (sim, net) pair over
  // the shared read-only topology, so points only race on the claim
  // counter. Slot writes are disjoint per index.
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cfgs.size()) return;
      out[i] = run_experiment(topo, cfgs[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& th : pool) th.join();
  return out;
}

std::vector<ExperimentResult> SweepServer::run_shard_sweep(
    const TopoGraph& topo, const ExperimentConfig& base,
    const std::vector<int>& shard_counts, Time checkpoint_at) {
  std::vector<ExperimentResult> out;
  out.reserve(shard_counts.size());

  ExperimentConfig warm_cfg = base;
  warm_cfg.shards = 1;
  ExperimentRun warm(topo, warm_cfg);
  if (checkpoint_at < 0) checkpoint_at = 0;
  if (checkpoint_at > warm.horizon()) checkpoint_at = warm.horizon();
  warm.run_to(checkpoint_at);
  const WarmCheckpoint cp = warm.checkpoint();

  bool warm_spent = false;
  for (const int s : shard_counts) {
    ExperimentConfig cfg = base;
    cfg.shards = s;
    if (s == 1 && !warm_spent) {
      // The warm run IS the 1-shard row: continue it to the horizon so
      // its wall_sec covers one full uninterrupted run.
      warm_spent = true;
      out.push_back(warm.collect());
      continue;
    }
    std::string err;
    std::unique_ptr<ExperimentRun> run =
        ExperimentRun::restore(topo, cfg, cp, &err);
    if (run == nullptr) {
      std::fprintf(stderr, "SweepServer: warm restore (shards=%d) failed: "
                           "%s; running the row cold\n", s, err.c_str());
      out.push_back(run_experiment(topo, cfg));
      continue;
    }
    out.push_back(run->collect());
  }
  return out;
}

}  // namespace bfc
