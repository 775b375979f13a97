// Fig. 12: sensitivity to the number of physical queues per egress port.
// Fewer queues mean more collisions and worse tails; 32 is the knee. Exits
// 1 unless the collision fraction falls strictly with every doubling from
// 8 to 128 queues/port (so 128 is the lowest).
#include <cstdio>
#include <string>

#include "bench_util.hpp"

int main() {
  using namespace bfc;
  bench::header("Fig. 12", "collisions & p99 slowdown vs physical queues/port",
                "collisions fall orders of magnitude from 8 -> 128 queues; "
                "32 is the knee of the latency curve; 64+ ~ Ideal-FQ");
  const TopoGraph topo = TopoGraph::fat_tree(FatTreeConfig::t2());
  const Time stop = static_cast<Time>(microseconds(800) *
                                      bfc::bench_scale());
  std::vector<ExperimentResult> results;
  for (int nq : {8, 16, 32, 64, 128}) {
    ExperimentConfig cfg =
        bench::standard_config(Scheme::kBfc, "google", 0.60, 0.05, stop);
    cfg.overrides.n_queues = nq;
    ExperimentResult r = run_experiment(topo, cfg);
    std::printf("queues=%-4d collisions=%8.4f%%  p99buf=%6.2f MB\n", nq,
                100 * r.collision_frac, r.buffer_p99_mb);
    r.scheme = std::to_string(nq) + "q";
    results.push_back(std::move(r));
  }
  const std::size_t n_queue_rows = results.size();
  {
    ExperimentConfig cfg = bench::standard_config(Scheme::kIdealFq, "google",
                                                  0.60, 0.05, stop);
    results.push_back(run_experiment(topo, cfg));
  }
  std::printf("\np99 FCT slowdown by flow size:\n");
  print_slowdown_table(paper_size_bins(), results);

  std::printf("\n");
  bool ok = true;
  for (std::size_t i = 0; i + 1 < n_queue_rows; ++i) {
    const ExperimentResult& more = results[i + 1];
    const ExperimentResult& fewer = results[i];
    char detail[96];
    std::snprintf(detail, sizeof detail, "%s %.4f%% vs %s %.4f%%",
                  more.scheme.c_str(), 100 * more.collision_frac,
                  fewer.scheme.c_str(), 100 * fewer.collision_frac);
    ok &= bench::claim("collisions " + more.scheme + " < " + fewer.scheme,
                       more.collision_frac < fewer.collision_frac, detail);
  }
  return ok ? 0 : 1;
}
