// The resident sweep server: serve a batch of experiment points from one
// process instead of paying full setup (and, where configs allow, full
// warmup) per point.
//
// Two serving modes, both bit-identical to running each point cold:
//
//   * run_batch — independent points (different schemes/overrides share
//     nothing restorable) run as plain cold experiments, fanned out over
//     worker threads. Results land in input order, so recorded output is
//     byte-stable regardless of scheduling.
//
//   * run_shard_sweep — points that differ ONLY in engine shard count
//     replay the same logical simulation, so the server runs the common
//     prefix once, checkpoints it (core/snapshot.hpp), and warm-starts
//     every row from the image. The layout-independent snapshot contract
//     is what makes the restored rows bit-identical to cold runs at each
//     shard count.
//
// Benches opt in behind BFC_RESIDENT=1 and keep their cold paths; the CI
// warm-start gate (tools/perf_gate.py --compare) diffs the recorded rows
// of both legs.
#pragma once

#include <vector>

#include "harness/experiment.hpp"

namespace bfc {

class SweepServer {
 public:
  // True when BFC_RESIDENT=1 (unset, "" and "0" mean off; any other value
  // aborts): benches route their point batches through the resident
  // paths below.
  static bool resident_enabled();

  // Worker threads for run_batch: BFC_RESIDENT_JOBS, defaulting to the
  // usable cores (ShardedSimulator::usable_cores(), the affinity mask),
  // clamped to [1, 8] — the benches are memory-bound well before 8.
  static int jobs();

  // Runs each config as its own cold experiment on a small thread pool.
  // Results are positionally matched to `cfgs`. Points may themselves be
  // multi-shard; the engine threads nest fine, but keep BFC_RESIDENT_JOBS
  // low when they are.
  static std::vector<ExperimentResult> run_batch(
      const TopoGraph& topo, const std::vector<ExperimentConfig>& cfgs);

  // Warm shard sweep over `shard_counts`: runs `base` (at 1 shard) to
  // checkpoint_at (clamped to [0, horizon]), snapshots, then restores the
  // image per row at that row's shard count and finishes it. A row with
  // shard count 1 reuses the warm run itself, so its wall_sec reflects a
  // full uninterrupted run. Any restore failure falls back to a cold run
  // of that row (with a note on stderr), never to wrong results.
  static std::vector<ExperimentResult> run_shard_sweep(
      const TopoGraph& topo, const ExperimentConfig& base,
      const std::vector<int>& shard_counts, Time checkpoint_at);
};

}  // namespace bfc
