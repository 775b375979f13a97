// The checkpoint/warm-start contract (core/snapshot.hpp), end to end:
//
//   * Exact continuation — pause a run mid-traffic, restore onto a fresh
//     engine at 1/2/4 shards, finish: every reported stat (flow records,
//     buffer series, event totals, per-shard event counts) is
//     bit-identical to a run that never paused at that shard count.
//   * Layout independence — save() at 1 shard and at 4 shards of the
//     same simulated moment produce identical bytes, and a restored run
//     re-saves to the identical image.
//   * Mid-storm checkpoints — pausing inside a link-flap storm preserves
//     the fault plane exactly (pending transition events ride the image).
//   * Versioned rejection — corrupted magic/version headers and
//     mismatched configurations are refused, never half-restored.
//   * Golden v2 images — the image bytes of five fixed runs match digests
//     recorded from the v2 codec, and restore then re-save reproduces
//     them, so a codec rewrite cannot drift the wire format without a
//     version bump.
//   * Reject, never crash — seeded byte mutants of a small image are either
//     refused with a diagnostic or restore and re-save cleanly.
//   * SweepServer — warm shard sweeps and batches match cold runs.
//   * Env knobs — a malformed or out-of-range BFC_RESIDENT, BFC_SHARDS or
//     engine knob aborts instead of picking a mode, and the
//     BFC_RESIDENT_JOBS default follows the affinity mask.
#include "core/snapshot.hpp"

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include "harness/experiment.hpp"
#include "harness/sweep_server.hpp"
#include "test_util.hpp"

using namespace bfc;

namespace {

ExperimentConfig base_config(int shards, bool storm, const TopoGraph& topo) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.5;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = microseconds(200);
  cfg.traffic.seed = 42;
  cfg.drain = microseconds(400);
  cfg.shards = shards;
  cfg.goodput_sample_period = microseconds(20);
  if (storm) {
    // Six flaps landing inside [40us, 160us] with a 30us hold: the
    // checkpoint below (at 100us) sits mid-storm, so some transitions
    // have fired (device counters nonzero) and some are still pending
    // events that must ride the image.
    cfg.faults = FaultPlan::random_flaps(topo, 6, microseconds(40),
                                         microseconds(160),
                                         microseconds(30), 7);
  }
  return cfg;
}

// Everything the harness reports that is a pure function of the
// simulation (wall_sec / events_stolen and friends legitimately vary).
void check_identical(const ExperimentResult& a, const ExperimentResult& b) {
  CHECK(a.flows_started == b.flows_started);
  CHECK(a.flows_completed == b.flows_completed);
  CHECK(a.drops == b.drops);
  CHECK(a.bfc.pauses == b.bfc.pauses);
  CHECK(a.bfc.resumes == b.bfc.resumes);
  CHECK(a.bfc.overflow_packets == b.bfc.overflow_packets);
  CHECK(a.collision_frac == b.collision_frac);
  CHECK(a.buffer_samples_mb == b.buffer_samples_mb);
  CHECK(a.goodput_bytes == b.goodput_bytes);
  CHECK(a.p99_slowdown == b.p99_slowdown);
  CHECK(a.bins.size() == b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    CHECK(a.bins[i].slowdowns == b.bins[i].slowdowns);
  }
  CHECK(a.blackholed == b.blackholed);
  CHECK(a.reroutes == b.reroutes);
  CHECK(a.unreachable_parks == b.unreachable_parks);
  CHECK(a.events_processed == b.events_processed);
  CHECK(a.egress_ports_hw == b.egress_ports_hw);
  CHECK(a.ingress_ports_hw == b.ingress_ports_hw);
  CHECK(a.reclaim_sweeps == b.reclaim_sweeps);
  CHECK(a.reclaimed_ports == b.reclaimed_ports);
  CHECK(a.table_chunks == b.table_chunks);
  CHECK(a.receiver_slots_hw == b.receiver_slots_hw);
  CHECK(a.nic_class_transitions == b.nic_class_transitions);
}

void check_continuation(const TopoGraph& topo, bool storm) {
  const Time pause_at = microseconds(100);

  // Take the checkpoint from a 1-shard run paused mid-traffic.
  ExperimentConfig warm_cfg = base_config(1, storm, topo);
  ExperimentRun warm(topo, warm_cfg);
  warm.run_to(pause_at);
  WarmCheckpoint cp = warm.checkpoint();
  CHECK(cp.at == pause_at);
  CHECK(!cp.image.empty());
  CHECK(Snapshot::saved_time(cp.image) == pause_at);

  for (const int shards : {1, 2, 4}) {
    const ExperimentConfig cfg = base_config(shards, storm, topo);
    const ExperimentResult cold = run_experiment(topo, cfg);
    CHECK(cold.flows_completed > 0);
    if (storm) CHECK(cold.blackholed + cold.reroutes > 0);

    std::string err;
    std::unique_ptr<ExperimentRun> run =
        ExperimentRun::restore(topo, cfg, cp, &err);
    if (run == nullptr) {
      std::fprintf(stderr, "restore(shards=%d) failed: %s\n", shards,
                   err.c_str());
      CHECK(run != nullptr);
    }
    const ExperimentResult thawed = run->collect();
    CHECK(thawed.shards == shards);
    check_identical(cold, thawed);
    // Per-shard totals too: the node-attributed counts plus the harness's
    // closure credit must rebuild exactly what an unbroken run reports.
    CHECK(cold.shard_events == thawed.shard_events);
  }
}

void check_layout_independence(const TopoGraph& topo) {
  const Time pause_at = microseconds(100);
  WarmCheckpoint cps[2];
  const int counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ExperimentRun run(topo, base_config(counts[i], /*storm=*/true, topo));
    run.run_to(pause_at);
    cps[i] = run.checkpoint();
  }
  // Same simulated moment, different save-side shard counts: the image is
  // a pure function of the logical simulation, so the bytes match.
  CHECK(cps[0].image == cps[1].image);
  CHECK(cps[0].buffer_prefix == cps[1].buffer_prefix);
  CHECK(cps[0].goodput_prefix == cps[1].goodput_prefix);

  // And restoring (onto 2 shards) then re-saving reproduces the image.
  const ExperimentConfig cfg = base_config(2, /*storm=*/true, topo);
  std::string err;
  std::unique_ptr<ExperimentRun> run =
      ExperimentRun::restore(topo, cfg, cps[0], &err);
  CHECK(run != nullptr);
  const WarmCheckpoint again = run->checkpoint();
  CHECK(again.at == pause_at);
  CHECK(again.image == cps[0].image);
}

void check_rejection(const TopoGraph& topo) {
  const Time pause_at = microseconds(100);
  ExperimentRun run(topo, base_config(1, /*storm=*/false, topo));
  run.run_to(pause_at);
  WarmCheckpoint cp = run.checkpoint();

  // Corrupt magic: not recognized as a snapshot at all.
  {
    WarmCheckpoint bad = cp;
    bad.image[0] ^= 0xFF;
    CHECK(Snapshot::saved_time(bad.image) == -1);
    std::string err;
    CHECK(ExperimentRun::restore(topo, base_config(2, false, topo), bad,
                                 &err) == nullptr);
    CHECK(!err.empty());
  }
  // Corrupt version (the u32 right after the 8-byte magic).
  {
    WarmCheckpoint bad = cp;
    bad.image[8] ^= 0xFF;
    CHECK(Snapshot::saved_time(bad.image) == -1);
    std::string err;
    CHECK(ExperimentRun::restore(topo, base_config(2, false, topo), bad,
                                 &err) == nullptr);
    CHECK(err.find("version") != std::string::npos);
  }
  // Truncated image: bounds-checked parse, clean failure.
  {
    WarmCheckpoint bad = cp;
    bad.image.resize(bad.image.size() / 2);
    std::string err;
    CHECK(ExperimentRun::restore(topo, base_config(2, false, topo), bad,
                                 &err) == nullptr);
  }
  // Configuration fingerprint: a different scheme must be refused.
  {
    ExperimentConfig other = base_config(2, /*storm=*/false, topo);
    other.scheme = Scheme::kDcqcnWin;
    std::string err;
    CHECK(ExperimentRun::restore(topo, other, cp, &err) == nullptr);
    CHECK(err.find("fingerprint") != std::string::npos);
  }
  // A well-formed *older*-version image (v1: serialized hop vectors, no
  // setup-space counters) must be refused outright — the v2 reader never
  // guesses at a v1 flow section. The header is 8 bytes of magic then a
  // little-endian u32 version, so rewriting that word forges a v1 image.
  {
    WarmCheckpoint bad = cp;
    bad.image[8] = 1;
    bad.image[9] = 0;
    bad.image[10] = 0;
    bad.image[11] = 0;
    CHECK(Snapshot::saved_time(bad.image) == -1);
    std::string err;
    CHECK(ExperimentRun::restore(topo, base_config(2, false, topo), bad,
                                 &err) == nullptr);
    CHECK(err.find("version") != std::string::npos);
  }
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Digests of v2 images (FNV-1a-64, plus the length) of the base config
// paused at 100us under five schemes. Together the rows cover link-state
// events (the storm), DCQCN CC fields, the pFabric SRPT map, the Ideal-FQ
// flow_q map and the NIC ack queue (acks_in_data). Any wire-format change
// must bump Snapshot::kVersion and re-record this table.
void check_golden_images(const TopoGraph& topo) {
  struct Golden {
    Scheme scheme;
    bool storm;
    bool acks_in_data;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Golden rows[] = {
      {Scheme::kBfc, true, false, 1876313, 0x100c349048453d3fULL},
      {Scheme::kDcqcnWin, false, false, 1780151, 0x088438cb16217960ULL},
      {Scheme::kPfabric, false, false, 1141358, 0xa8ec48ae7789b044ULL},
      {Scheme::kIdealFq, false, false, 1871254, 0x4f68155495072fcaULL},
      {Scheme::kTimely, false, true, 2008240, 0x8474004915c19508ULL},
  };
  for (const Golden& g : rows) {
    ExperimentConfig cfg = base_config(1, g.storm, topo);
    cfg.scheme = g.scheme;
    if (g.acks_in_data) cfg.overrides.acks_in_data = true;
    ExperimentRun run(topo, cfg);
    run.run_to(microseconds(100));
    const WarmCheckpoint cp = run.checkpoint();
    const std::uint64_t fnv = fnv1a64(cp.image);
    if (cp.image.size() != g.bytes || fnv != g.fnv) {
      std::fprintf(stderr, "golden image mismatch (scheme %d): %zu bytes, "
                   "fnv1a64 %016" PRIx64 "\n", static_cast<int>(g.scheme),
                   cp.image.size(), fnv);
    }
    CHECK(cp.image.size() == g.bytes);
    CHECK(fnv == g.fnv);
    // The Reader side of the same structures: restoring (onto 2 shards)
    // and re-saving reproduces the golden bytes.
    cfg.shards = 2;
    std::string err;
    std::unique_ptr<ExperimentRun> thawed =
        ExperimentRun::restore(topo, cfg, cp, &err);
    CHECK(thawed != nullptr);
    CHECK(thawed->checkpoint().image == cp.image);
  }
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Seeded mutants of a small T1 image: bit flips, 0xFF u32 words, large
// u64 counts and truncations. Each must be refused with a non-empty
// diagnostic, or restore and then checkpoint again without crashing (the
// ASan leg turns any out-of-bounds read or runaway allocation into a
// failure).
void check_mutants() {
  const TopoGraph topo = TopoGraph::fat_tree(FatTreeConfig::t1());
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.5;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = microseconds(2);
  cfg.traffic.seed = 42;
  cfg.shards = 1;
  ExperimentRun run(topo, cfg);
  run.run_to(microseconds(1));
  const WarmCheckpoint cp = run.checkpoint();
  CHECK(!cp.image.empty());

  std::uint64_t seed = 0x6d757461746f72ULL;
  int refused = 0;
  for (int i = 0; i < 1000; ++i) {
    WarmCheckpoint bad = cp;
    std::vector<std::uint8_t>& img = bad.image;
    const std::size_t at = splitmix64(seed) % (img.size() - 8);
    switch (i % 4) {
      case 0:
        img[at] ^= static_cast<std::uint8_t>(1u << (splitmix64(seed) % 8));
        break;
      case 1:
        std::fill_n(img.begin() + static_cast<std::ptrdiff_t>(at), 4, 0xFF);
        break;
      case 2: {
        const std::uint64_t big = std::uint64_t{1} << (31 + splitmix64(seed) % 32);
        for (int b = 0; b < 8; ++b) {
          img[at + static_cast<std::size_t>(b)] =
              static_cast<std::uint8_t>(big >> (8 * b));
        }
        break;
      }
      default:
        img.resize(at);
        break;
    }
    std::string err;
    std::unique_ptr<ExperimentRun> thawed =
        ExperimentRun::restore(topo, cfg, bad, &err);
    if (thawed == nullptr) {
      CHECK(!err.empty());
      ++refused;
      continue;
    }
    (void)thawed->checkpoint();
  }
  // Every truncation is refused at least (the trailer is gone).
  CHECK(refused >= 250);
}

// The 4096-host tier under the PR 7 memory diet: a checkpoint taken
// mid-traffic — flows mid-flight with packed route ids resolved, sender
// FIFOs threaded through Flow::elig_next, streamed generator replicas
// mid-window — still round-trips byte-identically across save-side shard
// counts, and a warm continuation matches its cold twin.
void check_t3_4096_scale_snapshot() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_4096());
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.3;
  cfg.traffic.incast_load = 0.02;
  cfg.traffic.stop = microseconds(25);
  cfg.traffic.seed = 11;
  cfg.drain = microseconds(115);
  const Time pause_at = microseconds(12);

  WarmCheckpoint cps[2];
  const int counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    cfg.shards = counts[i];
    ExperimentRun run(topo, cfg);
    run.run_to(pause_at);
    cps[i] = run.checkpoint();
  }
  CHECK(!cps[0].image.empty());
  CHECK(cps[0].image == cps[1].image);

  cfg.shards = 2;
  const ExperimentResult cold = run_experiment(topo, cfg);
  CHECK(cold.flows_completed > 0);
  std::string err;
  std::unique_ptr<ExperimentRun> run =
      ExperimentRun::restore(topo, cfg, cps[0], &err);
  if (run == nullptr) {
    std::fprintf(stderr, "t3_4096 restore failed: %s\n", err.c_str());
    CHECK(run != nullptr);
  }
  const ExperimentResult thawed = run->collect();
  check_identical(cold, thawed);
  CHECK(cold.shard_events == thawed.shard_events);
}

void check_sweep_server(const TopoGraph& topo) {
  // run_shard_sweep serves 1/2/4-shard rows from one warm prefix; each
  // row must match its cold twin.
  const ExperimentConfig base = base_config(0, /*storm=*/true, topo);
  const std::vector<ExperimentResult> rows =
      SweepServer::run_shard_sweep(topo, base, {1, 2, 4},
                                   microseconds(100));
  CHECK(rows.size() == 3);
  const int counts[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    ExperimentConfig cfg = base;
    cfg.shards = counts[i];
    const ExperimentResult cold = run_experiment(topo, cfg);
    CHECK(rows[static_cast<std::size_t>(i)].shards == counts[i]);
    check_identical(cold, rows[static_cast<std::size_t>(i)]);
    CHECK(cold.shard_events ==
          rows[static_cast<std::size_t>(i)].shard_events);
  }

  // run_batch: positional results, identical to serial cold runs.
  std::vector<ExperimentConfig> cfgs;
  cfgs.push_back(base_config(1, /*storm=*/false, topo));
  cfgs.push_back(base_config(1, /*storm=*/true, topo));
  const std::vector<ExperimentResult> batch =
      SweepServer::run_batch(topo, cfgs);
  CHECK(batch.size() == 2);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    check_identical(run_experiment(topo, cfgs[i]), batch[i]);
  }
}

// Env knobs (sim/env_knob.hpp) accept only unset, "" or a well-formed
// in-range value; anything else aborts with a message. BFC_RESIDENT and
// BFC_SHARDS cache their answer, so every value is read in its own forked
// child, which also builds a 2-shard engine to read the engine knobs.
void check_resident_env(const TopoGraph& topo) {
  struct Case {
    const char* knob;
    const char* value;  // null = unset
    int exit_code;      // -1 = must abort
  };
  const Case cases[] = {
      {"BFC_RESIDENT", nullptr, 0},     {"BFC_RESIDENT", "", 0},
      {"BFC_RESIDENT", "0", 0},         {"BFC_RESIDENT", "1", 1},
      {"BFC_RESIDENT", "false", -1},    {"BFC_RESIDENT", "true", -1},
      {"BFC_RESIDENT", "01", -1},       {"BFC_RESIDENT", "2", -1},
      {"BFC_INBOX_RING_CAP", "2", 0},   {"BFC_INBOX_RING_CAP", "1", -1},
      {"BFC_STEAL_THRESHOLD", "1", 0},  {"BFC_STEAL_THRESHOLD", "0", -1},
      {"BFC_SHARDS", "1", 0},           {"BFC_SHARDS", "0", -1},
      {"BFC_STEAL", "yes", -1}};
  for (const Case& c : cases) {
    const pid_t pid = fork();
    if (pid == 0) {
      if (c.value == nullptr) {
        unsetenv(c.knob);
      } else {
        setenv(c.knob, c.value, 1);
      }
      (void)default_shards();
      const ShardedSimulator sim(topo, 2);
      std::_Exit(SweepServer::resident_enabled() ? 1 : 0);
    }
    CHECK(pid > 0);
    int status = 0;
    CHECK(waitpid(pid, &status, 0) == pid);
    if (c.exit_code < 0) {
      CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
    } else {
      CHECK(WIFEXITED(status) && WEXITSTATUS(status) == c.exit_code);
    }
  }
#if defined(__linux__)
  // The BFC_RESIDENT_JOBS default follows the affinity mask, so a child
  // pinned to one CPU runs one batch worker; an explicit value still wins.
  struct JobsCase {
    const char* value;  // null = unset
    int jobs;
  };
  for (const JobsCase& c : {JobsCase{nullptr, 1}, JobsCase{"3", 3}}) {
    const pid_t pid = fork();
    if (pid == 0) {
      cpu_set_t mask;
      if (sched_getaffinity(0, sizeof(mask), &mask) != 0) std::_Exit(100);
      int first = 0;
      while (!CPU_ISSET(first, &mask)) ++first;
      CPU_ZERO(&mask);
      CPU_SET(first, &mask);
      if (sched_setaffinity(0, sizeof(mask), &mask) != 0) std::_Exit(101);
      if (c.value == nullptr) {
        unsetenv("BFC_RESIDENT_JOBS");
      } else {
        setenv("BFC_RESIDENT_JOBS", c.value, 1);
      }
      std::_Exit(SweepServer::jobs());
    }
    CHECK(pid > 0);
    int status = 0;
    CHECK(waitpid(pid, &status, 0) == pid);
    CHECK(WIFEXITED(status) && WEXITSTATUS(status) == c.jobs);
  }
#endif
}

}  // namespace

int main() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  check_resident_env(topo);
  check_continuation(topo, /*storm=*/false);
  check_continuation(topo, /*storm=*/true);
  check_layout_independence(topo);
  check_rejection(topo);
  check_golden_images(topo);
  check_mutants();
  check_sweep_server(topo);
  check_t3_4096_scale_snapshot();
  return 0;
}
