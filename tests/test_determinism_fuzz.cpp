// Determinism fuzzing: every case derives a full configuration —
// topology tier, scheme, seed, load, run length, shard count, and the
// engine's scheduling knobs (work stealing, inbox ring capacity) — from a
// splitmix64 stream over the case index, runs it, and requires
// bit-identical stats against the 1-shard sequential reference. The axes
// deliberately include every knob that changes *scheduling* without being
// allowed to change *simulation*.
//
// Reproducing a failure needs only the case index printed on the line
// above it:
//   BFC_FUZZ_CASE=17 ./test_determinism_fuzz    # replay one case
//   BFC_FUZZ_CASES=8 ./test_determinism_fuzz    # CI smoke: first 8 cases
//
// Every run carries the flight recorder (BFC_FLIGHT=256): when a case's
// stats mismatch, the rig dumps both runs' per-shard rings of the last
// executed (at, key) pairs to fuzz_case<N>_flight_{ref,got}.txt *before*
// failing, so the red case ships a replayable divergence artifact (see
// obs/flight_recorder.hpp and tests/test_flight_replay.cpp).
#include <cstdio>
#include <cstdlib>

#include "core/fault.hpp"
#include "harness/experiment.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/env_knob.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

constexpr int kDefaultCases = 32;

// splitmix64: each call advances the per-case stream; the whole case is
// a pure function of its index.
std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct FuzzCase {
  int topo_kind = 0;  // 0 = three-tier small, 1 = fat tree, 2 = cross-DC
  Scheme scheme = Scheme::kBfc;
  std::uint64_t seed = 0;
  double load = 0.5;
  double incast_load = 0.0;
  Time stop = 0;
  int shards = 2;
  bool steal = false;
  int ring_cap = 0;  // 0 = default
  int flaps = 0;     // fault plane: random fabric link flaps (0 = none)
  std::uint64_t fault_seed = 0;
  // Snapshot dimension: additionally pause the case mid-run at 1 shard,
  // warm-start it at `shards` (core/snapshot.hpp), and hold the
  // continuation to the same reference.
  bool snap = false;
};

FuzzCase derive_case(int index) {
  std::uint64_t s = 0x5eedu + static_cast<std::uint64_t>(index);
  FuzzCase c;
  c.topo_kind = static_cast<int>(mix64(s) % 3);
  c.scheme = (mix64(s) & 1) != 0 ? Scheme::kDcqcnWin : Scheme::kBfc;
  c.seed = mix64(s) % 100000;
  c.load = 0.3 + 0.05 * static_cast<double>(mix64(s) % 9);     // 0.30..0.70
  c.incast_load = 0.02 * static_cast<double>(mix64(s) % 6);    // 0..0.10
  c.stop = microseconds(60 + static_cast<Time>(mix64(s) % 141));  // 60..200
  c.shards = 2 + static_cast<int>(mix64(s) % 7);               // 2..8
  c.steal = (mix64(s) & 1) != 0;
  (void)mix64(s);  // retired axis: drawn so every later axis keeps its seed
  const int caps[] = {0, 4, 64, 1024};
  c.ring_cap = caps[mix64(s) % 4];
  // Fault dimension, appended after the original axes so pre-fault cases
  // keep their exact historical derivation (replay indices stay
  // meaningful)...
  c.flaps = static_cast<int>(mix64(s) % 3);  // 0, 1, or 2 flaps
  c.fault_seed = mix64(s);
  // ...and the snapshot dimension appended last, same rule.
  c.snap = (mix64(s) & 1) != 0;
  return c;
}

TopoGraph build_topo(int kind) {
  switch (kind) {
    case 1: {
      FatTreeConfig ft;  // small two-tier: 4 ToRs x 4 hosts, 4 spines
      ft.n_tors = 4;
      ft.hosts_per_tor = 4;
      ft.n_spines = 4;
      return TopoGraph::fat_tree(ft);
    }
    case 2:
      // 200 us inter-DC link: the largest lookahead contrast the
      // channel-delay matrix ever sees (1 us fabric hops next to it).
      return TopoGraph::cross_dc(CrossDcConfig::paper());
    default:
      return TopoGraph::three_tier(ThreeTierConfig::t3_small());
  }
}

const char* topo_name(int kind) {
  return kind == 1 ? "fat_tree" : kind == 2 ? "cross_dc" : "t3_small";
}

ExperimentConfig case_config(const TopoGraph& topo, const FuzzCase& c,
                             int shards) {
  ExperimentConfig cfg;
  cfg.scheme = c.scheme;
  cfg.sync = SyncMode::kChannel;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = c.load;
  cfg.traffic.incast_load = c.incast_load;
  cfg.traffic.stop = c.stop;
  cfg.traffic.seed = c.seed;
  cfg.drain = microseconds(400);
  cfg.shards = shards;
  if (c.flaps > 0) {
    // A storm in the middle half of the run, held for stop/8: long
    // enough that re-resolution and blackholing demonstrably fire.
    cfg.faults = FaultPlan::random_flaps(topo, c.flaps, c.stop / 4,
                                         (c.stop * 3) / 4, c.stop / 8,
                                         c.fault_seed);
  }
  return cfg;
}

ExperimentResult run_case(const TopoGraph& topo, const FuzzCase& c,
                          int shards) {
  return run_experiment(topo, case_config(topo, c, shards));
}

// On a snapshot-leg mismatch the checkpoint image itself is the most
// valuable artifact (tests can replay the restore offline); CI uploads
// these alongside the flight dumps.
void dump_snapshot(const char* path, const std::vector<std::uint8_t>& img) {
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) return;
  std::fwrite(img.data(), 1, img.size(), f);
  std::fclose(f);
}

// Non-exiting precheck of the same stats check_identical asserts: the
// flight dump must happen before the first failing CHECK (which exits).
bool stats_equal(const ExperimentResult& a, const ExperimentResult& b) {
  return a.flows_started == b.flows_started &&
         a.flows_completed == b.flows_completed && a.drops == b.drops &&
         a.bfc.pauses == b.bfc.pauses && a.bfc.resumes == b.bfc.resumes &&
         a.bfc.overflow_packets == b.bfc.overflow_packets &&
         a.collision_frac == b.collision_frac &&
         a.blackholed == b.blackholed && a.reroutes == b.reroutes &&
         a.unreachable_parks == b.unreachable_parks &&
         a.buffer_samples_mb == b.buffer_samples_mb &&
         a.p99_slowdown == b.p99_slowdown;
}

void check_identical(const ExperimentResult& a, const ExperimentResult& b) {
  CHECK(a.flows_started == b.flows_started);
  CHECK(a.flows_completed == b.flows_completed);
  CHECK(a.drops == b.drops);
  CHECK(a.bfc.pauses == b.bfc.pauses);
  CHECK(a.bfc.resumes == b.bfc.resumes);
  CHECK(a.bfc.overflow_packets == b.bfc.overflow_packets);
  CHECK(a.collision_frac == b.collision_frac);
  CHECK(a.blackholed == b.blackholed);
  CHECK(a.reroutes == b.reroutes);
  CHECK(a.unreachable_parks == b.unreachable_parks);
  CHECK(a.buffer_samples_mb == b.buffer_samples_mb);
  CHECK(a.p99_slowdown == b.p99_slowdown);
  CHECK(a.bins.size() == b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    CHECK(a.bins[i].slowdowns == b.bins[i].slowdowns);
  }
  // events_processed is NOT compared: the harness's buffer-sampling
  // closures scale with the shard count, and the reference runs at 1.
}

void run_one(int index) {
  const FuzzCase c = derive_case(index);
  std::printf("case %d: topo=%s scheme=%s seed=%llu load=%.2f incast=%.2f "
              "stop=%lld shards=%d steal=%d ring_cap=%d flaps=%d snap=%d\n",
              index, topo_name(c.topo_kind), scheme_name(c.scheme),
              static_cast<unsigned long long>(c.seed), c.load, c.incast_load,
              static_cast<long long>(c.stop), c.shards,
              c.steal ? 1 : 0, c.ring_cap, c.flaps,
              c.snap ? 1 : 0);
  std::fflush(stdout);

  const TopoGraph topo = build_topo(c.topo_kind);

  // Reference: 1 shard, clean scheduling environment. The engine reads
  // every knob per instance at construction, so flipping env between the
  // two runs is safe in-process.
  setenv("BFC_STEAL", "0", 1);
  unsetenv("BFC_INBOX_RING_CAP");
  unsetenv("BFC_STEAL_THRESHOLD");
  const ExperimentResult ref = run_case(topo, c, 1);
  CHECK(ref.flows_started > 0);

  if (c.steal) {
    setenv("BFC_STEAL", "1", 1);
    // Threshold 1 makes every eligible window split — the point is
    // coverage of the steal machinery, not a realistic schedule.
    setenv("BFC_STEAL_THRESHOLD", "1", 1);
  }
  if (c.ring_cap > 0) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%d", c.ring_cap);
    setenv("BFC_INBOX_RING_CAP", buf, 1);
  }
  const ExperimentResult got = run_case(topo, c, c.shards);
  setenv("BFC_STEAL", "0", 1);
  unsetenv("BFC_INBOX_RING_CAP");
  unsetenv("BFC_STEAL_THRESHOLD");

  CHECK(got.shards == c.shards);
  if (!stats_equal(ref, got)) {
    char ref_path[64], got_path[64];
    std::snprintf(ref_path, sizeof ref_path, "fuzz_case%d_flight_ref.txt",
                  index);
    std::snprintf(got_path, sizeof got_path, "fuzz_case%d_flight_got.txt",
                  index);
    obs::dump_flight(ref_path, ref.flight);
    obs::dump_flight(got_path, got.flight);
    std::fprintf(stderr,
                 "case %d: stats mismatch; flight recorders dumped to %s / "
                 "%s (replay with BFC_FUZZ_CASE=%d)\n",
                 index, ref_path, got_path, index);
  }
  check_identical(ref, got);

  if (c.snap) {
    // Snapshot leg (scheduling env already reset to the reference's):
    // pause the 1-shard run halfway through the traffic, warm-start at
    // the case's shard count, and hold the continuation to the same
    // reference bits.
    ExperimentRun paused(topo, case_config(topo, c, 1));
    paused.run_to(c.stop / 2);
    const WarmCheckpoint cp = paused.checkpoint();
    std::string err;
    std::unique_ptr<ExperimentRun> thawed =
        ExperimentRun::restore(topo, case_config(topo, c, c.shards), cp,
                               &err);
    if (thawed == nullptr) {
      std::fprintf(stderr, "case %d: snapshot restore failed: %s\n", index,
                   err.c_str());
      CHECK(thawed != nullptr);
    }
    const ExperimentResult snap = thawed->collect();
    if (!stats_equal(ref, snap)) {
      char flight_path[64], snap_path[64];
      std::snprintf(flight_path, sizeof flight_path,
                    "fuzz_case%d_flight_snap.txt", index);
      std::snprintf(snap_path, sizeof snap_path,
                    "fuzz_case%d_snapshot.bin", index);
      obs::dump_flight(flight_path, snap.flight);
      dump_snapshot(snap_path, cp.image);
      std::fprintf(stderr,
                   "case %d: warm-started stats mismatch; flight dumped to "
                   "%s, offending checkpoint image to %s (replay with "
                   "BFC_FUZZ_CASE=%d)\n",
                   index, flight_path, snap_path, index);
    }
    check_identical(ref, snap);
  }
}

// The indexed cases draw their flap count randomly; this sweep always
// storms, so every full run proves at least one faulted configuration
// bit-identical across the 1/4/8-shard ladder.
void faulted_sweep() {
  FuzzCase c;
  c.topo_kind = 0;
  c.scheme = Scheme::kBfc;
  c.seed = 4242;
  c.load = 0.5;
  c.incast_load = 0.04;
  c.stop = microseconds(200);
  c.flaps = 3;
  c.fault_seed = 9001;
  const TopoGraph topo = build_topo(c.topo_kind);
  const ExperimentResult ref = run_case(topo, c, 1);
  CHECK(ref.flows_started > 0);
  // The storm must actually bite, or the sweep proves nothing.
  CHECK(ref.blackholed + ref.reroutes + ref.unreachable_parks > 0);
  check_identical(ref, run_case(topo, c, 4));
  check_identical(ref, run_case(topo, c, 8));
  std::printf("faulted sweep 1/4/8 shards bit-identical (blackholed=%lld "
              "reroutes=%lld parks=%lld)\n",
              static_cast<long long>(ref.blackholed),
              static_cast<long long>(ref.reroutes),
              static_cast<long long>(ref.unreachable_parks));
}

}  // namespace

int main() {
  // Arm the flight recorder for every case; it records scheduling-neutral
  // (at, key) pairs, so the determinism comparison itself doubles as a
  // continuous proof that recording never perturbs the simulation.
  setenv("BFC_FLIGHT", "256", 1);
  unsetenv("BFC_METRICS");
  unsetenv("BFC_TRACE");
  const long replay = env_long("BFC_FUZZ_CASE", -1, 0, 1L << 30);
  if (replay >= 0) {
    run_one(static_cast<int>(replay));
    std::printf("replayed case %ld: OK\n", replay);
    return 0;
  }
  const long n = env_long("BFC_FUZZ_CASES", kDefaultCases, 0, 1L << 30);
  for (int i = 0; i < n; ++i) run_one(i);
  faulted_sweep();
  std::printf("%ld cases: OK\n", n);
  return 0;
}
