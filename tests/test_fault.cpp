// The deterministic fault plane (core/fault.hpp): FaultPlan's pure
// queries (link/node liveness, route epochs), the scripted constructors
// (flaps, node failures, seeded storms, env), the HopVec overflow guard
// the masked resolver leans on, and the headline end-to-end property — a
// faulted run is bit-identical at every shard count, down to the fault
// counters and the goodput time series.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "harness/experiment.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

void hopvec_guard() {
  HopVec v;
  for (int i = 0; i < HopVec::kMaxHops; ++i) {
    CHECK(v.try_push(Hop{i, 0}));
  }
  CHECK(v.size() == static_cast<std::size_t>(HopVec::kMaxHops));
  CHECK(!v.try_push(Hop{99, 0}));
  CHECK(v.size() == static_cast<std::size_t>(HopVec::kMaxHops));
  // The unchecked push on a full vector must abort (fail loudly rather
  // than corrupt the owning Flow); observed from a forked child.
  const pid_t pid = fork();
  if (pid == 0) {
    HopVec w;
    for (int i = 0; i <= HopVec::kMaxHops; ++i) w.push_back(Hop{i, 0});
    std::_Exit(0);  // unreachable: the push past kMaxHops aborts
  }
  CHECK(pid > 0);
  int status = 0;
  CHECK(waitpid(pid, &status, 0) == pid);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
  std::printf("HopVec overflow guard ok\n");
}

void plan_queries() {
  FaultPlan p;
  p.add_link_flap(7, 3, microseconds(10), microseconds(20));
  // Canonical link order: both argument orders read the same history.
  CHECK(p.link_up(3, 7, microseconds(10) - 1));
  CHECK(!p.link_up(3, 7, microseconds(10)));  // transition at t applies
  CHECK(!p.link_up(7, 3, microseconds(15)));
  CHECK(!p.link_up(3, 7, microseconds(20) - 1));
  CHECK(p.link_up(3, 7, microseconds(20)));
  // Links with no scheduled faults are always up.
  CHECK(p.link_up(1, 2, 0) && p.link_up(1, 2, microseconds(15)));
  CHECK(p.epoch_at(0) == 0);
  CHECK(p.epoch_at(microseconds(10) - 1) == 0);
  CHECK(p.epoch_at(microseconds(10)) == 1);
  CHECK(p.epoch_at(microseconds(20)) == 2);
  // A permanent failure (up_at < 0) never comes back.
  p.add_link_flap(7, 3, microseconds(30), -1);
  CHECK(!p.link_up(3, 7, milliseconds(100)));
  CHECK(p.transitions().size() == 3);
  CHECK(p.epoch_at(milliseconds(100)) == 3);
  std::printf("FaultPlan link queries ok\n");
}

void node_failure() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  const int tor = topo.ports(topo.hosts()[0])[0].peer;
  FaultPlan p;
  p.add_node_failure(topo, tor, microseconds(5), microseconds(9));
  CHECK(p.node_up(tor, microseconds(5) - 1));
  CHECK(!p.node_up(tor, microseconds(5)));
  CHECK(!p.node_up(tor, microseconds(9) - 1));
  CHECK(p.node_up(tor, microseconds(9)));
  // Every attached link flaps with the node.
  for (const PortInfo& port : topo.ports(tor)) {
    CHECK(!p.link_up(tor, port.peer, microseconds(7)));
    CHECK(p.link_up(tor, port.peer, microseconds(9)));
  }
  CHECK(p.transitions().size() == 2 * topo.ports(tor).size());
  std::printf("FaultPlan node failure ok (%zu links)\n",
              topo.ports(tor).size());
}

void seeded_storms() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  const FaultPlan a = FaultPlan::random_flaps(
      topo, 3, microseconds(10), microseconds(50), microseconds(20), 99);
  const FaultPlan b = FaultPlan::random_flaps(
      topo, 3, microseconds(10), microseconds(50), microseconds(20), 99);
  CHECK(a.transitions().size() == 6);  // every flap comes back up
  CHECK(b.transitions().size() == a.transitions().size());
  for (std::size_t i = 0; i < a.transitions().size(); ++i) {
    const FaultPlan::Transition& x = a.transitions()[i];
    const FaultPlan::Transition& y = b.transitions()[i];
    CHECK(x.at == y.at && x.node_a == y.node_a && x.node_b == y.node_b &&
          x.up == y.up);
    // Fabric links only: a random storm never severs a host access link.
    CHECK(!topo.is_host(x.node_a) && !topo.is_host(x.node_b));
    CHECK(x.at >= microseconds(10));
    CHECK(x.at <= microseconds(50) + microseconds(20));
  }
  // A different seed is (overwhelmingly) a different storm.
  const FaultPlan c = FaultPlan::random_flaps(
      topo, 3, microseconds(10), microseconds(50), microseconds(20), 100);
  bool differs = false;
  for (std::size_t i = 0; i < c.transitions().size(); ++i) {
    const FaultPlan::Transition& x = a.transitions()[i];
    const FaultPlan::Transition& y = c.transitions()[i];
    if (x.at != y.at || x.node_a != y.node_a || x.node_b != y.node_b) {
      differs = true;
    }
  }
  CHECK(differs);
  std::printf("seeded storms deterministic ok\n");
}

void env_construction() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  CHECK(FaultPlan::from_env(topo, microseconds(100)).empty());
  setenv("BFC_FAULT_FLAPS", "2", 1);
  setenv("BFC_FAULT_SEED", "5", 1);
  const FaultPlan e1 = FaultPlan::from_env(topo, microseconds(100));
  const FaultPlan e2 = FaultPlan::from_env(topo, microseconds(100));
  CHECK(e1.transitions().size() == 4);
  for (std::size_t i = 0; i < e1.transitions().size(); ++i) {
    CHECK(e1.transitions()[i].at == e2.transitions()[i].at);
  }
  unsetenv("BFC_FAULT_FLAPS");
  unsetenv("BFC_FAULT_SEED");
  CHECK(FaultPlan::from_env(topo, microseconds(100)).empty());

  // Range contract, one forked child per row (over BFC_FAULT_FLAPS=1): a
  // value the plan would truncate or overflow in ns must abort, and the
  // largest accepted values must build a plan without overflowing Time
  // (UBSan builds trap on signed overflow).
  struct Case {
    std::vector<std::pair<const char*, const char*>> env;
    bool must_abort;
  };
  const char* max_us = "1000000000000";
  const Case cases[] = {
      {{{"BFC_FAULT_FLAPS", "4294967298"}}, true},
      {{{"BFC_FAULT_FLAPS", "2147483648"}}, true},
      {{{"BFC_FAULT_FLAPS", "-1"}}, true},
      {{{"BFC_FAULT_SEED", "-1"}}, true},
      {{{"BFC_FAULT_LO_US", "9223372036854775807"}}, true},
      {{{"BFC_FAULT_HI_US", "1000000000001"}}, true},
      {{{"BFC_FAULT_HOLD_US", "9223372036854775807"}}, true},
      {{{"BFC_FAULT_FLAPS", "2147483647"}}, false},
      {{{"BFC_FAULT_LO_US", max_us},
        {"BFC_FAULT_HI_US", max_us},
        {"BFC_FAULT_HOLD_US", max_us}},
       false},
      {{{"BFC_FAULT_LO_US", "0"},
        {"BFC_FAULT_HI_US", max_us},
        {"BFC_FAULT_HOLD_US", "0"}},
       false},
  };
  for (const Case& c : cases) {
    const pid_t pid = fork();
    if (pid == 0) {
      setenv("BFC_FAULT_FLAPS", "1", 1);
      for (const auto& [knob, value] : c.env) setenv(knob, value, 1);
      const FaultPlan p = FaultPlan::from_env(topo, microseconds(100));
      std::_Exit(p.empty() ? 1 : 0);
    }
    CHECK(pid > 0);
    int status = 0;
    CHECK(waitpid(pid, &status, 0) == pid);
    if (c.must_abort) {
      CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
    } else {
      CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
  }
  std::printf("env-driven plan ok\n");
}

// End to end: the same storm — two fabric flaps plus an access-link flap
// of a destination the trace provably sends to — must produce
// bit-identical results at 1, 2, and 4 shards, including the fault
// counters and the goodput series, and BFC must still complete every
// flow once the links return.
ExperimentResult run_faulted(const TopoGraph& topo, int shards) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.5;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = microseconds(300);
  cfg.traffic.seed = 42;
  cfg.drain = milliseconds(4);  // room for backoff-parked retries
  cfg.shards = shards;
  cfg.goodput_sample_period = microseconds(10);
  cfg.faults = FaultPlan::random_flaps(topo, 2, microseconds(100),
                                       microseconds(150), microseconds(60),
                                       11);
  int dst = -1;
  for (const FlowArrival& a : generate_trace(topo, cfg.traffic)) {
    if (!a.incast) {
      dst = static_cast<int>(a.key.dst);
      break;
    }
  }
  CHECK(dst >= 0);
  cfg.faults.add_link_flap(dst, topo.ports(dst)[0].peer, microseconds(150),
                           microseconds(200));
  return run_experiment(topo, cfg);
}

void check_identical(const ExperimentResult& a, const ExperimentResult& b) {
  CHECK(a.flows_started == b.flows_started);
  CHECK(a.flows_completed == b.flows_completed);
  CHECK(a.drops == b.drops);
  CHECK(a.bfc.pauses == b.bfc.pauses);
  CHECK(a.bfc.resumes == b.bfc.resumes);
  CHECK(a.blackholed == b.blackholed);
  CHECK(a.reroutes == b.reroutes);
  CHECK(a.unreachable_parks == b.unreachable_parks);
  CHECK(a.buffer_samples_mb == b.buffer_samples_mb);
  CHECK(a.goodput_bytes == b.goodput_bytes);
  CHECK(a.bins.size() == b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    CHECK(a.bins[i].slowdowns == b.bins[i].slowdowns);
  }
}

void faulted_run_determinism() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  const ExperimentResult one = run_faulted(topo, 1);
  CHECK(one.flows_started > 0);
  CHECK(one.flows_completed == one.flows_started);
  // The storm must actually bite: something blackholed, rerouted, or
  // parked — otherwise this test degrades into the fault-free one.
  CHECK(one.blackholed + one.reroutes + one.unreachable_parks > 0);
  CHECK(!one.goodput_bytes.empty());
  check_identical(one, run_faulted(topo, 2));
  check_identical(one, run_faulted(topo, 4));
  std::printf(
      "faulted run bit-identical at 1/2/4 shards (%llu flows, "
      "blackholed=%lld reroutes=%lld parks=%lld)\n",
      static_cast<unsigned long long>(one.flows_completed),
      static_cast<long long>(one.blackholed),
      static_cast<long long>(one.reroutes),
      static_cast<long long>(one.unreachable_parks));
}

}  // namespace

int main() {
  hopvec_guard();
  plan_queries();
  node_failure();
  seeded_storms();
  env_construction();
  faulted_run_determinism();
  return 0;
}
