#include "core/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/topology.hpp"
#include "sim/env_knob.hpp"

namespace bfc {

namespace {

// splitmix64: the plan is a pure function of its seed.
std::uint64_t next_rand(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Upper bound of the BFC_FAULT_*_US knobs: 10^12 us (about 11.6 days of
// simulated time). In ns each is at most 10^15, so the plan's sums and
// spans (down + hold, hi - lo + 1) stay far inside Time.
constexpr long kMaxFaultUs = 1'000'000'000'000L;

// A BFC_FAULT_*_US knob in ns.
Time fault_env_us(const char* name, long fallback) {
  return microseconds(env_long(name, fallback, 0, kMaxFaultUs));
}

// Appends (t, state) to a per-link/per-node history, enforcing the
// no-overlap contract loudly — a plan whose flaps interleave would make
// link_up() ambiguous, which is a scripting bug, not a runtime condition.
void append_state(std::vector<std::pair<Time, bool>>& hist, Time t, bool up,
                  int a, int b) {
  if (!hist.empty() && t < hist.back().first) {
    std::fprintf(stderr,
                 "FaultPlan: overlapping/out-of-order flaps on link %d-%d "
                 "(t=%lld before t=%lld)\n",
                 a, b, static_cast<long long>(t),
                 static_cast<long long>(hist.back().first));
    std::abort();
  }
  hist.emplace_back(t, up);
}

bool state_at(const std::vector<std::pair<Time, bool>>& hist, Time t) {
  // Last transition with time <= t decides; none recorded yet -> up.
  auto it = std::upper_bound(
      hist.begin(), hist.end(), t,
      [](Time v, const std::pair<Time, bool>& e) { return v < e.first; });
  if (it == hist.begin()) return true;
  return std::prev(it)->second;
}

}  // namespace

std::uint64_t FaultPlan::link_key(int a, int b) {
  const std::uint32_t lo = static_cast<std::uint32_t>(a < b ? a : b);
  const std::uint32_t hi = static_cast<std::uint32_t>(a < b ? b : a);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

void FaultPlan::add_link_flap(int a, int b, Time down_at, Time up_at) {
  if (a == b || a < 0 || b < 0) {
    std::fprintf(stderr, "FaultPlan: bad link %d-%d\n", a, b);
    std::abort();
  }
  if (up_at >= 0 && up_at <= down_at) {
    std::fprintf(stderr,
                 "FaultPlan: link %d-%d up_at %lld <= down_at %lld\n", a, b,
                 static_cast<long long>(up_at),
                 static_cast<long long>(down_at));
    std::abort();
  }
  const int na = a < b ? a : b;
  const int nb = a < b ? b : a;
  auto& hist = links_[link_key(a, b)];
  append_state(hist, down_at, false, na, nb);
  transitions_.push_back({down_at, na, nb, false});
  if (up_at >= 0) {
    append_state(hist, up_at, true, na, nb);
    transitions_.push_back({up_at, na, nb, true});
  }
  std::sort(transitions_.begin(), transitions_.end(),
            [](const Transition& x, const Transition& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.node_a != y.node_a) return x.node_a < y.node_a;
              if (x.node_b != y.node_b) return x.node_b < y.node_b;
              return !x.up && y.up;
            });
}

void FaultPlan::add_node_failure(const TopoGraph& topo, int node, Time down_at,
                                 Time up_at) {
  auto& hist = nodes_[node];
  append_state(hist, down_at, false, node, node);
  if (up_at >= 0) append_state(hist, up_at, true, node, node);
  for (const PortInfo& port : topo.ports(node)) {
    add_link_flap(node, port.peer, down_at, up_at);
  }
}

FaultPlan FaultPlan::random_flaps(const TopoGraph& topo, int n_flaps, Time lo,
                                  Time hi, Time hold, std::uint64_t seed) {
  FaultPlan plan;
  if (n_flaps <= 0) return plan;
  // Candidate pool: every switch<->switch link, canonical a < peer so
  // each physical link appears once, in deterministic node/port order.
  std::vector<std::pair<int, int>> candidates;
  for (int node = 0; node < topo.num_nodes(); ++node) {
    if (topo.tier_of(node) == NodeTier::kHost) continue;
    for (const PortInfo& port : topo.ports(node)) {
      if (topo.tier_of(port.peer) == NodeTier::kHost) continue;
      if (node < port.peer) candidates.emplace_back(node, port.peer);
    }
  }
  if (hi < lo) hi = lo;
  if (hold < 1) hold = 1;
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 0xfa017ULL;
  for (int i = 0; i < n_flaps && !candidates.empty(); ++i) {
    const std::size_t pick = static_cast<std::size_t>(
        next_rand(state) % candidates.size());
    const auto [a, b] = candidates[pick];
    // Remove the picked link so flaps never overlap on one link.
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    const Time span = hi - lo + 1;
    const Time down_at =
        lo + static_cast<Time>(next_rand(state) %
                               static_cast<std::uint64_t>(span));
    plan.add_link_flap(a, b, down_at, down_at + hold);
  }
  return plan;
}

FaultPlan FaultPlan::from_env(const TopoGraph& topo, Time stop) {
  const long flaps = env_long("BFC_FAULT_FLAPS", 0, 0,
                              std::numeric_limits<int>::max());
  if (flaps <= 0) return FaultPlan{};
  const std::uint64_t seed = static_cast<std::uint64_t>(env_long(
      "BFC_FAULT_SEED", 1, 0, std::numeric_limits<long>::max()));
  const Time lo = fault_env_us(
      "BFC_FAULT_LO_US",
      to_usec(stop) > 4 ? static_cast<long>(to_usec(stop) / 4) : 1);
  const Time hi = fault_env_us(
      "BFC_FAULT_HI_US",
      to_usec(stop) > 2 ? static_cast<long>(3 * to_usec(stop) / 4) : 1);
  const Time hold = fault_env_us(
      "BFC_FAULT_HOLD_US",
      to_usec(stop) > 8 ? static_cast<long>(to_usec(stop) / 8) : 1);
  return random_flaps(topo, static_cast<int>(flaps), lo, hi, hold, seed);
}

bool FaultPlan::link_up(int a, int b, Time t) const {
  const auto it = links_.find(link_key(a, b));
  if (it == links_.end()) return true;
  return state_at(it->second, t);
}

bool FaultPlan::node_up(int node, Time t) const {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) return true;
  return state_at(it->second, t);
}

int FaultPlan::epoch_at(Time t) const {
  const auto it = std::upper_bound(
      transitions_.begin(), transitions_.end(), t,
      [](Time v, const Transition& tr) { return v < tr.at; });
  return static_cast<int>(it - transitions_.begin());
}

}  // namespace bfc
