// Engine telemetry: a per-shard, allocation-free metrics registry plus
// the trace-span buffer behind the Perfetto exporter (obs/trace.hpp).
//
// Design contract (docs/ARCHITECTURE.md "Observability"): telemetry may
// observe the simulation but never steer it. Recording uses *sim time*
// only, storage is per-shard (a stolen batch writes into a batch-private
// ShardObs merged back by the owner in group order), and nothing here
// posts events, allocates per-sample, or touches entity sequence
// counters — so every reported simulation stat is bit-identical with
// telemetry on, off, or at any shard count. When telemetry is off the
// engine's hot loop pays one comparison against a never-reached epoch
// sentinel and one null pointer test; everything else is behind those.
//
// Counters, gauges, and histograms are fixed enum-indexed arrays, not a
// string-keyed map: registration is the enum, a sample is an array store,
// and the end-of-run merge is index-wise addition — deterministic by
// construction because addition over a fixed shard order is.
//
// Knobs (read once per engine instance, in Telemetry::from_env):
//   BFC_METRICS=1         counters/gauges/histograms + epoch sampling
//   BFC_TRACE=1           also buffer trace spans (implies BFC_METRICS)
//   BFC_FLIGHT=<N>        flight recorder: ring of last N executed
//                         events per shard (obs/flight_recorder.hpp)
//   BFC_METRICS_EPOCH=<ns> sim-time sampling period (default 10 us)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "sim/time.hpp"

namespace bfc::obs {

// Monotone event counts. All of these are *scheduling* telemetry — they
// vary legitimately with thread interleaving, shard count, and knobs,
// and must never enter a determinism comparison (same contract as
// ExperimentResult::events_stolen).
enum Counter {
  kClockWaits = 0,      // channel_step found no runnable work (span begins)
  kClockWaitNs,         // total sim-ns spent in those waits
  kClockAdvances,       // published channel clock strictly rose
  kRingFlushEvents,     // events moved overflow FIFO -> inbox ring
  kStealBatchesOffered, // batches posted to the steal board
  kStealBatchesStolen,  // batches run by a non-owning executor
  kEpochSamples,        // gauge/histogram sampling points taken
  // Fault plane (core/fault.hpp). Unlike the scheduling counters above,
  // these mirror deterministic device counters (NicStats/SwitchTotals)
  // into the telemetry timeline; the determinism rig still compares the
  // device-side values, never these.
  kFaultReroutes,       // send-path re-resolutions that changed the path
  kFaultParks,          // sends parked because no surviving path existed
  kCounterCount,
};

// Level signals sampled on sim-time epochs; each keeps its current value
// and a high-water mark (the number the memory-diet work actually needs).
enum Gauge {
  kWheelNear = 0,   // timing-wheel events inside the bucket horizon
  kWheelFar,        // timing-wheel events parked in the far heap
  kInboxOccupancy,  // undrained events across this shard's inbound rings
  kEventBlocks,     // EventPool blocks allocated (1024 events each)
  kArenaBlocks,     // packet+ack+cold arena blocks allocated
  kGaugeCount,
};

inline const char* gauge_name(int g) {
  static const char* kNames[kGaugeCount] = {
      "wheel_near", "wheel_far", "inbox_occupancy", "event_blocks",
      "arena_blocks"};
  return g >= 0 && g < kGaugeCount ? kNames[g] : "?";
}

// Fixed log2-bucket histograms (bucket i holds values in [2^(i-1), 2^i),
// bucket 0 holds zero): distribution of the sampled depths, so a spiky
// wheel and a steadily half-full one stop looking identical.
enum Histo {
  kWheelDepth = 0,
  kInboxDepth,
  kFaultRecovery,  // ns from a flow's first unreachable park to the
                   // successful re-resolve that unparked it
  kHistoCount,
};
constexpr int kHistoBuckets = 32;

struct GaugeCell {
  std::uint64_t cur = 0;
  std::uint64_t hw = 0;

  void set(std::uint64_t v) {
    cur = v;
    if (v > hw) hw = v;
  }
};

struct HistoCell {
  std::uint64_t bucket[kHistoBuckets] = {};

  static int bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    const int b = 64 - __builtin_clzll(v);
    return b < kHistoBuckets ? b : kHistoBuckets - 1;
  }
  void add(std::uint64_t v) { ++bucket[bucket_of(v)]; }
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (int i = 0; i < kHistoBuckets; ++i) n += bucket[i];
    return n;
  }
};

// One timeline interval for the Chrome-trace export. `a`/`b` are
// kind-specific small args (peer shard, executor, port, value...).
enum class SpanKind : std::uint8_t {
  kClockWait,    // a = blocking neighbor shard      b = wait ns
  kSteal,        // a = executor: shard index, or S+k for helper k
                 //                                  b = events run
  kReclaim,      // a = switch node                  b = ports freed
  kPause,        // a = switch node                  b = ingress port
  kGaugeSample,  // a = Gauge index                  b = sampled value
  kLinkDown,     // a = node                         b = port (outage span)
};

struct TraceSpan {
  Time t0 = 0;
  Time t1 = 0;
  SpanKind kind = SpanKind::kClockWait;
  std::int32_t a = 0;
  std::int64_t b = 0;
};

// One shard's (or one stolen batch's) telemetry sink. Written only by
// the thread currently executing that shard/batch; merged by the owner
// after the batch's release/acquire handoff, so there is never a
// concurrent writer pair.
struct ShardObs {
  std::uint64_t counters[kCounterCount] = {};
  GaugeCell gauges[kGaugeCount];
  HistoCell histos[kHistoCount];
  bool trace = false;  // buffer spans (BFC_TRACE)
  std::vector<TraceSpan> spans;

  // Open clock-wait bookkeeping (engine-private, not merged).
  bool waiting = false;
  Time wait_t0 = 0;
  int wait_peer = -1;

  void count(Counter c, std::uint64_t n = 1) { counters[c] += n; }
  void gauge_set(Gauge g, std::uint64_t v) { gauges[g].set(v); }
  void histo_add(Histo h, std::uint64_t v) { histos[h].add(v); }
  void span(SpanKind kind, Time t0, Time t1, std::int32_t a,
            std::int64_t b) {
    if (!trace) return;
    spans.push_back(TraceSpan{t0, t1, kind, a, b});
  }

  // Folds `o` into this sink and zeroes `o` for reuse (batch slots are
  // recycled across windows). Counter/histogram merge is addition and
  // gauge merge takes the max high-water; both are order-insensitive, so
  // the owner folding batches in group order is deterministic given
  // deterministic batch contents — and still well-defined telemetry when
  // contents are scheduling-dependent.
  void merge_from(ShardObs& o) {
    for (int i = 0; i < kCounterCount; ++i) {
      counters[i] += o.counters[i];
      o.counters[i] = 0;
    }
    for (int i = 0; i < kGaugeCount; ++i) {
      if (o.gauges[i].hw > gauges[i].hw) gauges[i].hw = o.gauges[i].hw;
      if (o.gauges[i].cur > gauges[i].cur) gauges[i].cur = o.gauges[i].cur;
      o.gauges[i] = GaugeCell{};
    }
    for (int h = 0; h < kHistoCount; ++h) {
      for (int i = 0; i < kHistoBuckets; ++i) {
        histos[h].bucket[i] += o.histos[h].bucket[i];
        o.histos[h].bucket[i] = 0;
      }
    }
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    o.spans.clear();
  }
};

// Per-engine telemetry root: owns one ShardObs and one FlightRing per
// shard. Created by ShardedSimulator's constructor from the environment
// (per instance, so tests flip the knobs in-process); null when every
// knob is off, which is what makes the hot-path checks branch-cheap.
class Telemetry {
 public:
  struct Config {
    bool metrics = false;     // BFC_METRICS (or implied by BFC_TRACE)
    bool trace = false;       // BFC_TRACE
    std::size_t flight = 0;   // BFC_FLIGHT ring capacity, 0 = off
    Time epoch = 0;           // BFC_METRICS_EPOCH sampling period
  };

  Telemetry(const Config& cfg, int n_shards);

  // Reads the knobs; returns null when telemetry is fully off.
  static std::unique_ptr<Telemetry> from_env(int n_shards);

  const Config& config() const { return cfg_; }
  int n_shards() const { return static_cast<int>(shards_.size()); }
  ShardObs& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const ShardObs& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }
  FlightRing& flight(int i) { return flights_[static_cast<std::size_t>(i)]; }
  const FlightRing& flight(int i) const {
    return flights_[static_cast<std::size_t>(i)];
  }
  bool flight_enabled() const { return cfg_.flight > 0; }

  // End-of-run rollup over shards in index order (counters/gauges/
  // histograms only; spans stay per-shard for the trace exporter).
  ShardObs merged() const;

 private:
  Config cfg_;
  std::vector<std::unique_ptr<ShardObs>> shards_;
  std::vector<FlightRing> flights_;
};

}  // namespace bfc::obs
