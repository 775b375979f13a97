#include "obs/metrics.hpp"

#include "sim/env_knob.hpp"

namespace bfc::obs {

Telemetry::Telemetry(const Config& cfg, int n_shards) : cfg_(cfg) {
  shards_.reserve(static_cast<std::size_t>(n_shards));
  flights_.resize(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    shards_.push_back(std::make_unique<ShardObs>());
    shards_.back()->trace = cfg_.trace;
    if (cfg_.flight > 0) flights_[static_cast<std::size_t>(s)].init(cfg_.flight);
  }
}

std::unique_ptr<Telemetry> Telemetry::from_env(int n_shards) {
  Config cfg;
  cfg.trace = env_switch("BFC_TRACE", false);
  // A trace without the registry would have spans but empty counter
  // tracks; trace implies metrics.
  cfg.metrics = env_switch("BFC_METRICS", false) || cfg.trace;
  cfg.flight = static_cast<std::size_t>(
      env_long("BFC_FLIGHT", 0, 0, 1 << 24));
  cfg.epoch = env_long("BFC_METRICS_EPOCH", microseconds(10), 1,
                       seconds(10));
  if (!cfg.metrics && cfg.flight == 0) return nullptr;
  return std::make_unique<Telemetry>(cfg, n_shards);
}

ShardObs Telemetry::merged() const {
  ShardObs m;
  for (int s = 0; s < n_shards(); ++s) {
    const ShardObs& o = shard(s);
    for (int i = 0; i < kCounterCount; ++i) m.counters[i] += o.counters[i];
    for (int i = 0; i < kGaugeCount; ++i) {
      if (o.gauges[i].hw > m.gauges[i].hw) m.gauges[i].hw = o.gauges[i].hw;
      if (o.gauges[i].cur > m.gauges[i].cur) {
        m.gauges[i].cur = o.gauges[i].cur;
      }
    }
    for (int h = 0; h < kHistoCount; ++h) {
      for (int i = 0; i < kHistoBuckets; ++i) {
        m.histos[h].bucket[i] += o.histos[h].bucket[i];
      }
    }
  }
  return m;
}

}  // namespace bfc::obs
