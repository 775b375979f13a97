// Shared helpers for the figure-reproduction benches.
//
// Every binary prints (a) the paper's expectation for the figure and (b) the
// measured series in the same shape, so EXPERIMENTS.md can be regenerated by
// running `for b in build/bench/*; do $b; done`.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "stats/percentile.hpp"
#include "workload/size_dist.hpp"

namespace bfc::bench {

inline void header(const char* fig, const char* what, const char* expect) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", fig, what);
  std::printf("paper expectation: %s\n", expect);
  std::printf("==============================================================\n");
}

inline void print_cdf_line(const char* label, const std::vector<double>& v) {
  std::printf("%-18s", label);
  for (double p : {25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    std::printf("  p%-5.1f=%8.2f", p, percentile(v, p));
  }
  std::printf("\n");
}

// Standard FCT-slowdown experiment on a fat tree with the paper's load mix.
inline ExperimentConfig standard_config(Scheme scheme,
                                        const std::string& workload,
                                        double load, double incast_load,
                                        Time stop, std::uint64_t seed = 42) {
  ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.traffic.dist = &SizeDist::by_name(workload);
  cfg.traffic.load = load;
  cfg.traffic.incast_load = incast_load;
  cfg.traffic.stop = stop;
  cfg.traffic.seed = seed;
  cfg.drain = milliseconds(2);
  return cfg;
}

// Checks one of the figure's paper claims: prints a PASS/FAIL line with
// the measured `detail` and returns `ok`, so main() can exit non-zero
// (and fail the smoke run) when the reproduction stops holding.
inline bool claim(const std::string& name, bool ok,
                  const std::string& detail) {
  std::printf("claim %s: %s (%s)\n", name.c_str(), ok ? "PASS" : "FAIL",
              detail.c_str());
  return ok;
}

// If BFC_CSV_DIR is set, writes the slowdown series of a figure there as
// `<name>.csv` (long format, see harness/report.hpp) for plotting.
inline void maybe_write_csv(const char* name,
                            const std::vector<ExperimentResult>& results) {
  const char* dir = std::getenv("BFC_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  write_slowdown_csv_file(path, results);
  std::printf("(csv -> %s)\n", path.c_str());
}

}  // namespace bfc::bench
