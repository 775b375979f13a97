// Fig. 6: buffer occupancy CDF and % of time links were PFC-paused for the
// Fig. 5a experiment. BFC avoids pauses and keeps buffers low. Exits 1 when
// either claim fails: BFC pauses less than every DCQCN variant, and its
// p99 buffer occupancy is the lowest of all six schemes.
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/scheme.hpp"
#include "fig05_common.hpp"

using namespace bfc;

namespace {

const ExperimentResult& by_scheme(const std::vector<ExperimentResult>& rs,
                                  Scheme s) {
  const std::string name = scheme_name(s);
  for (const ExperimentResult& r : rs) {
    if (r.scheme == name) return r;
  }
  std::fprintf(stderr, "fig06: no %s row\n", name.c_str());
  std::abort();
}

// Fraction of link-time PFC-paused, worse of the two directions.
double pfc_frac(const ExperimentResult& r) {
  return std::max(r.pfc_frac_tor_to_spine, r.pfc_frac_spine_to_tor);
}

}  // namespace

int main() {
  bench::header("Fig. 6", "buffer occupancy + PFC pause time (Fig. 5a run)",
                "BFC lowest occupancy and ~zero PFC; DCQCN variants "
                "pause several % of the time; Ideal-FQ has high "
                "occupancy (infinite buffer) but no PFC");
  const std::vector<ExperimentResult> results =
      bench::run_fig5("google", 0.60, 0.05, /*print_fig6=*/true);
  const ExperimentResult& bfc = by_scheme(results, Scheme::kBfc);

  std::printf("\n");
  bool ok = true;
  for (const Scheme s :
       {Scheme::kDcqcn, Scheme::kDcqcnWin, Scheme::kDcqcnWinSfq}) {
    const ExperimentResult& r = by_scheme(results, s);
    char detail[96];
    std::snprintf(detail, sizeof detail, "BFC %.2f%% vs %s %.2f%%",
                  100 * pfc_frac(bfc), r.scheme.c_str(), 100 * pfc_frac(r));
    ok &= bench::claim("BFC PFC-paused < " + r.scheme,
                       pfc_frac(bfc) < pfc_frac(r), detail);
  }
  for (const ExperimentResult& r : results) {
    if (&r == &bfc) continue;
    char detail[96];
    std::snprintf(detail, sizeof detail, "BFC %.3f MB vs %s %.3f MB",
                  bfc.buffer_p99_mb, r.scheme.c_str(), r.buffer_p99_mb);
    ok &= bench::claim("BFC p99 buffer < " + r.scheme,
                       bfc.buffer_p99_mb < r.buffer_p99_mb, detail);
  }
  return ok ? 0 : 1;
}
