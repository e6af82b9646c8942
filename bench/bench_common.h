// Helpers shared by bench_driver and dynmis_loadgen: update-count scaling
// and the nearest-rank percentile.

#ifndef DYNMIS_BENCH_BENCH_COMMON_H_
#define DYNMIS_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

namespace dynmis {
namespace bench {

// The DYNMIS_BENCH_SCALE environment variable (default 1.0): a fractional
// multiplier on update counts, so the full suite can be made quicker or
// more thorough without recompiling (see bench/EXPERIMENTS.md).
inline double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("DYNMIS_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double parsed = std::atof(env);
    return parsed > 0 ? parsed : 1.0;
  }();
  return scale;
}

// Scales update counts by DYNMIS_BENCH_SCALE.
inline int ScaledUpdates(int base) {
  const int scaled = static_cast<int>(base * BenchScale());
  return scaled < 1 ? 1 : scaled;
}

// Update-batch sizes relative to a dataset's edge count. The paper uses
// absolute counts (100k / 1M) across graphs spanning 400k..3.4B edges; at
// stand-in scale the comparable regimes are a light batch (~10% of m, like
// Table II's mid-size graphs) and a heavy batch (~50% of m, the "number of
// updates is huge, even equals the number of vertices" scenario).
inline int SmallBatch(int64_t m) {
  return ScaledUpdates(static_cast<int>(m / 10));
}
inline int LargeBatch(int64_t m) {
  return ScaledUpdates(static_cast<int>(m / 2));
}

// Nearest-rank percentile over an ascending vector — the convention every
// bench/serving percentile in the JSON outputs follows. Rounds the rank up
// so small samples report the tail (with 2 samples the p99 is the max, not
// the min).
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace bench
}  // namespace dynmis

#endif  // DYNMIS_BENCH_BENCH_COMMON_H_
