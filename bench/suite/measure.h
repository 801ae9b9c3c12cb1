// Order statistics and the metric record shared by the nbcp-bench driver
// and the layer ladder.
#ifndef NBCP_BENCH_SUITE_MEASURE_H_
#define NBCP_BENCH_SUITE_MEASURE_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/json.h"

namespace nbcp::bench {

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Adds {"name": {"value": value, "unit": unit}} to a metrics object.
inline void PutMetric(Json* metrics, const std::string& name, double value,
                      const std::string& unit) {
  Json m = Json::Object();
  m["value"] = Json(value);
  m["unit"] = Json(unit);
  (*metrics)[name] = m;
}

}  // namespace nbcp::bench

#endif  // NBCP_BENCH_SUITE_MEASURE_H_
