// Order statistics shared by the main program, the replay and the span summary.
#pragma once

#include <algorithm>
#include <vector>

namespace perfbench {

/// The @p q quantile of @p v, interpolating linearly between order
/// statistics (q = 0.5 is the median); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
