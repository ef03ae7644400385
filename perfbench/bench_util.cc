#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <numeric>

namespace perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]: log stays finite
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

std::vector<std::vector<std::uint32_t>> CorrelatedRankings(
    std::size_t users, std::size_t files, double noise, Rng& rng) {
  std::vector<std::uint32_t> global(files);
  std::iota(global.begin(), global.end(), 0u);
  for (std::size_t j = files; j > 1; --j) {
    std::swap(global[j - 1], global[rng.Next() % j]);
  }
  std::vector<std::vector<std::uint32_t>> out(users);
  std::vector<std::pair<double, std::uint32_t>> keyed(files);
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t r = 0; r < files; ++r) {
      keyed[r] = {static_cast<double>(r) +
                      noise * static_cast<double>(files) * rng.Normal(),
                  global[r]};
    }
    std::sort(keyed.begin(), keyed.end());
    out[u].resize(files);
    for (std::size_t r = 0; r < files; ++r) out[u][r] = keyed[r].second;
  }
  return out;
}

bool PercentileReportable(std::size_t samples, double q) {
  if (q == 0.5) return samples >= 1;
  if (samples < 40) return false;
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double WeightedQuantile(std::vector<std::pair<double, std::uint64_t>> values,
                        double q) {
  std::uint64_t total = 0;
  for (const auto& v : values) total += v.second;
  if (total == 0) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (const auto& v : values) {
    seen += v.second;
    if (static_cast<double>(seen) >= rank) return v.first;
  }
  return values.back().first;
}

double IsolationUtility(std::vector<double> prefs, double budget) {
  std::sort(prefs.begin(), prefs.end(), std::greater<>());
  double utility = 0.0;
  for (std::size_t j = 0; j < prefs.size() && budget > 0.0 && prefs[j] > 0.0;
       ++j) {
    const double take = std::min(1.0, budget);
    utility += take * prefs[j];
    budget -= take;
  }
  return utility;
}

KktResult CheckPfKkt(const std::vector<std::vector<double>>& prefs,
                     const std::vector<double>& alloc, double capacity,
                     double tolerance) {
  KktResult out;
  const std::size_t m = alloc.size();
  std::vector<double> density(m, 0.0);  // g_j
  for (const std::vector<double>& row : prefs) {
    double total = 0.0, u = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      total += row[j];
      u += row[j] * alloc[j];
    }
    if (total <= 0.0) continue;  // a user without demand has no log term
    if (u <= 0.0) {
      out.reason = "a user with demand has zero utility";
      return out;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (row[j] > 0.0) density[j] += row[j] / u;
    }
  }

  constexpr double kBound = 1e-9;
  double used = 0.0, max_density = 0.0;
  std::vector<double> interior;
  double zero_max = 0.0;  // largest density left uncached
  for (std::size_t j = 0; j < m; ++j) {
    if (alloc[j] < -kBound || alloc[j] > 1.0 + kBound) {
      out.reason = "allocation outside [0, 1]";
      return out;
    }
    used += alloc[j];
    max_density = std::max(max_density, density[j]);
    if (alloc[j] > kBound && alloc[j] < 1.0 - kBound) {
      interior.push_back(density[j]);
    } else if (alloc[j] <= kBound) {
      zero_max = std::max(zero_max, density[j]);
    }
  }
  if (used > capacity * (1.0 + 1e-9) + 1e-9) {
    out.reason = "capacity exceeded";
    return out;
  }
  const bool slack = used < capacity * (1.0 - 1e-9) - 1e-9;
  if (slack) {
    out.lambda = 0.0;
  } else if (!interior.empty()) {
    out.lambda = Quantile(interior, 0.5);
  } else {
    out.lambda = zero_max;
  }
  const double scale = out.lambda > 0.0 ? out.lambda : max_density;
  if (scale <= 0.0) {
    out.ok = true;  // no demand at all
    return out;
  }
  for (std::size_t j = 0; j < m; ++j) {
    double v = 0.0;
    if (alloc[j] <= kBound) {
      v = std::max(0.0, density[j] - out.lambda);
    } else if (alloc[j] >= 1.0 - kBound) {
      v = std::max(0.0, out.lambda - density[j]);
    } else {
      v = std::fabs(density[j] - out.lambda);
    }
    out.max_violation = std::max(out.max_violation, v / scale);
  }
  out.ok = out.max_violation <= tolerance;
  if (!out.ok) out.reason = "complementary slackness violated";
  return out;
}

double PeakRssMib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kib = 0.0;
      if (std::sscanf(line.c_str() + 6, "%lf", &kib) == 1) {
        return kib / 1024.0;
      }
    }
  }
  return -1.0;
}

}  // namespace perfbench
