// Helpers of the end-to-end benchmark that are independent of the program
// under test: the schedule generator, percentile reporting, and the two
// correctness oracles (isolation utility and the PF KKT check). They take
// plain vectors, never the program's own types, so a fault in the program
// cannot leak into the oracle that checks it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64 stream: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform();  // [0, 1)
  double Normal();   // standard normal (Box-Muller)

 private:
  std::uint64_t state_;
};

// Zipf(alpha) over ranks 0..n-1 by inverse CDF: O(log n) per sample.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);
  std::size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Per-user file rankings correlated through a shared global order: user u
// ranks file j by global_rank(j) + noise * n_files * N(0, 1).
std::vector<std::vector<std::uint32_t>> CorrelatedRankings(
    std::size_t users, std::size_t files, double noise, Rng& rng);

// Percentile rule: the median needs one sample; any other percentile q
// needs at least 40 samples and at least 10 samples beyond it.
bool PercentileReportable(std::size_t samples, double q);

// Nearest-rank quantile of `values` (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);

// Nearest-rank quantile where each value counts `weight` times.
double WeightedQuantile(std::vector<std::pair<double, std::uint64_t>> values,
                        double q);

// Utility of a private cache of `budget` unit-size files, filled greedily
// by preference with the last file taken fractionally: the isolated
// baseline U-bar (a fractional knapsack).
double IsolationUtility(std::vector<double> prefs, double budget);

// KKT complementary-slackness check of a proportional-fair allocation over
// unit-size files
//   a* = argmax sum_i log U_i(a),  U_i = sum_j p_ij a_j,
//   0 <= a_j <= 1,  sum_j a_j <= capacity.
// With g_j = sum_i p_ij / U_i and multiplier lambda >= 0: interior files
// have g_j = lambda, files at 0 have g_j <= lambda, files at 1 have
// g_j >= lambda, and lambda > 0 only when capacity is exhausted.
// Violations are measured relative to lambda (or to max g when lambda = 0).
struct KktResult {
  bool ok = false;
  double lambda = 0.0;
  double max_violation = 0.0;
  std::string reason;
};
KktResult CheckPfKkt(const std::vector<std::vector<double>>& prefs,
                     const std::vector<double>& alloc, double capacity,
                     double tolerance);

// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
// Returns a negative value when it cannot be read.
double PeakRssMib(int pid);

}  // namespace perfbench
