// Tests of the benchmark's own helpers: the percentile rule, the
// fractional-knapsack isolation oracle on hand-computed cases, and the KKT
// checker against the program's PF solver. Exit code 0 = all passed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/opus.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAILED line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void PercentileRule() {
  using perfbench::PercentileReportable;
  EXPECT(!PercentileReportable(0, 0.5));
  EXPECT(PercentileReportable(1, 0.5));
  EXPECT(!PercentileReportable(39, 0.9));  // below 40: median only
  EXPECT(!PercentileReportable(40, 0.9));  // only 4 samples beyond p90
  EXPECT(!PercentileReportable(99, 0.9));
  EXPECT(PercentileReportable(100, 0.9));  // exactly 10 beyond
  EXPECT(!PercentileReportable(999, 0.99));
  EXPECT(PercentileReportable(1000, 0.99));
  EXPECT(PercentileReportable(400, 0.975));

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(Near(perfbench::Quantile(v, 0.5), 50.0));
  EXPECT(Near(perfbench::Quantile(v, 0.99), 99.0));
  EXPECT(Near(perfbench::Quantile(v, 1.0), 100.0));
  EXPECT(Near(perfbench::Quantile({}, 0.5), 0.0));
  // 3 events at 10us, 1 at 1000us: the median event waited 10us.
  EXPECT(Near(perfbench::WeightedQuantile({{1000.0, 1}, {10.0, 3}}, 0.5), 10.0));
  EXPECT(Near(perfbench::WeightedQuantile({{1000.0, 1}, {10.0, 3}}, 0.99), 1000.0));
}

void IsolationOracle() {
  using perfbench::IsolationUtility;
  const std::vector<double> p = {0.2, 0.5, 0.3};
  // Budget 1.5: all of file 1 (0.5), then half of file 2 (0.3).
  EXPECT(Near(IsolationUtility(p, 1.5), 0.5 + 0.5 * 0.3));
  // Budget 2.25: files 1 and 2, then a quarter of file 0.
  EXPECT(Near(IsolationUtility(p, 2.25), 0.5 + 0.3 + 0.25 * 0.2));
  EXPECT(Near(IsolationUtility(p, 0.0), 0.0));
  EXPECT(Near(IsolationUtility(p, 5.0), 1.0));
  // A budget beyond the files a user wants buys nothing more.
  EXPECT(Near(IsolationUtility({0.0, 1.0, 0.0}, 2.0), 1.0));
  // Five users share C = 2.5 units: each isolated cache is C/N = 0.5.
  EXPECT(Near(IsolationUtility({0.6, 0.4}, 2.5 / 5.0), 0.3));
}

void KktChecker() {
  // Three users over six files, capacity 2.5: the solver's a* must pass;
  // the same point with mass moved between two files must not.
  const std::vector<std::vector<double>> prefs = {
      {0.4, 0.3, 0.2, 0.1, 0.0, 0.0},
      {0.0, 0.1, 0.4, 0.2, 0.3, 0.0},
      {0.25, 0.0, 0.0, 0.25, 0.25, 0.25},
  };
  opus::Matrix m(prefs.size(), prefs[0].size());
  for (std::size_t i = 0; i < prefs.size(); ++i) {
    for (std::size_t j = 0; j < prefs[i].size(); ++j) m(i, j) = prefs[i][j];
  }
  const opus::CachingProblem problem = opus::CachingProblem::FromRaw(m, 2.5);
  opus::OpusDiagnostics diag;
  opus::OpusAllocator().AllocateWithDiagnostics(problem, &diag);
  const std::vector<double>& a = diag.pf_allocation;
  const perfbench::KktResult ok = perfbench::CheckPfKkt(prefs, a, 2.5, 1e-6);
  EXPECT(ok.ok);
  EXPECT(ok.lambda > 0.0);

  std::size_t lo = a.size(), hi = a.size();
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j] > 0.05 && lo == a.size()) {
      lo = j;
    } else if (a[j] < 0.95 && hi == a.size()) {
      hi = j;
    }
  }
  EXPECT(lo < a.size() && hi < a.size());
  if (lo < a.size() && hi < a.size()) {
    std::vector<double> moved = a;
    moved[lo] -= 0.05;
    moved[hi] += 0.05;
    EXPECT(!perfbench::CheckPfKkt(prefs, moved, 2.5, 1e-6).ok);
  }
  // Leaving capacity unused is never optimal with positive demand.
  std::vector<double> shrunk = a;
  for (double& x : shrunk) x *= 0.9;
  EXPECT(!perfbench::CheckPfKkt(prefs, shrunk, 2.5, 1e-6).ok);
  // Over capacity is rejected outright.
  std::vector<double> full(a.size(), 1.0);
  EXPECT(!perfbench::CheckPfKkt(prefs, full, 2.5, 1e-6).ok);
}

void Sampler() {
  // Same seed, same stream; Zipf rank 0 is the most frequent.
  perfbench::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT(a.Next() == b.Next());
  perfbench::ZipfSampler zipf(64, 1.1);
  std::vector<int> hits(64, 0);
  perfbench::Rng r(3);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.Sample(r)];
  EXPECT(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[63]);
  perfbench::Rng rr(5);
  const auto rankings = perfbench::CorrelatedRankings(4, 32, 0.3, rr);
  for (const auto& row : rankings) {
    std::vector<int> seen(32, 0);
    for (auto f : row) ++seen[f];
    for (int c : seen) EXPECT(c == 1);  // each ranking is a permutation
  }
}

}  // namespace

int main() {
  PercentileRule();
  IsolationOracle();
  KktChecker();
  Sampler();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
