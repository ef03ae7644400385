#include "core/opus.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "common/check.h"
#include "common/mathutil.h"
#include "common/thread_pool.h"
#include "core/isolated.h"
#include "core/utility.h"
#include "solver/pf_solver.h"

namespace opus {
namespace {

using SteadyClock = std::chrono::steady_clock;

double WallMs(SteadyClock::time_point begin, SteadyClock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

double SizeOf(const std::vector<double>& sizes, std::size_t j) {
  return sizes.empty() ? 1.0 : sizes[j];
}

double WeightOf(std::span<const double> weights, std::size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

// Folds a discarded solve's work into the solve that replaced it, so the
// window's accounting covers both.
void AddSolveCost(const PfSolution& wasted, PfSolution* into) {
  into->iterations += wasted.iterations;
  into->projection_calls += wasted.projection_calls;
  into->projection_warm_hits += wasted.projection_warm_hits;
  into->projection_exact += wasted.projection_exact;
}

// Compact per-solve record for the leave-one-out loop: everything
// PfStats::Observe reads, nothing else. The old loop retained every
// leave-one-out PfSolution (allocation + utilities) until after the
// parallel region — O(N * (N + M)) doubles, which alone is terabytes at
// N = 10^6 — solely to fold the stats in index order. This keeps the
// deterministic in-order fold at O(1) memory per solve.
struct LooStats {
  int iterations = 0;
  std::uint64_t projection_calls = 0;
  std::uint64_t projection_warm_hits = 0;
  std::uint64_t projection_exact = 0;
  double residual = 0.0;
  bool solved = false;  // false = no solve ran (reused tax / empty cluster)
  bool warm_used = false;

  static LooStats From(const PfSolution& s) {
    LooStats out;
    out.iterations = s.iterations;
    out.projection_calls = s.projection_calls;
    out.projection_warm_hits = s.projection_warm_hits;
    out.projection_exact = s.projection_exact;
    out.residual = s.residual;
    out.solved = true;
    out.warm_used = s.warm_start_used;
    return out;
  }

  // Mirrors PfStats::Observe field for field.
  void FoldInto(PfStats* stats) const {
    if (!solved) return;
    ++stats->solves;
    stats->iterations += static_cast<std::uint64_t>(iterations);
    stats->projection_calls += projection_calls;
    stats->projection_warm_hits += projection_warm_hits;
    stats->projection_exact += projection_exact;
    stats->warm_started_solves += warm_used ? 1 : 0;
    stats->max_residual = std::max(stats->max_residual, residual);
  }
};

// Per-user L1 drift between the problem's rows and the warm state's,
// walking CSR nonzeros only. Each index writes its own slot, so the
// parallel run is byte-identical to the serial one.
std::vector<double> RowDriftsCsr(const CsrMatrix& now, const CsrMatrix& then,
                                 unsigned threads) {
  std::vector<double> drift(now.rows(), 0.0);
  ThreadPool::Shared().ParallelFor(
      now.rows(),
      [&](std::size_t i) { drift[i] = RowL1DistanceBetween(now, i, then, i); },
      threads == 0 ? 1 : threads);
  return drift;
}

// Warm-state problem key over the non-matrix inputs: O(N + M) hashing
// instead of retaining and comparing full copies of file sizes and weights.
std::uint64_t ProblemShapeKey(const CachingProblem& problem,
                              const std::vector<double>& priorities) {
  return HashDoubles(priorities, HashDoubles(problem.file_sizes));
}

// Zero files of `alloc`, ordered by the PF objective's gradient at `alloc`
// (descending, index tie-break): the order in which capacity freed by a
// restricted re-solve recruits them. `utilities` are the rows' utilities
// at `alloc`.
std::vector<std::size_t> RecruitOrder(const CsrMatrix& csr,
                                      std::span<const double> weights,
                                      const std::vector<double>& alloc,
                                      const std::vector<double>& utilities,
                                      const std::vector<char>& row_active) {
  std::vector<double> g(csr.cols(), 0.0);
  for (std::size_t i = 0; i < csr.rows(); ++i) {
    if (!row_active[i] || utilities[i] <= 0.0) continue;
    const double scale = WeightOf(weights, i) / utilities[i];
    const auto cols = csr.row_cols(i);
    const auto vals = csr.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      g[cols[k]] += scale * vals[k];
    }
  }
  std::vector<std::size_t> order;
  for (std::size_t j = 0; j < csr.cols(); ++j) {
    if (alloc[j] <= 0.0) order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (g[a] != g[b]) return g[a] > g[b];
    return a < b;  // deterministic tie-break
  });
  return order;
}

// Marks leading files of `order` not yet in the restriction until `budget`
// (size units) is used up.
void RecruitColumns(const std::vector<std::size_t>& order,
                    const std::vector<double>& sizes, double budget,
                    std::vector<char>* in_r, std::size_t* count) {
  for (std::size_t j : order) {
    if (budget <= 0.0) break;
    if ((*in_r)[j]) continue;
    (*in_r)[j] = 1;
    ++*count;
    budget -= SizeOf(sizes, j);
  }
}

// Solves the PF problem restricted to the columns marked in `in_r`
// (`count` of them), freezing every other column at `base`: frozen columns
// pin their capacity share and contribute to every user's utility through
// per-user offsets, so the restricted optimum composes with `base` into a
// candidate for the full problem. The returned solution is full-length and
// carries the FULL problem's KKT residual in `residual`; the caller
// applies its own acceptance gate. Shared by the restricted leave-one-out
// tax fast path and the delta-window star solve.
PfSolution SolveComposedRestricted(const CsrMatrix& csr,
                                   const CachingProblem& problem,
                                   const PfOptions& pf_options,
                                   std::span<const double> weights,
                                   const std::vector<double>& base,
                                   const std::vector<char>& in_r,
                                   std::size_t count) {
  const std::size_t m = csr.cols();
  const std::vector<double>& sizes = problem.file_sizes;

  PfSolution sol;
  if (count == 0) {
    // Nothing to re-optimize: the candidate is `base` itself.
    sol.allocation = base;
    CsrUtilities(csr, sol.allocation, sol.utilities);
    sol.warm_start_used = true;
  } else {
    std::vector<std::size_t> restricted;
    restricted.reserve(count);
    for (std::size_t j = 0; j < m; ++j) {
      if (in_r[j]) restricted.push_back(j);
    }
    const CsrMatrix sub = csr.ColumnSubset(restricted);

    // Frozen columns: capacity they pin and utility they contribute.
    double frozen_mass = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_r[j]) frozen_mass += SizeOf(sizes, j) * base[j];
    }
    const double sub_capacity = std::max(0.0, problem.capacity - frozen_mass);
    std::vector<double> offsets(csr.rows(), 0.0);
    for (std::size_t k = 0; k < csr.rows(); ++k) {
      const auto cols = csr.row_cols(k);
      const auto vals = csr.row_vals(k);
      double off = 0.0;
      for (std::size_t t = 0; t < cols.size(); ++t) {
        if (!in_r[cols[t]]) off += vals[t] * base[cols[t]];
      }
      offsets[k] = off;
    }

    std::vector<double> warm(restricted.size());
    std::vector<double> sub_sizes;
    if (!sizes.empty()) sub_sizes.resize(restricted.size());
    for (std::size_t r = 0; r < restricted.size(); ++r) {
      warm[r] = base[restricted[r]];
      if (!sizes.empty()) sub_sizes[r] = sizes[restricted[r]];
    }

    sol = SolveProportionalFairnessCsr(sub, sub_capacity, pf_options, weights,
                                       warm, sub_sizes, offsets);

    // Compose back to full length; restricted utilities already include the
    // frozen columns through the offsets, so they are the full utilities.
    std::vector<double> full_alloc = base;
    for (std::size_t r = 0; r < restricted.size(); ++r) {
      full_alloc[restricted[r]] = sol.allocation[r];
    }
    sol.allocation = std::move(full_alloc);
  }

  sol.residual = PfOptimalityResidualCsr(csr, problem.capacity,
                                         sol.allocation, weights, sizes);
  return sol;
}

// Delta star solve: re-optimizes only the columns drifted users touch
// (their old and new supports), the previous optimum's interior files (the
// water level moves there first), and a gradient-ordered recruit budget of
// zero files; everything else is frozen at the previous allocation. The
// composed point must pass the FULL problem's KKT residual gate, otherwise
// a warm full solve replaces it (`*fallbacks` counts those). Returns an
// empty solution when the restriction would cover most columns — the
// caller then runs the plain warm solve.
PfSolution DeltaStarSolve(const CsrMatrix& csr, const CachingProblem& problem,
                          const PfOptions& pf_options,
                          std::span<const double> weights,
                          const OpusWarmState& state,
                          const std::vector<double>& drift,
                          double drift_threshold,
                          const std::vector<char>& row_active,
                          double residual_gate, bool* composed,
                          std::uint64_t* fallbacks) {
  const std::size_t m = csr.cols();
  const std::vector<double>& sizes = problem.file_sizes;
  const std::vector<double>& a_prev = state.star_allocation;
  std::vector<char> in_r(m, 0);
  std::size_t count = 0;
  double freed = 0.0;
  auto add_col = [&](std::size_t j) {
    if (!in_r[j]) {
      freed += SizeOf(sizes, j) * a_prev[j];
      in_r[j] = 1;
      ++count;
    }
  };
  for (std::size_t i = 0; i < csr.rows(); ++i) {
    if (drift[i] <= drift_threshold) continue;
    for (std::uint32_t c : csr.row_cols(i)) add_col(c);
    // Old support from the warm state's CSR row (tombstoned entries are
    // explicit zeros and held nothing).
    const auto ocols = state.preferences.row_cols(i);
    const auto ovals = state.preferences.row_vals(i);
    for (std::size_t k = 0; k < ocols.size(); ++k) {
      if (ovals[k] > 0.0) add_col(ocols[k]);
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (a_prev[j] > 0.0 && a_prev[j] < 1.0 && !in_r[j]) {
      in_r[j] = 1;
      ++count;
    }
  }
  // Recruit zero files by the new problem's gradient at the previous
  // allocation, enough to absorb ~2x the capacity drifted users' files
  // hold — freed capacity must have somewhere to flow.
  if (freed > 0.0) {
    std::vector<double> u_prev(csr.rows(), 0.0);
    CsrUtilities(csr, a_prev, u_prev);
    RecruitColumns(RecruitOrder(csr, weights, a_prev, u_prev, row_active),
                   sizes, 2.0 * freed, &in_r, &count);
  }
  if (count * 4 >= m * 3) return PfSolution();

  PfSolution candidate = SolveComposedRestricted(csr, problem, pf_options,
                                                 weights, a_prev, in_r, count);
  if (candidate.residual < residual_gate) {
    candidate.converged = true;
    *composed = true;
    return candidate;
  }
  ++*fallbacks;
  PfSolution full = SolveProportionalFairnessCsr(
      csr, problem.capacity, pf_options, weights, candidate.allocation, sizes);
  AddSolveCost(candidate, &full);
  return full;
}

// Shared inputs of the restricted leave-one-out solves (all read-only once
// the parallel loop starts, so the solves stay bit-identical at any thread
// count): the star allocation's interior files (strictly inside (0,1)),
// and its zero files in recruit order.
struct RestrictedTaxContext {
  const CachingProblem* problem = nullptr;
  const CsrMatrix* csr = nullptr;
  const PfSolution* star = nullptr;
  PfOptions pf_options;
  std::vector<std::size_t> interior_files;
  std::vector<std::size_t> zero_order;
};

// Leave-one-out solve restricted to columns R = support(i) ∪ interior(a*)
// ∪ (leading zero files by gradient order, enough to absorb ~2x the
// capacity user i's support releases). Every other column is frozen at its
// star value via SolveComposedRestricted. Returns the composed full-length
// solution when the full-problem KKT residual confirms it; nullopt when
// the restriction was skipped (R too large) or missed tolerance
// (`attempt_cost` then carries the wasted work for accounting).
std::optional<PfSolution> RestrictedLeaveOneOut(
    const RestrictedTaxContext& ctx, std::size_t i,
    std::span<const double> loo_weights, bool* attempted,
    PfSolution* attempt_cost) {
  *attempted = false;
  const CsrMatrix& csr = *ctx.csr;
  const std::size_t m = csr.cols();
  const std::vector<double>& a_star = ctx.star->allocation;
  const std::vector<double>& sizes = ctx.problem->file_sizes;

  std::vector<char> in_r(m, 0);
  std::size_t count = 0;
  double freed = 0.0;  // capacity user i's support holds at a*
  for (std::uint32_t c : csr.row_cols(i)) {
    if (!in_r[c]) {
      in_r[c] = 1;
      ++count;
    }
    freed += SizeOf(sizes, c) * a_star[c];
  }
  for (std::size_t j : ctx.interior_files) {
    if (!in_r[j]) {
      in_r[j] = 1;
      ++count;
    }
  }
  // 2x slack so recruits are not capacity-starved.
  RecruitColumns(ctx.zero_order, sizes, 2.0 * freed, &in_r, &count);
  // A restriction covering most columns saves nothing over the full solve.
  if (count * 4 >= m * 3) return std::nullopt;

  *attempted = true;
  PfSolution sol = SolveComposedRestricted(csr, *ctx.problem, ctx.pf_options,
                                           loo_weights, a_star, in_r, count);
  if (!(sol.residual < ctx.pf_options.tolerance * 10.0)) {
    *attempt_cost = std::move(sol);
    return std::nullopt;
  }
  sol.converged = true;
  return sol;
}

}  // namespace

void OpusWarmState::Invalidate() {
  valid = false;
  preferences = CsrMatrix();
  capacity = 0.0;
  shape_key = 0;
  // swap-with-empty releases capacity immediately: the purge path must not
  // keep a dead million-user state's buffers resident.
  std::vector<double>().swap(star_allocation);
  std::vector<double>().swap(star_utilities);
  std::vector<double>().swap(taxes);
  std::vector<std::uint32_t>().swap(cluster_of);
  std::vector<std::uint32_t>().swap(leader_of);
  std::vector<double>().swap(cluster_weight);
  std::vector<double>().swap(cluster_taxes);
  std::vector<double>().swap(cluster_utilities);
  drift_fraction = 0.0;
  windows = 0;
  tombstoned_nnz_ = 0;
}

void OpusWarmState::ForgetUser(std::size_t user) {
  if (!valid || user >= preferences.rows()) return;
  tombstoned_nnz_ += preferences.ZeroRow(user);
  if (user < taxes.size()) taxes[user] = 0.0;
  if (user < star_utilities.size()) star_utilities[user] = 0.0;
  // Compact once tombstones hold a quarter of the stored entries (and are
  // worth the pass at all): mass dropuser churn returns the state to O(live
  // nnz) instead of leaving dead rows resident until the next full refresh.
  if (tombstoned_nnz_ >= 64 && tombstoned_nnz_ * 4 >= preferences.nnz()) {
    preferences.Compact();
    tombstoned_nnz_ = 0;
  }
}

std::size_t OpusWarmState::MemoryBytes() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return preferences.MemoryBytes() + bytes(star_allocation) +
         bytes(star_utilities) + bytes(taxes) + bytes(cluster_of) +
         bytes(leader_of) + bytes(cluster_weight) + bytes(cluster_taxes) +
         bytes(cluster_utilities);
}

AllocationResult OpusAllocator::Allocate(const CachingProblem& problem) const {
  return AllocateWithDiagnostics(problem, nullptr);
}

AllocationResult OpusAllocator::AllocateWithDiagnostics(
    const CachingProblem& problem, OpusDiagnostics* diag) const {
  return AllocateIncremental(problem, nullptr, diag);
}

// One pipeline serves every window:
//   drift -> granularity -> star -> unit taxes -> disaggregate -> Stage 2
//   -> state refresh -> diagnostics.
// Only the granularity phase differs between modes. It picks the "units"
// the mechanism prices: users themselves (identity granularity), or
// preference clusters solved on the aggregate problem (clustered
// granularity). Every later phase is written once over units.
AllocationResult OpusAllocator::AllocateIncremental(
    const CachingProblem& problem, OpusWarmState* state,
    OpusDiagnostics* diag) const {
  const auto t_begin = SteadyClock::now();
  const std::size_t n = problem.num_users();
  const std::size_t m = problem.num_files();
  const std::vector<double>& priorities = options_.user_weights;
  if (!priorities.empty()) {
    OPUS_CHECK_EQ(priorities.size(), n);
    for (double w : priorities) OPUS_CHECK_GT(w, 0.0);
  }
  const bool aggregation =
      (options_.aggregation.max_clusters > 0 ||
       options_.aggregation.auto_tune) &&
      !options_.use_dense_solver && n >= options_.aggregation.min_users &&
      n > 0 && m > 0;
  // A state left over from a clustered window meets a non-aggregating
  // configuration only after a policy/config change; start it cold rather
  // than seed a differently-configured mechanism. (The auto-tuner's
  // per-user windows keep aggregation configured and reuse the state.)
  if (!aggregation && state != nullptr && !state->cluster_of.empty()) {
    state->Invalidate();
  }

  PfOptions pf_options;
  pf_options.tolerance = options_.solver_tolerance;
  pf_options.max_iterations = options_.solver_max_iterations;
  pf_options.use_dense_reference = options_.use_dense_solver;

  // The production engine works off the problem's cached CSR view: the
  // matrix is validated and row sums are taken exactly once, shared by
  // every solve of the window.
  const CsrMatrix* csr =
      options_.use_dense_solver ? nullptr : &problem.PreferencesCsr();

  // Which users participate in the mechanism (non-empty preference row).
  std::vector<char> row_active(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    if (csr != nullptr) {
      row_sum = csr->row_sum(i);
    } else {
      for (double p : problem.preferences.row(i)) row_sum += p;
    }
    row_active[i] = row_sum > 0.0 ? 1 : 0;
  }

  // --- Drift ---------------------------------------------------------------
  // Warm state compatibility: the previous window's solve must describe the
  // same problem shape — dimensions, capacity, and the content hash of file
  // sizes and priority weights (O(N + M) to key instead of retaining and
  // comparing full copies). Anything else degrades to cold.
  const std::uint64_t shape_key = ProblemShapeKey(problem, priorities);
  const bool warm_ok =
      state != nullptr && state->valid && state->preferences.rows() == n &&
      state->preferences.cols() == m && state->capacity == problem.capacity &&
      state->shape_key == shape_key && state->star_allocation.size() == m &&
      state->star_utilities.size() == n && state->taxes.size() == n;

  // Per-user drift vs. the stored rows feeds delta composition and, when
  // aggregation is configured, the cluster auto-tuner and sticky
  // re-clustering. The tuner needs a threshold even when delta composition
  // is off; 0.05 on normalized rows is well under the clustering
  // similarity threshold. Auto-off then skips the reuse machinery for the
  // window when the drifted fraction says the bookkeeping (restricted
  // composition, reuse gates) would cost more than the few reusable taxes
  // save.
  const bool delta_configured = options_.delta.drift_threshold > 0.0;
  const double drift_threshold =
      delta_configured ? options_.delta.drift_threshold : 0.05;
  const bool measure_drift =
      warm_ok && csr != nullptr && (delta_configured || aggregation);
  const unsigned threads =
      options_.tax_threads > 1
          ? std::min<unsigned>(options_.tax_threads, static_cast<unsigned>(n))
          : 1;
  std::vector<double> drift;
  double drift_fraction = 0.0;
  if (measure_drift) {
    drift = RowDriftsCsr(*csr, state->preferences, threads);
    std::size_t mechanism = 0;
    std::size_t drifted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (row_active[i] || state->preferences.row_sum(i) > 0.0) ++mechanism;
      if (drift[i] > drift_threshold) ++drifted;
    }
    drift_fraction = mechanism == 0 ? 0.0
                                    : static_cast<double>(drifted) /
                                          static_cast<double>(mechanism);
  }
  const bool delta_auto_off =
      measure_drift && options_.delta.auto_off_drift_fraction < 1.0 &&
      drift_fraction >= options_.delta.auto_off_drift_fraction;
  const auto t_drift = SteadyClock::now();

  // --- Granularity -----------------------------------------------------------
  // Clustered when aggregation is configured and the tuner's budget is
  // positive (0 = drift crossed degrade_drift_fraction, cluster
  // approximations stop paying): sticky against the previous window when
  // auto-tuning and the warm clustering is compatible (and the budget did
  // not shrink under half the surviving cluster count — then a fresh
  // coarse clustering beats dragging a fine one along), a fresh greedy
  // pass otherwise. A clustering with no cluster (no non-empty row) or
  // only singletons IS the user-level mechanism and runs at identity.
  const std::size_t budget =
      aggregation ? ChooseClusterBudget(options_.aggregation, n,
                                        warm_ok ? drift_fraction : -1.0)
                  : 0;
  UserClustering clustering;
  std::vector<char> dirty;
  bool sticky = false;
  std::vector<double> members;  // [cluster] member count
  bool identity = true;
  if (budget > 0) {
    const std::size_t prev_k = warm_ok ? state->leader_of.size() : 0;
    bool leaders_valid = prev_k > 0 && state->cluster_of.size() == n &&
                         state->cluster_weight.size() == prev_k &&
                         state->cluster_taxes.size() == prev_k;
    for (std::size_t c = 0; leaders_valid && c < prev_k; ++c) {
      leaders_valid = state->leader_of[c] < n;
    }
    sticky = options_.aggregation.auto_tune && leaders_valid &&
             budget * 2 >= prev_k;
    if (sticky) {
      clustering = StickyReclusterByPreference(
          problem, options_.aggregation, priorities, state->cluster_of,
          state->leader_of, drift, drift_threshold, budget, &dirty);
    } else {
      AggregationOptions fresh = options_.aggregation;
      fresh.max_clusters = budget;
      clustering = ClusterUsersByPreference(problem, fresh, priorities);
    }
    members.assign(clustering.num_clusters, 0.0);
    for (const std::uint32_t c : clustering.cluster_of) {
      if (c != kUnclustered) members[c] += 1.0;
    }
    identity = std::all_of(members.begin(), members.end(),
                           [](double count) { return count == 1.0; });
  }
  // Units: users (identity; the unit problem is the caller's own) or
  // clusters (the K x M aggregate problem, unit weights = summed member
  // priorities).
  std::optional<CachingProblem> aggregate;
  if (!identity) aggregate = BuildAggregateProblem(problem, clustering);
  const CachingProblem& units = identity ? problem : *aggregate;
  const CsrMatrix* ucsr = identity ? csr : &aggregate->PreferencesCsr();
  const std::span<const double> unit_weights =
      identity ? std::span<const double>(priorities)
               : std::span<const double>(clustering.cluster_weight);
  const std::size_t k = identity ? n : clustering.num_clusters;
  std::vector<char> cluster_active;
  for (std::size_t c = 0; !identity && c < k; ++c) {
    cluster_active.push_back(ucsr->row_sum(c) > 0.0 ? 1 : 0);
  }
  const std::vector<char>& unit_active = identity ? row_active : cluster_active;
  auto unit_members = [&](std::size_t u) {
    return identity ? 1.0 : members[u];
  };
  // Tax reuse: per-user delta windows (rows that did not drift) at identity
  // granularity; sticky windows' untouched clusters at clustered
  // granularity.
  const bool delta_active = identity && measure_drift && delta_configured &&
                            !delta_auto_off;
  const bool reuse_active = identity ? delta_active
                                     : sticky && !delta_auto_off;
  auto unit_stale = [&](std::size_t u) {
    return identity ? drift[u] <= drift_threshold
                    : u < state->leader_of.size() && !dirty[u];
  };
  const auto t_cluster = SteadyClock::now();

  // --- Star: VCG_PF stage 1 ------------------------------------------------
  PfSolution star;
  bool star_composed = false;
  std::uint64_t delta_fallbacks = 0;
  if (delta_active) {
    star = DeltaStarSolve(*csr, problem, pf_options, priorities, *state, drift,
                          drift_threshold, row_active,
                          options_.delta.gate_slack * options_.solver_tolerance,
                          &star_composed, &delta_fallbacks);
  }
  if (star.allocation.empty()) {
    // Warm-started from the previous window's applied per-file allocation
    // (valid at any granularity: a* is per-file, not per-unit).
    const std::span<const double> star_warm =
        warm_ok ? std::span<const double>(state->star_allocation)
                : std::span<const double>();
    star = ucsr != nullptr
               ? SolveProportionalFairnessCsr(*ucsr, units.capacity,
                                              pf_options, unit_weights,
                                              star_warm, units.file_sizes)
               : SolveProportionalFairness(problem.preferences,
                                           problem.capacity, pf_options,
                                           priorities, star_warm,
                                           problem.file_sizes);
  }
  const auto t_star = SteadyClock::now();

  // --- Unit taxes ------------------------------------------------------------
  // Restricted leave-one-out fast path (identity only): the star
  // allocation's interior files, and its zero files ordered by the full
  // objective's gradient at a*. For files outside user i's support that
  // gradient equals the others' gradient exactly (user i contributes
  // nothing there), and support files are always in R, so one global order
  // serves all N solves.
  const bool restricted =
      identity && csr != nullptr && options_.restricted_tax_solves;
  RestrictedTaxContext ctx;
  if (restricted) {
    ctx.problem = &problem;
    ctx.csr = csr;
    ctx.star = &star;
    ctx.pf_options = pf_options;
    for (std::size_t j = 0; j < m; ++j) {
      if (star.allocation[j] > 0.0 && star.allocation[j] < 1.0) {
        ctx.interior_files.push_back(j);
      }
    }
    ctx.zero_order = RecruitOrder(*csr, priorities, star.allocation,
                                  star.utilities, row_active);
  }

  // Tax reuse gate: a stale unit whose support neighborhood of the
  // allocation barely moved has a leave-one-out problem unchanged up to the
  // drift tolerance — its previous tax is reused instead of re-solved. The
  // neighborhood signal is the UNSIGNED preference-weighted allocation move
  //   sum_j p_uj |a*new_j - a*old_j|,
  // not the net utility move: opposite-sign moves across a unit's support
  // cancel in the utility while still reshaping its leave-one-out
  // landscape (and hence its tax). Approximate by design; the per-window
  // FairnessAuditor re-checks the guarantees on the applied allocation.
  std::vector<char> reuse(k, 0);
  std::uint64_t reused_taxes = 0;
  if (reuse_active) {
    const std::vector<double>& a_prev = state->star_allocation;
    for (std::size_t u = 0; u < k; ++u) {
      if (!unit_stale(u)) continue;
      const auto cols = ucsr->row_cols(u);
      const auto vals = ucsr->row_vals(u);
      double moved = 0.0;
      for (std::size_t t = 0; t < cols.size(); ++t) {
        moved += vals[t] * std::fabs(star.allocation[cols[t]] -
                                     a_prev[cols[t]]);
      }
      if (moved > options_.delta.utility_rel_tolerance *
                      std::max(star.utilities[u], 1e-12)) {
        continue;
      }
      reuse[u] = 1;
      ++reused_taxes;
    }
  }
  const std::vector<double>* prev_unit_taxes =
      !reuse_active ? nullptr
      : identity    ? &state->taxes
                    : &state->cluster_taxes;

  // Virtual welfare at the star point, precomputed once: each active unit's
  // log term and their Kahan total, so welfare-at-star for any leave-one-
  // out weight is an O(1) adjustment instead of an O(K) re-sum per solve
  // (an O(N^2) term all by itself at million-user scale).
  std::vector<double> star_logs(k, 0.0);
  double star_log_total = 0.0;
  {
    std::vector<double> terms;
    terms.reserve(k);
    for (std::size_t u = 0; u < k; ++u) {
      if (!unit_active[u] || star.utilities[u] <= 0.0) continue;
      star_logs[u] = WeightOf(unit_weights, u) * std::log(star.utilities[u]);
      terms.push_back(star_logs[u]);
    }
    star_log_total = KahanSum(terms);
  }

  // Clarke pivot taxes via leave-one-member-out PF solves, warm-started
  // from a*: unit u's weight drops by one mean member weight, to
  // max(0, W_u - W_u / members_u), and the departing member is charged the
  // others' welfare gain. Removing a whole cluster would price the
  // coalition's externality (which grows with cluster size and over-taxes
  // every member ~members-fold); a singleton unit's weight drops to
  // exactly 0, which is the user-level leave-one-out solve. "Others"
  // includes the member's own cluster at its remaining weight.
  //
  // The solves are independent; with tax_threads > 1 they run through the
  // shared pool, each participating thread owning one pre-sized scratch
  // slab (weights + log buffer) via its ParallelForSlot slot id — no
  // per-index allocation. Results and per-solve stats land in
  // index-addressed slots and are folded in order below, so the outcome is
  // bit-identical to the serial run at any thread count.
  std::vector<double> unit_taxes(k, 0.0);
  std::vector<LooStats> loo_stats(k);
  std::vector<char> restricted_hit(k, 0);
  std::vector<char> restricted_fb(k, 0);
  struct TaxScratch {
    std::vector<double> weights;  // unit weights copy; [u] saved/restored
    std::vector<double> logs;     // welfare accumulation buffer
  };
  const unsigned tax_threads =
      options_.tax_threads > 1
          ? std::min<unsigned>(options_.tax_threads, static_cast<unsigned>(k))
          : 1;
  std::vector<TaxScratch> scratch(
      ThreadPool::Shared().SlotBound(k, tax_threads));
  auto tax_for = [&](std::size_t u, std::size_t slot) {
    if (unit_members(u) <= 0.0) return;  // emptied-out sticky cluster
    if (reuse[u]) {
      unit_taxes[u] = std::max(0.0, (*prev_unit_taxes)[u]);
      return;
    }
    TaxScratch& s = scratch[slot];
    if (s.weights.size() != k) {
      s.weights.assign(k, 1.0);
      std::copy(unit_weights.begin(), unit_weights.end(), s.weights.begin());
      s.logs.reserve(k);
    }
    std::vector<double>& weights = s.weights;
    const double saved = weights[u];
    const double loo_weight =
        std::max(0.0, saved - saved / unit_members(u));
    weights[u] = loo_weight;
    PfSolution without;
    if (ucsr != nullptr && !unit_active[u]) {
      // The unit never entered the objective, so the leave-one-out problem
      // *is* the star problem: reuse its solution at zero marginal cost.
      without.allocation = star.allocation;
      without.utilities = star.utilities;
      without.objective = star.objective;
      without.residual = star.residual;
      without.converged = star.converged;
    } else {
      bool attempted = false;
      std::optional<PfSolution> fast;
      PfSolution attempt_cost;
      if (restricted) {
        fast = RestrictedLeaveOneOut(ctx, u, weights, &attempted,
                                     &attempt_cost);
      }
      if (fast.has_value()) {
        without = std::move(*fast);
        restricted_hit[u] = 1;
      } else {
        if (attempted) restricted_fb[u] = 1;
        // Full solve, warm-started from the best available point: the
        // failed restricted composition when there is one, else a*.
        std::span<const double> warm =
            attempted ? std::span<const double>(attempt_cost.allocation)
                      : std::span<const double>(star.allocation);
        without =
            ucsr != nullptr
                ? SolveProportionalFairnessCsr(*ucsr, units.capacity,
                                               pf_options, weights, warm,
                                               units.file_sizes)
                : SolveProportionalFairness(problem.preferences,
                                            problem.capacity, pf_options,
                                            weights, warm,
                                            problem.file_sizes);
        if (attempted) AddSolveCost(attempt_cost, &without);
      }
    }

    s.logs.clear();
    for (std::size_t v = 0; v < k; ++v) {
      if (weights[v] <= 0.0 || !unit_active[v]) continue;
      // At a PF optimum with positive capacity every unit with a non-zero
      // preference row has strictly positive utility; utility can be zero
      // only in the degenerate capacity-0 / no-files instances, where it is
      // zero in both the full and the leave-one-out solution and cancels
      // out of the tax — skip symmetrically with the star-side terms.
      if (without.utilities[v] <= 0.0) continue;
      s.logs.push_back(weights[v] * std::log(without.utilities[v]));
    }
    weights[u] = saved;
    const double welfare_without = KahanSum(s.logs);
    double welfare_at_star = star_log_total - star_logs[u];
    if (loo_weight > 0.0 && star.utilities[u] > 0.0) {
      welfare_at_star += loo_weight * std::log(star.utilities[u]);
    }
    // The pivot tax is non-negative by optimality of the leave-one-out
    // solution; clamp away solver residual noise.
    unit_taxes[u] = std::max(0.0, welfare_without - welfare_at_star);
    loo_stats[u] = LooStats::From(without);
  };
  if (tax_threads <= 1) {
    for (std::size_t u = 0; u < k; ++u) tax_for(u, 0);
  } else {
    ThreadPool::Shared().ParallelForSlot(k, tax_for, tax_threads);
  }
  const auto t_tax = SteadyClock::now();
  PfStats solve_stats;
  solve_stats.Observe(star);
  for (std::size_t u = 0; u < k; ++u) {
    loo_stats[u].FoldInto(&solve_stats);
    solve_stats.restricted_solves += restricted_hit[u];
    solve_stats.restricted_fallbacks += restricted_fb[u];
  }

  // --- Disaggregate: unit taxes and utilities to users -----------------------
  // Identity units are the users. Clustered: the file allocation is shared
  // verbatim, users' utilities are re-evaluated on their own rows, and
  // member taxes scale with priority (T_i = member_tax_c * w_i / mean_w_c,
  // which DisaggregateTaxes produces from member_tax_c * members_c), so
  // every member of a cluster gets the same blocking probability.
  std::vector<double> taxes;
  std::vector<double> member_utilities;
  if (identity) {
    taxes = std::move(unit_taxes);
  } else {
    std::vector<double> scaled(k, 0.0);
    for (std::size_t c = 0; c < k; ++c) scaled[c] = unit_taxes[c] * members[c];
    DisaggregateTaxes(clustering, scaled, priorities, &taxes);
    member_utilities.assign(n, 0.0);
    CsrUtilities(*csr, star.allocation, member_utilities);
  }
  const std::vector<double>& utilities =
      identity ? star.utilities : member_utilities;
  std::vector<double> blocking(n, 0.0);
  std::vector<double> net(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // The tax lives in virtual-welfare units; user i's virtual utility is
    // w_i log U_i, so the utility share it keeps is exp(-T_i / w_i).
    blocking[i] = 1.0 - std::exp(-taxes[i] / WeightOf(priorities, i));
    net[i] = std::exp(-taxes[i] / WeightOf(priorities, i)) * utilities[i];
  }

  // --- Stage 2: PROVIDES_IG, always per user -------------------------------
  // Cluster-level stage 2 would only cover cluster aggregates: sharing is
  // kept only when every user's net utility covers its isolated baseline.
  const std::vector<double> isolated = IsolatedUtilities(problem, priorities);
  bool ig_holds = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (net[i] < isolated[i] - options_.ig_tolerance) {
      ig_holds = false;
      break;
    }
  }

  // --- State refresh -------------------------------------------------------
  // Even on an isolation fallback the PF solve and taxes are the right seed
  // for the next window's sharing attempt. The state always holds USER
  // rows and per-user artifacts (drift statistics and per-user windows
  // need them); clustered windows add the clustering and the cluster-level
  // artifacts that sticky re-clustering and cluster-tax reuse read. Rows
  // are stored as one CSR — never a dense N x M copy.
  if (state != nullptr) {
    state->preferences = csr != nullptr ? *csr : problem.PreferencesCsr();
    state->capacity = problem.capacity;
    state->shape_key = shape_key;
    state->star_allocation = star.allocation;
    state->star_utilities = utilities;
    state->taxes = taxes;
    if (identity) {
      state->cluster_of.clear();
      state->leader_of.clear();
      state->cluster_weight.clear();
      state->cluster_taxes.clear();
      state->cluster_utilities.clear();
    } else {
      state->cluster_of = clustering.cluster_of;
      state->leader_of = clustering.leader_of;
      state->cluster_weight = clustering.cluster_weight;
      state->cluster_taxes = unit_taxes;
      state->cluster_utilities = star.utilities;
    }
    state->drift_fraction = drift_fraction;
    state->windows = warm_ok ? state->windows + 1 : 1;
    state->valid = true;
    state->tombstoned_nnz_ = 0;
  }
  const auto t_fin = SteadyClock::now();

  // --- Diagnostics -----------------------------------------------------------
  if (diag != nullptr) {
    diag->pf_allocation = star.allocation;
    diag->pf_utilities = utilities;
    diag->taxes = taxes;
    diag->break_even_taxes.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (isolated[i] <= 0.0) {
        diag->break_even_taxes[i] = std::numeric_limits<double>::infinity();
      } else if (utilities[i] <= 0.0) {
        diag->break_even_taxes[i] = 0.0;
      } else {
        diag->break_even_taxes[i] = WeightOf(priorities, i) *
                                    std::log(utilities[i] / isolated[i]);
      }
    }
    diag->net_utilities = net;
    diag->isolated_utilities = isolated;
    diag->settled_on_sharing = ig_holds;
    diag->solver_iterations = static_cast<int>(solve_stats.iterations);
    diag->drift_wall_ms = WallMs(t_begin, t_drift);
    diag->cluster_wall_ms = WallMs(t_drift, t_cluster);
    diag->star_wall_ms = WallMs(t_cluster, t_star);
    diag->tax_wall_ms = WallMs(t_star, t_tax);
    diag->finalize_wall_ms = WallMs(t_tax, t_fin);
  }

  AllocationResult r;
  if (!ig_holds) {
    r = IsolatedAllocator(priorities).Allocate(problem);
  } else {
    r.file_alloc = star.allocation;
    r.taxes = std::move(taxes);
    r.blocking = std::move(blocking);
    for (std::size_t j = 0; j < m; ++j) {
      r.copy_footprint += r.file_alloc[j] * problem.FileSize(j);
    }
    if (problem.dense_backed()) {
      r.access = Matrix(n, m, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double keep = 1.0 - r.blocking[i];
        for (std::size_t j = 0; j < m; ++j) {
          r.access(i, j) = keep * r.file_alloc[j];
        }
      }
      r.reported_utilities = EvaluateUtilities(r, problem.preferences);
    } else {
      // Lean sparse output: the access matrix e_ij = (1 - f_i) a_j is
      // rank-1 and recoverable from blocking + file_alloc; materializing it
      // at N = 10^6 would dwarf every other allocation in the window.
      // Reported utilities are the nets (identical arithmetic to the dense
      // EvaluateUtilities contraction up to fp association).
      r.reported_utilities = std::move(net);
    }
  }
  r.policy = name();
  r.solver_iterations = solve_stats.iterations;
  r.solver_residual = solve_stats.max_residual;
  r.solver_solves = solve_stats.solves;
  r.solver_projections = solve_stats.projection_calls;
  r.solver_restricted_taxes = solve_stats.restricted_solves;
  r.solver_restricted_fallbacks = solve_stats.restricted_fallbacks;
  r.solver_nnz_ratio = ucsr != nullptr ? ucsr->NnzRatio() : 1.0;
  r.solver_warm_started = warm_ok;
  r.solver_delta_window = reuse_active;
  r.solver_delta_star_composed = star_composed;
  r.solver_delta_auto_off = delta_auto_off;
  r.solver_drift_fraction = drift_fraction;
  if (reuse_active) {
    r.solver_delta_resolved = static_cast<std::uint64_t>(k) - reused_taxes;
    r.solver_delta_reused = reused_taxes;
  }
  r.solver_delta_fallbacks = delta_fallbacks;
  r.solver_agg_clusters = clustering.num_clusters;
  return r;
}

}  // namespace opus
