// OpuS — Opportunistic Sharing for high efficiency (paper Sec. IV,
// Algorithm 1).
//
// Stage 1 (VCG_PF): compute the proportional-fair allocation
//   a* = argmax sum_i log U_i(a)   s.t. 0 <= a_j <= 1, sum_j a_j <= C,
// then charge each user the Clarke pivot tax in virtual (log) utility:
//   T_i = sum_{k!=i} V_k(a*_{-i}) - sum_{k!=i} V_k(a*),
// where a*_{-i} is the PF allocation with user i removed. The tax is
// realized by blocking user i's in-memory accesses with probability
//   f_i = 1 - exp(-T_i),
// so the net utility is exp(-T_i) * U_i(a*).
//
// Stage 2 (PROVIDES_IG): if any user is charged beyond its break-even tax
//   T-bar_i = log(U_i(a*) / U-bar_i)
// (equivalently, its net utility falls below its isolated utility), the
// sharing attempt fails and the allocation reduces to isolated caches.
#pragma once

#include <cstdint>

#include "core/aggregation.h"
#include "core/allocator.h"

namespace opus {

// Incremental allocation windows (delta solves). When an OpusWarmState is
// supplied, every window's PF solves warm-start from the previous window's
// applied allocation; with drift_threshold > 0 the allocator additionally
// re-solves *only* users whose preference rows moved, composing everything
// else from the warm state:
//  - the star solve restricts to the columns drifted users touch (plus the
//    previous optimum's interior files and a gradient-ordered recruit
//    budget), freezes the rest at the previous allocation via
//    utility_offsets, and validates the composed point against the FULL
//    problem's KKT residual — automatic warm full-solve fallback when the
//    gate misses (the exact pattern of the restricted leave-one-out tax
//    fast path);
//  - leave-one-out taxes of users whose row did not drift and whose star
//    utility barely moved are reused from the previous window (their
//    leave-one-out problem is unchanged up to the drift tolerance).
// The reused taxes are approximate by design; the per-window
// FairnessAuditor re-verifies isolation/break-even/envy on the applied
// allocation, and the residual gate keeps the allocation itself exact.
struct OpusDeltaOptions {
  // Per-user L1 preference drift (normalized rows, so in [0, 2]) beyond
  // which the user counts as drifted. 0 disables delta composition: every
  // window re-solves all users (still warm-started when a state exists).
  double drift_threshold = 0.0;
  // A stale user's tax is reused only if the allocation moved — summed
  // UNSIGNED over its preference row, sum_j p_ij |da_j| — by less than
  // this fraction of its star utility; larger neighborhood moves mean the
  // optimum shifted under the user and its leave-one-out solve is re-run.
  // (The unsigned move dominates the net utility move, so a reused user's
  // utility is stable too.)
  double utility_rel_tolerance = 0.01;
  // Residual gate: a composed delta allocation is accepted when the full
  // problem's KKT residual is below gate_slack * solver_tolerance.
  double gate_slack = 10.0;
  // Auto-off: when the drifted-user fraction of a window reaches this, the
  // delta machinery (restricted star composition, per-user reuse gates) is
  // skipped for the window — the bookkeeping costs more than the few
  // reusable taxes save, and the window runs as a plain warm solve. 1.0
  // (the default) never auto-disables; the daemon flag --delta-auto-off
  // sets it.
  double auto_off_drift_fraction = 1.0;
};

// Cross-window solver state owned by the control loop (OpusMaster). The
// allocator both consumes and refreshes it on every AllocateIncremental
// call; Invalidate() forces the next window cold (policy swap, capacity
// reconfig) and releases the stored rows.
//
// Storage is memory-lean by construction: preference rows live as one CSR
// (never a dense N x M copy — warm state for 10^6 users at 0.1% density is
// hundreds of MB, not TB), per-user artifacts are flat N-vectors, and the
// problem key is dimensions + capacity + an O(M + N) content hash of file
// sizes and priority weights instead of retained full copies. Every window
// stores user-granularity rows/taxes (the disaggregated ones after a
// clustered window); clustered windows add the clustering and the
// cluster-level artifacts, so drift statistics, sticky re-clustering, and
// cluster-tax reuse all work across windows.
struct OpusWarmState {
  bool valid = false;
  CsrMatrix preferences;  // normalized USER rows of the problem last solved
  double capacity = 0.0;
  std::uint64_t shape_key = 0;  // HashDoubles(file_sizes) ^mixed weights
  std::vector<double> star_allocation;   // previous applied a* (length M)
  std::vector<double> star_utilities;    // per-user U_i(a*)
  std::vector<double> taxes;             // per-user Clarke taxes
  // Clustered-window artifacts (empty after an identity window):
  std::vector<std::uint32_t> cluster_of;   // [user] -> cluster (or kUnclustered)
  std::vector<std::uint32_t> leader_of;    // [cluster] founding user id
  std::vector<double> cluster_weight;      // [cluster] summed member weights
  std::vector<double> cluster_taxes;       // [cluster] leave-one-member-out tax
  std::vector<double> cluster_utilities;   // [cluster] aggregate-row U_c(a*)
  // Drift statistics observed entering the last window (auto-tuner input).
  double drift_fraction = 0.0;
  std::uint64_t windows = 0;  // consecutive windows served warm

  // Invalidates AND releases storage (the purge path: policy swap or
  // capacity reconfig must not keep a dead million-user CSR resident).
  void Invalidate();

  // Forgets one user's row (user churn): the stored row is tombstoned and
  // its tax/utility zeroed, so a revived user's first non-empty window
  // registers as drift and is re-solved instead of reusing departed-tenant
  // state. Accumulated tombstones are compacted once they reach a quarter
  // of the stored entries, so mass dropuser churn returns the state's
  // memory to baseline instead of leaving dead rows resident.
  void ForgetUser(std::size_t user);

  // Heap bytes held by the state (tests and bench memory accounting).
  std::size_t MemoryBytes() const;

 private:
  friend class OpusAllocator;  // resets churn accounting on state refresh
  std::size_t tombstoned_nnz_ = 0;
};

struct OpusOptions {
  // Numerical slack for the isolation-guarantee gate: sharing is kept when
  // net_i >= U-bar_i - ig_tolerance for all i. Covers solver residual noise.
  double ig_tolerance = 1e-7;
  // PF solver optimality tolerance.
  double solver_tolerance = 1e-10;
  // PF solver iteration cap.
  int solver_max_iterations = 200000;
  // Threads for the N leave-one-out tax solves (0/1 = sequential). The
  // solves are independent, so results are bit-identical regardless of the
  // thread count; this only shrinks Algorithm 1's wall time at large N.
  unsigned tax_threads = 0;
  // Use the dense reference PF engine (pre-sparse-rewrite behaviour) for
  // every solve. Benchmarks and cross-check tests only; the production
  // sparse engine produces the same allocations to solver tolerance.
  bool use_dense_solver = false;
  // Serve leave-one-out tax solves with the active-set-restricted fast
  // path (sparse engine only): re-optimize just the columns near the
  // departing user's support plus the interior files, validate the composed
  // solution against the full problem's KKT residual, and fall back to a
  // full solve when the residual misses tolerance.
  bool restricted_tax_solves = true;
  // Incremental-window behaviour (only consulted when AllocateIncremental
  // is called with a state; plain Allocate is always cold).
  OpusDeltaOptions delta;
  // ROBUS-style user aggregation: cluster users by normalized-preference
  // similarity, solve the K-cluster problem, split each cluster's tax
  // across members by priority weight, and re-check isolation per user
  // (falling back to isolated caches when any member would be hurt).
  // max_clusters = 0 disables. Sparse engine only.
  AggregationOptions aggregation;
  // Priority weights (extension beyond the paper): user i's virtual
  // utility becomes w_i log U_i, its isolation baseline a C * w_i / sum(w)
  // partition, and its blocking probability 1 - exp(-T_i / w_i). Empty =
  // equal weights (the paper's mechanism). All weights must be positive.
  std::vector<double> user_weights;
};

// Detailed stage-1 artifacts, exposed for tests, benches, and the bench for
// Fig. 9 (chance of settling on sharing).
struct OpusDiagnostics {
  std::vector<double> pf_allocation;     // a*
  std::vector<double> pf_utilities;      // U_i(a*)
  std::vector<double> taxes;             // T_i (log-utility units, >= 0)
  std::vector<double> break_even_taxes;  // T-bar_i (+inf when U-bar_i = 0)
  std::vector<double> net_utilities;     // exp(-T_i) U_i(a*)
  std::vector<double> isolated_utilities;  // U-bar_i
  bool settled_on_sharing = false;
  int solver_iterations = 0;  // across all N+1 PF solves

  // Per-phase wall-clock breakdown of the window (ms). Timing only — never
  // feeds back into the allocation, so results stay deterministic.
  double drift_wall_ms = 0.0;     // drift stats vs. the warm state
  double cluster_wall_ms = 0.0;   // (re-)clustering + aggregate build
  double star_wall_ms = 0.0;      // star PF solve (incl. delta composition)
  double tax_wall_ms = 0.0;       // leave-one-out / leave-one-member-out solves
  double finalize_wall_ms = 0.0;  // disaggregation, stage 2, state refresh
};

class OpusAllocator final : public CacheAllocator {
 public:
  explicit OpusAllocator(OpusOptions options = {}) : options_(options) {}

  std::string name() const override { return "opus"; }
  AllocationResult Allocate(const CachingProblem& problem) const override;

  // Allocate() plus the stage-1 diagnostics.
  AllocationResult AllocateWithDiagnostics(const CachingProblem& problem,
                                           OpusDiagnostics* diag) const;

  // Incremental window: warm-starts every PF solve from `state` (and, in
  // delta mode, composes unchanged users from it — see OpusDeltaOptions),
  // then refreshes `state` with this window's outcome. A null, invalid, or
  // structurally incompatible state (dimension/capacity/file-size/weight
  // mismatch) degrades to the cold solve, byte-identical to Allocate().
  // With aggregation configured (max_clusters > 0 or auto_tune) the window
  // is solved at cluster granularity and disaggregated, unless the tuner
  // degrades it or every cluster is a singleton: then it runs at identity
  // granularity, exactly as without aggregation (DESIGN.md, "OpuS
  // pipeline").
  AllocationResult AllocateIncremental(const CachingProblem& problem,
                                       OpusWarmState* state,
                                       OpusDiagnostics* diag = nullptr) const;

 private:
  OpusOptions options_;
};

}  // namespace opus
