// CacheCluster — the mini-Alluxio deployment: a master's metadata + block
// placement view over a set of workers, an under store, and client read
// paths (paper Fig. 4).
//
// Two operating modes:
//
//  - Unmanaged (default): reads are cache-on-read; misses pull blocks into
//    the assigned worker, evicting per the worker's policy (LRU/LFU). This
//    is stock Alluxio, the Fig. 5 baseline.
//  - Managed: an allocation policy (via sim::OpusMaster) pins exactly the
//    allocated block set and installs a per-(user,file) access model; reads
//    never mutate placement, and blocked accesses are charged the expected
//    disk delay f * T_d (Sec. V-A "Workflow").
//
// Reads account the paper's metric: a delayed access counts as a fractional
// miss equal to the blocking probability (Sec. VI "Metric").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/file_meta.h"
#include "cache/messages.h"
#include "cache/placement.h"
#include "cache/under_store.h"
#include "cache/worker.h"
#include "common/check.h"
#include "common/matrix.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"

namespace opus::cache {

struct ClusterConfig {
  std::uint32_t num_workers = 5;
  std::uint64_t cache_capacity_bytes = 1 * kGiB;
  std::string eviction_policy = "lru";
  // Block-to-worker placement: "modulo" (balanced, churn-hostile) or
  // "consistent" (consistent-hash ring, minimal remap on churn).
  std::string placement = "modulo";
  UnderStoreConfig under_store;
  double memory_bandwidth_bytes_per_sec = 5e9;  // in-memory read throughput
  std::uint32_t num_users = 1;
  // Span tracer: keep every span_sample_every-th root span per root name
  // (0 disables tracing entirely) up to span_capacity retained spans.
  std::uint64_t span_sample_every = 1;
  std::size_t span_capacity = 1 << 16;
};

struct ReadResult {
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_from_memory = 0;
  std::uint64_t bytes_from_disk = 0;
  double latency_sec = 0.0;
  // Fraction of bytes served from memory before blocking.
  double memory_fraction = 0.0;
  // Probability this user's in-memory access is blocked (managed mode).
  double blocking_probability = 0.0;
  // The paper's effective hit: memory_fraction * (1 - blocking).
  double effective_hit = 0.0;
};

class CacheCluster {
 public:
  CacheCluster(ClusterConfig config, Catalog catalog);

  const Catalog& catalog() const { return catalog_; }
  const ClusterConfig& config() const { return config_; }
  UnderStore& under_store() { return under_store_; }

  // Client read path: user `user` reads file `file` in full.
  ReadResult Read(UserId user, FileId file);

  // --- serving support ----------------------------------------------------
  //
  // The concurrent serving engine (src/serve) splits Read into a store
  // probe phase it runs itself (shard-affine, one thread per disjoint set
  // of workers) and this accounting tail, called at window-drain time in
  // the pinned global event order. FinishRead performs every metric,
  // under-store, and blocking side effect of Read after the probe — the
  // serial path calls the same function, so the two planes cannot drift.
  ReadResult FinishRead(UserId user, FileId file,
                        std::uint64_t bytes_from_memory,
                        std::uint64_t bytes_from_disk);

  // Batched per-worker read-counter deltas accumulated by the serving
  // engine's per-thread queues (u64 sums — order-free, so batch totals
  // equal the serial per-access increments).
  void AddWorkerReadDeltas(WorkerId worker, std::uint64_t mem_hits,
                           std::uint64_t mem_hit_bytes, std::uint64_t misses,
                           std::uint64_t miss_bytes);

  // O(1) precomputed block→worker placement (stable after construction).
  WorkerId PlacementFor(BlockId block) const { return WorkerIndexFor(block); }

  std::size_t num_workers() const { return workers_.size(); }

  // Direct worker access for the serving engine's shard-affine probe
  // phase. Contract: during a parallel phase each worker is touched by
  // exactly one thread, and control-plane mutations (ApplyAllocation,
  // FailWorker, ...) only run between phases.
  Worker& worker(WorkerId w) {
    OPUS_CHECK_LT(w, workers_.size());
    return *workers_[w];
  }

  // --- managed-mode control plane ---------------------------------------

  // Switches to managed mode: pins the block prefix of each file per
  // `file_fractions` (length = catalog size, values in [0,1]) and evicts
  // everything else. Subsequent reads never mutate placement.
  //
  // Reallocation is incremental: after the first managed epoch (a full
  // reconciliation pass over the catalog), later epochs touch only the
  // per-file delta between the previous and new pinned prefixes — blocks
  // the cluster never held are never probed. Pin/load failures or a trip
  // through SetUnmanaged force the next epoch back to a full pass.
  void ApplyAllocation(const std::vector<double>& file_fractions);

  // Installs the per-(user,file) effective-access model from an
  // AllocationResult: entry (i, j) is e_ij / a_j — the probability user i's
  // access to a cached byte of file j is NOT blocked. Pass an empty matrix
  // to clear (full access for everyone).
  void SetAccessModel(Matrix unblocked_share);

  // Leaves managed mode and clears pins (reverts to cache-on-read).
  void SetUnmanaged();

  bool managed() const { return managed_; }

  // --- worker failures ----------------------------------------------------

  // Simulates a worker crash: its cached blocks (pins included) are lost.
  // Reads that map to a failed worker fall through to the under store; in
  // unmanaged mode they re-populate surviving workers' partitions only when
  // the block maps there.
  void FailWorker(WorkerId worker);

  // Brings a failed worker back. In managed mode the worker's share of the
  // current allocation (rebuilt from the per-file pinned prefixes) is
  // re-applied immediately — its pinned block set is reloaded from the
  // under store (with disk-read accounting) — so the recovered partition
  // serves from memory right away instead of from disk until the next
  // reallocation round.
  void RecoverWorker(WorkerId worker);

  bool IsWorkerAlive(WorkerId worker) const;
  std::size_t num_alive_workers() const;

  // Fraction of file `file` currently resident in cluster memory.
  double ResidentFraction(FileId file) const;

  // Total resident bytes across workers.
  std::uint64_t UsedBytes() const;

  const ControlPlaneStats& control_plane_stats() const { return cp_stats_; }
  std::uint64_t total_evictions() const;
  // Load/pin requests that failed, summed over workers (the
  // cluster.worker.*.pin_failures counters).
  std::uint64_t total_pin_failures() const;

  // --- observability ------------------------------------------------------
  //
  // Every cluster owns a deterministic metrics registry and a bounded event
  // trace; workers, the under store and the control plane record into them
  // (names like "cluster.worker.3.mem_hits", "cluster.user.0.disk_bytes").
  // All values are logical-clock based, so snapshots are byte-identical
  // across reruns and thread counts.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::EventTrace& trace() { return trace_; }
  const obs::EventTrace& trace() const { return trace_; }
  // Causal span trace: one root span per Read/ApplyAllocation with child
  // spans for tier probes, under-store reads, and blocking-delay injection.
  // Control-plane callers (sim::OpusMaster) open their own spans on the
  // same trace so reallocation work parents the cluster's spans.
  obs::SpanTrace& spans() { return spans_; }
  const obs::SpanTrace& spans() const { return spans_; }

 private:
  // Pre-resolved metric handles (hot-path instrumentation must not pay a
  // map lookup per block access) and a precomputed block→worker placement
  // cache (the hot path must not pay a ring binary-search per block).
  struct WorkerCounters {
    obs::Counter* mem_hits = nullptr;
    obs::Counter* mem_hit_bytes = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* miss_bytes = nullptr;
    obs::Counter* pins = nullptr;
    obs::Counter* unpins = nullptr;
    obs::Counter* loads = nullptr;
    obs::Counter* pin_failures = nullptr;
    obs::Counter* failures = nullptr;
  };
  struct UserCounters {
    obs::Counter* reads = nullptr;
    obs::Counter* mem_bytes = nullptr;
    obs::Counter* disk_bytes = nullptr;
    obs::Histogram* blocking_delay_sec = nullptr;
  };

  // O(1) placement: two array indexes into the precomputed cache.
  WorkerId WorkerIndexFor(BlockId block) const {
    return block_worker_[file_offset_[BlockFile(block)] + BlockIndex(block)];
  }
  Worker& WorkerFor(BlockId block) {
    return *workers_[WorkerIndexFor(block)];
  }
  const Worker& WorkerFor(BlockId block) const {
    return *workers_[WorkerIndexFor(block)];
  }
  double MemoryLatency(std::uint64_t bytes) const;
  void InitObservability();
  // Fills file_offset_/block_worker_ from the configured placement policy.
  // Placement is a pure function of (block, membership); membership never
  // changes after construction (failed workers keep their partition and
  // reads fall through), so this runs once. If membership-changing
  // placement lands later, rebuild here from the retained ring_.
  void BuildPlacementCache();
  // Delivers one CacheUpdate to an alive worker: applies it, accounts
  // control-plane stats/metrics, and charges under-store reads for loads.
  // Returns the number of load/pin requests that failed.
  std::uint64_t ApplyUpdateToWorker(WorkerId worker,
                                    const CacheUpdate& update);

  ClusterConfig config_;
  Catalog catalog_;
  UnderStore under_store_;
  obs::MetricsRegistry metrics_;
  obs::EventTrace trace_;
  obs::SpanTrace spans_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<bool> worker_alive_;
  std::vector<WorkerCounters> worker_counters_;
  std::vector<UserCounters> user_counters_;
  obs::Histogram* read_latency_hist_ = nullptr;
  std::optional<ConsistentHashRing> ring_;  // set when placement=consistent
  EvictionKind eviction_kind_ = EvictionKind::kLru;
  // Placement cache: block b of file f lives on
  // block_worker_[file_offset_[f] + BlockIndex(b)].
  std::vector<std::uint64_t> file_offset_;  // per-file prefix sums, size+1
  std::vector<WorkerId> block_worker_;
  bool managed_ = false;
  Matrix unblocked_share_;  // num_users x num_files; empty = no blocking
  ControlPlaneStats cp_stats_;
  std::uint64_t epoch_ = 0;
  // Per-file pinned block prefix from the last ApplyAllocation, the basis
  // for delta reallocation (only changed [prev, want) ranges are touched)
  // and for RecoverWorker's pin-set rebuild.
  std::vector<std::uint32_t> pinned_prefix_;
  // Set when the prefix bookkeeping may not match store state (initial
  // epoch, pin/load failures, SetUnmanaged): the next ApplyAllocation does
  // a full reconciliation pass over the catalog instead of a delta.
  bool needs_full_pass_ = true;
};

}  // namespace opus::cache
