// Sharded parallel fleet execution: partition N independent tenant lanes
// across K OS worker threads, each lane advancing its own virtual clock to
// a common epoch horizon, with the cross-lane coupling — paging-channel
// contention charging and the shared elastic-EPC pool — applied serially at
// the epoch barrier in lane order.
//
// The load-bearing property is **shard-count invariance**: for any K the
// per-tenant metrics, snapshot frames, and chaos schedules are bit-identical
// to the K=1 run. The design makes that structural rather than incidental:
//
//   - Between barriers, lanes share *nothing mutable*. Each lane is a full
//     core::SimulationRun (own driver, DFP engine, fault injector, RNG
//     streams); the trace and instrumentation plan are shared read-only.
//     K only decides which OS thread advances which lane.
//   - All cross-lane state (busy-cycle metering, the contention controller,
//     the elastic pool's AIMD quotas) is read and written exclusively in
//     the serial barrier, in lane-index order, using integer arithmetic.
//   - Chaos streams are derived per lane (base seed + lane-indexed gamma),
//     so a lane's injection schedule depends only on its index, never on
//     scheduling.
//
// See docs/ROBUSTNESS.md, "Sharded execution", for the full determinism
// argument and the barrier model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/scheme.h"
#include "core/simulator.h"
#include "snapshot/fwd.h"
#include "trace/access.h"

namespace sgxpl::core {

/// Fixed-size OS thread pool with a fork/join barrier, built once and
/// reused every epoch (spawning threads per epoch would dominate small
/// epochs). run(jobs, fn) partitions [0, jobs) into K contiguous blocks —
/// worker w owns [w*jobs/K, (w+1)*jobs/K) — executes them concurrently,
/// and returns after every block finished. Exceptions thrown by fn are
/// captured per worker and the lowest-indexed one is rethrown from run()
/// after the barrier (so the pool is still consistent). threads <= 1 runs
/// inline on the calling thread with no pool at all.
class ShardPool {
 public:
  explicit ShardPool(std::size_t threads);
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  std::size_t threads() const noexcept { return threads_; }

  /// Execute fn(0) .. fn(jobs-1), partitioned across the workers. Blocks
  /// until all jobs completed. Not reentrant.
  void run(std::size_t jobs, const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  std::size_t threads_ = 1;
  std::unique_ptr<Impl> impl_;  // null when threads_ <= 1
};

/// Configuration of a sharded fleet run. `threads` is pure execution
/// mechanics and deliberately excluded from spec(): a snapshot taken at
/// K=8 must restore into a K=1 run and vice versa.
struct ShardingSpec {
  /// OS worker threads (K). 1 = sequential — the differential reference.
  std::size_t threads = 1;
  /// Virtual-time width of one epoch: lanes run to the next multiple of
  /// this, then meet at the barrier. Smaller epochs couple lanes tighter
  /// and barrier more often.
  Cycles epoch_cycles = 200'000;
  /// Cross-lane paging-channel contention gain, milli-units per unit of
  /// foreign channel utilization (0 = lanes do not slow each other). At
  /// each barrier lane i's next-epoch load durations are scaled by
  ///   1000 + gain * (sum of other lanes' busy cycles this epoch)
  ///          / (epoch_cycles * (lanes-1))
  /// — an integer milli-factor, so the coupling is exactly reproducible.
  std::uint32_t contention_gain_milli = 0;
  /// Shared elastic EPC pool in pages (0 = off: every lane keeps its
  /// configured EPC). When on, the barrier redistributes the pool across
  /// lanes by an integer proportional-share rule over per-epoch channel
  /// pressure, with `quota_floor` as the per-lane hard floor.
  PageNum pool_pages = 0;
  PageNum quota_floor = 16;

  /// Textual fingerprint of everything that shapes simulation results —
  /// all fields except `threads` (shard count must not change identity).
  std::string spec() const;
};

/// One tenant lane of a sharded fleet run.
struct ShardLane {
  const trace::Trace* trace = nullptr;
  Scheme scheme = Scheme::kBaseline;
  const sip::InstrumentationPlan* plan = nullptr;  // SIP schemes only
};

/// N independent tenant lanes advanced epoch-synchronously by K worker
/// threads. The trace/plan objects must outlive the run.
///
/// Checkpoint semantics mirror SimulationRun: save_bytes() at an epoch
/// barrier captures the complete fleet state (every lane's full frame plus
/// the barrier controller's), and load_bytes() into a freshly built run
/// with the same lanes/config — at ANY shard count — resumes
/// bit-identically.
class ShardedFleetRun {
 public:
  ShardedFleetRun(const SimConfig& base, const std::vector<ShardLane>& lanes,
                  const ShardingSpec& spec);
  ~ShardedFleetRun();
  ShardedFleetRun(const ShardedFleetRun&) = delete;
  ShardedFleetRun& operator=(const ShardedFleetRun&) = delete;

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  const SimulationRun& lane(std::size_t i) const { return *lanes_[i]; }

  bool done() const noexcept;
  /// Advance every unfinished lane to the next epoch horizon (parallel
  /// across the shard pool), then apply the serial barrier. Requires
  /// !done().
  void run_epoch();
  std::uint64_t epochs_run() const noexcept { return epoch_; }
  /// The virtual-time horizon lanes will run to in the NEXT epoch.
  Cycles next_horizon() const noexcept { return horizon_; }

  /// run_epoch() until done(), then finish every lane; per-lane Metrics in
  /// lane order. Call at most once.
  std::vector<Metrics> run_to_end();

  // --- checkpoint/restore (call only at epoch barriers) ---
  std::vector<std::uint8_t> save_bytes() const;
  void load_bytes(const std::vector<std::uint8_t>& bytes);
  /// Meta-gated restore: false (run untouched) when `bytes` describes a
  /// different fleet; throws CheckFailure when `bytes` is corrupt.
  bool restore_if_compatible(const std::vector<std::uint8_t>& bytes);
  snapshot::RunMeta meta() const;

 private:
  void barrier();
  void apply_knobs();

  SimConfig base_;
  ShardingSpec spec_;
  std::vector<std::unique_ptr<SimulationRun>> lanes_;
  std::unique_ptr<ShardPool> pool_;
  std::uint64_t epoch_ = 0;
  Cycles horizon_ = 0;
  /// Per-lane channel-busy totals at the last barrier (delta metering).
  std::vector<Cycles> busy_anchor_;
  /// Per-lane controller outputs, re-applied after restore.
  std::vector<std::uint64_t> quota_;     // capacity limit, 0 = uncapped
  std::vector<std::uint64_t> slowdown_;  // channel slowdown, milli
};

/// The per-lane chaos-stream gamma: lane i's injector runs under seed
/// base_seed + kShardStreamGamma * (i + 1), so schedules are a function of
/// the lane index alone (same constant the host-chaos streams use).
inline constexpr std::uint64_t kShardStreamGamma = 0x9e3779b97f4a7c15ull;

}  // namespace sgxpl::core
