// The enclave simulator: replays an application trace under a scheme on the
// sgxsim substrate and reports Metrics.
//
// Virtual time is the application's clock in cycles. Each trace access goes
// through Replay::step (core/run_stack.h), the per-access rule the co-run
// and the threaded run share: the compute gap, then at an instrumented site
// BIT_MAP_CHECK against the shared presence bitmap and, on a miss, a
// synchronous page_loadin request (no AEX/ERESUME), then the driver's
// access path: residency hit, or the full fault sequence (AEX -> demand
// load with CLOCK eviction -> DFP prediction -> ERESUME). Only a single run
// has SIP's hoisted mode (sip_lookahead > 0), whose checks step() runs
// sip_lookahead accesses early, in the slot Replay::step leaves before the
// access.
//
// Resident accesses take a quiet loop. The paper charges a resident access
// nothing beyond its compute gap (and BIT_MAP_CHECK at an instrumented
// site); only faults, the paging channel and the scan tick cost time. So
// SimulationRun::advance() consumes accesses in a tight loop while the
// access's clock (gap, plus bitmap_check at an instrumented site) stays
// below the driver's quiet horizon, min(next scan, channel head's end), and
// the page is present: each costs one compare and one page-table lookup,
// then Driver::resident_hit, the same helper access()'s resident branch
// calls, and the charges go through Replay's helpers, as step()'s do. The
// first access that fails either test goes through step(), and the loop
// resumes after it; an access whose page is absent pays only its present
// bit before step(), not the horizon. Below the horizon advance_to() would
// commit nothing and scan nothing, and a present page's bitmap bit is set,
// so the loop ends every access in the state step() would: every counter,
// cycle and snapshot byte is identical (tests/quiet_path_test.cpp). The
// horizon is derived from the driver on each entry, never stored. The loop
// declines, and every access takes step(), while a profiler (kStep counts
// stay exact) or a chaos injector is attached, under SIP lookahead, while
// the elastic controller is engaged or lost ops await their retry sweep,
// and while the parallel ablation channel holds an op.
//
// SimulationRun exposes the replay one access at a time, so a run can be
// checkpointed at any access boundary and resumed bit-identically — the
// correctness oracle behind the kill-restore harness (tests/recovery_test,
// bench/recovery_suite). EnclaveSimulator::run is the one-shot wrapper that
// also honors SimConfig::checkpoint.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/metrics.h"
#include "core/run_stack.h"
#include "core/scheme.h"
#include "sip/instrumenter.h"
#include "snapshot/fwd.h"
#include "trace/access.h"

namespace sgxpl::core {

/// One in-progress simulation: the driver stack (driver, optional DFP
/// engine, optional fault injector, observability attachments) plus the
/// replay cursor. Non-copyable; the trace and plan must outlive the run.
/// The checkpoint verbs (save, save_bytes, load_bytes, ...) and their
/// semantics come from RunSkeleton; a frame holds the RUNS section, the
/// driver's sections, then the DFPE section when the scheme runs DFP.
class SimulationRun : public RunSkeleton<SimulationRun> {
 public:
  /// Native scheme is not steppable (no paging state); the ctor rejects it.
  /// `plan` is required by SIP-using schemes and ignored otherwise. The
  /// ELRANGE defaults to the trace's declared range.
  SimulationRun(const SimConfig& config, const trace::Trace& t,
                const sip::InstrumentationPlan* plan = nullptr);
  SimulationRun(const SimulationRun&) = delete;
  SimulationRun& operator=(const SimulationRun&) = delete;

  bool done() const noexcept { return replay_.done(); }
  /// Consume the next trace access — the unit of progress checkpoints are
  /// aligned to. Requires !done().
  void step();
  /// Consume accesses while !done(), cursor() < cursor_bound and the
  /// virtual clock is below clock_bound; returns the number consumed. Ends
  /// in exactly the state the same step() calls would reach, through the
  /// quiet loop where it can (see the file comment). run_to_end(), the
  /// checkpoint loop and run_until() all go through it.
  std::uint64_t advance(std::uint64_t cursor_bound,
                        Cycles clock_bound = ~Cycles{0});
  /// advance() with only a clock bound. The unit of a sharded epoch: lanes
  /// advance independently to a common virtual-time horizon, then meet at
  /// the barrier. A lane whose clock already passed `bound` consumes zero.
  std::uint64_t run_until(Cycles bound) { return advance(kAllSteps, bound); }
  /// Accesses completed so far.
  std::uint64_t cursor() const noexcept { return replay_.cursor; }
  /// cursor() under the name the checkpoint loop shares with the co-run.
  std::uint64_t steps() const noexcept { return replay_.cursor; }
  Cycles now() const noexcept { return replay_.now; }

  /// The underlying driver, for the sharded barrier's cross-lane coupling
  /// (capacity limits, channel-slowdown factors, busy-cycle metering).
  sgxsim::Driver& driver() noexcept { return stack_.driver(); }
  const sgxsim::Driver& driver() const noexcept { return stack_.driver(); }
  /// The run's DFP engine; null when the scheme runs none.
  const dfp::DfpEngine* engine() const noexcept { return engine_.get(); }

  /// Drain/validate and assemble the final Metrics. Requires done(); call
  /// at most once.
  Metrics finish();

  /// This run's identity as written into snapshots.
  snapshot::RunMeta meta() const;

 private:
  friend class RunSkeleton<SimulationRun>;
  RunStack& stack() noexcept { return stack_; }
  const RunStack& stack() const noexcept { return stack_; }
  void save_head(snapshot::Writer& w) const;
  void load_head(snapshot::Reader& r);
  void save_tail(snapshot::Writer& w) const;
  void load_tail(snapshot::Reader& r);

  void hoist(std::size_t idx);
  void ensure_started();
  /// The quiet loop: resident accesses below the driver's horizon, up to
  /// `end` and while the clock is below `clock_bound`.
  void advance_quiet(std::uint64_t end, Cycles clock_bound);

  SimConfig cfg_;
  // The SIP plan when the scheme checks sites (null otherwise), and how many
  // accesses ahead its checks run: 0 is the conservative mode, whose checks
  // replay_ makes; N > 0 is the hoisted mode, whose checks hoist() makes.
  const sip::InstrumentationPlan* plan_;
  std::uint32_t lookahead_;
  // The quiet loop's conditions that hold for the whole run: no profiler,
  // no chaos injector, no SIP lookahead. The ones that change as the run
  // goes live in Driver::quiet_horizon().
  bool quiet_;
  std::unique_ptr<dfp::DfpEngine> engine_;
  RunStack stack_;
  Replay replay_;
  // Whether the pre-loop work ran (hoisted SIP prefix). Runs lazily at the
  // first step so a restore never re-executes it; serialized so a snapshot
  // taken at cursor 0 still resumes exactly.
  bool started_ = false;
};

class EnclaveSimulator {
 public:
  explicit EnclaveSimulator(const SimConfig& config);

  /// Run `t` to completion. `plan` is required by SIP-using schemes and
  /// ignored otherwise. The ELRANGE defaults to the trace's declared range.
  /// Honors config.checkpoint: resumes from resume_path when the file
  /// exists and its RunMeta matches this configuration (absent or
  /// foreign snapshots are skipped and the run starts fresh — benches that
  /// simulate several schemes overwrite one file per run; corrupt
  /// snapshots throw), and writes a snapshot to path every every_accesses
  /// completed accesses.
  Metrics run(const trace::Trace& t,
              const sip::InstrumentationPlan* plan = nullptr);

 private:
  Metrics run_native(const trace::Trace& t) const;

  SimConfig config_;
};

/// One-call convenience: simulate `t` under `config`.
Metrics simulate(const trace::Trace& t, const SimConfig& config,
                 const sip::InstrumentationPlan* plan = nullptr);

}  // namespace sgxpl::core
