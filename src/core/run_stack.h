// The plumbing every simulation shares, written once: the DFP engine
// builder, the replay of one access stream (the paper's per-access step and
// the min-clock pick between streams), the driver stack (driver, optional
// fault injector, observability sinks, the frame identity it fixes), the
// frame skeleton behind the checkpoint verbs, and the checkpoint/resume
// loop. SimulationRun replays one stream, MultiEnclaveRun one per tenant and
// run_threads one per thread; they differ only in what they do around the
// step and in the sections they add around the driver's.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/metrics.h"
#include "core/scheme.h"
#include "snapshot/codec.h"
#include "trace/access.h"

namespace sgxpl::core {

/// The DFP engine `scheme` runs, with the profiler attached; null when the
/// scheme runs none. DFP-stop and hybrid force the stop valve on.
std::unique_ptr<dfp::DfpEngine> make_dfp_engine(const SimConfig& cfg,
                                                Scheme scheme);

/// Copy the engine's end-of-run state (stop verdict, preload counters,
/// predictor hits/misses) into `m`.
void fill_dfp_metrics(const dfp::DfpEngine& engine, Metrics& m);

/// One access stream replayed through a driver: the trace, where its pages
/// sit in the driver's page space, its clock, cursor and Metrics. step() is
/// the paper's per-access rule, the same for one enclave, a co-run tenant
/// (§5.6) or a thread (§3.1): the compute gap, then at an instrumented site
/// BIT_MAP_CHECK and on a miss a blocking page_loadin (§3.2), then the
/// driver's access, which runs the fault path when the page is absent (§4).
/// The trace and plan must outlive the replay.
struct Replay {
  const trace::Trace* trace = nullptr;
  /// The SIP plan whose sites step() checks; null means no checks.
  const sip::InstrumentationPlan* plan = nullptr;
  /// The driver page of the trace's page 0.
  PageNum offset = 0;
  ProcessId pid{0};
  std::uint64_t cursor = 0;
  Cycles now = 0;
  Metrics metrics;

  bool done() const noexcept { return cursor >= trace->size(); }

  /// The charges of one access: its compute gap, which every access pays,
  /// and BIT_MAP_CHECK, which an instrumented site adds.
  void charge_compute(Cycles gap) noexcept {
    ++metrics.accesses;
    now += gap;
    metrics.compute_cycles += gap;
  }
  void charge_bitmap_check(const sgxsim::CostModel& costs) noexcept {
    now += costs.bitmap_check;
    metrics.sip_check_cycles += costs.bitmap_check;
    ++metrics.sip_checks;
  }

  /// Consume the next access. Requires !done(). `before_access` runs once
  /// the gap (and any check) is charged, right before the driver's access:
  /// the slot SimulationRun's hoisted SIP checks take.
  template <class BeforeAccess>
  void step(sgxsim::Driver& d, obs::Profiler* prof,
            BeforeAccess&& before_access) {
    obs::ScopedSpan step_span(prof, obs::Phase::kStep);
    const Cycles step_start = now;
    const trace::Access& a = trace->accesses()[cursor];
    const PageNum page = offset + a.page;
    charge_compute(a.gap);
    if (plan != nullptr && plan->instrumented(a.site)) {
      obs::ScopedSpan sip_span(prof, obs::Phase::kSipCheck);
      const Cycles before = now;
      charge_bitmap_check(d.costs());
      if (!d.sip_bitmap_check(page, now)) {
        now = d.sip_load(page, now) + d.costs().sip_notification;
        metrics.sip_notification_cycles += d.costs().sip_notification;
        ++metrics.sip_requests;
      }
      sip_span.add_cycles(now - before);
    }
    before_access();
    const sgxsim::AccessOutcome outcome = d.access(page, now, pid);
    now = outcome.completion;
    if (outcome.faulted) {
      ++metrics.enclave_faults;
    }
    step_span.add_cycles(now - step_start);
    ++cursor;
  }
  void step(sgxsim::Driver& d, obs::Profiler* prof) {
    step(d, prof, [] {});
  }
};

/// The stream furthest behind in virtual time, the one every multi-stream
/// run steps next: the index of the smallest clock among the streams
/// `skip(i)` does not rule out (done or paused ones), the lowest index on a
/// tie; streams.size() when every stream is ruled out.
template <class Skip>
std::size_t min_clock_stream(const std::vector<Replay>& streams, Skip skip) {
  std::size_t next = streams.size();
  Cycles min_clock = std::numeric_limits<Cycles>::max();
  for (std::size_t i = 0; i < streams.size(); ++i) {
    if (!skip(i) && streams[i].now < min_clock) {
      min_clock = streams[i].now;
      next = i;
    }
  }
  return next;
}

/// The driver a simulation pages through, plus the fault injector when
/// cfg.chaos enables any class, with every observability sink of `cfg`
/// attached. Under chaos the online watchdog defaults on (every 64 scans
/// plus every injection boundary), so a hook that ever corrupted ground
/// truth trips at once, not at end of run. The event log and time series
/// are cleared: they hold exactly one run's window.
class RunStack {
 public:
  /// The driver serves cfg.enclave over an ELRANGE of `elrange_pages`
  /// (the run's whole page space); `policy` may be null and must outlive
  /// the stack.
  RunStack(const SimConfig& cfg, PageNum elrange_pages,
           sgxsim::PreloadPolicy* policy);

  sgxsim::Driver& driver() noexcept { return *driver_; }
  const sgxsim::Driver& driver() const noexcept { return *driver_; }

  /// The frame identity every run on this stack shares: the EPC size, the
  /// chaos plan and seed, and the hardening fingerprint. The run fills in
  /// its kind, schemes, traces, ELRANGE and cursor.
  const snapshot::RunMeta& meta() const noexcept { return meta_; }

  /// The one end-of-run settle step. A hardened run (channel.max_retries
  /// > 0) may still hold lost ops awaiting their retry deadlines, and a
  /// validating run checks the final state: either drains the channel and
  /// runs check_invariants(), so the retry counters are final and
  /// lost == retries + resolved + permanent. Other runs stop as they are.
  void settle();

  /// The driver's and the injector's final statistics (the latter all zero
  /// without chaos), published to the registry when one is attached.
  void collect(sgxsim::DriverStats& driver, inject::InjectStats& inject) const;

  /// The injector's INJC section, the last of every frame; absent (and
  /// expected absent) without chaos.
  void save_injector(snapshot::Writer& w) const;
  void load_injector(snapshot::Reader& r);

 private:
  bool settle_;
  obs::MetricsRegistry* registry_;
  snapshot::RunMeta meta_;
  std::unique_ptr<inject::FaultInjector> injector_;
  std::unique_ptr<sgxsim::Driver> driver_;
};

/// What both steppable runs share, written once (static dispatch: `Run`
/// derives from RunSkeleton<Run>): run_to_end(), the finish-once guard, and
/// the checkpoint verbs. A frame is the chain header and META, the run's
/// head sections, the driver's sections, the run's tail sections, then the
/// injector's INJC section. `Run` supplies done(), step(), finish(),
/// meta(), stack(), and its own sections through save_head/load_head and
/// save_tail/load_tail.
///
/// Checkpoint semantics: save() captures the COMPLETE state — every
/// subsystem's counters, RNG streams, queues and cursors — such that
/// load_bytes() into a freshly built run with the same configuration,
/// followed by run_to_end(), finishes bit-identical to the uninterrupted
/// run. A load validates the frame's identity section ("META") against
/// meta() before touching any state, and throws a diagnostic CheckFailure on
/// any mismatch or corruption.
template <class Run>
class RunSkeleton {
 public:
  /// No bound: advance() to the end of the run.
  static constexpr std::uint64_t kAllSteps = ~std::uint64_t{0};

  /// step() while !done() and steps() < steps_bound; returns the number of
  /// steps taken. The scheduling unit of run_to_end() and of the checkpoint
  /// loop; `Run` may hide it with a faster loop that ends in the same state.
  std::uint64_t advance(std::uint64_t steps_bound) {
    const std::uint64_t from = self().steps();
    while (!self().done() && self().steps() < steps_bound) {
      self().step();
    }
    return self().steps() - from;
  }

  /// advance() until done(), then finish().
  auto run_to_end() {
    self().advance(kAllSteps);
    return self().finish();
  }

  /// Write a complete full frame stamped with `chain` (a full-frame header;
  /// ChainHeader{} is a standalone frame, the Snapshotter stamps chain
  /// bases).
  void save(snapshot::Writer& w, const snapshot::ChainHeader& chain) const {
    SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kFull,
                    "save() writes full frames; deltas go through "
                    "save_delta()");
    save_frame(w, chain, /*delta=*/false);
  }
  /// A standalone full frame, and its inverse: load_bytes reads a full
  /// frame of this run. It rejects delta frames (restore those through
  /// snapshot::restore_chain).
  std::vector<std::uint8_t> save_bytes() const {
    snapshot::Writer w;
    save(w, snapshot::ChainHeader{});
    return w.finish();
  }
  void load_bytes(const std::vector<std::uint8_t>& bytes) {
    load_frame(bytes, /*delta=*/false);
  }
  /// Meta-gated restore: returns false (leaving the run untouched) when
  /// `bytes` describes a different run — other trace, scheme, chaos plan or
  /// enclave geometry; throws CheckFailure when `bytes` is corrupt.
  bool restore_if_compatible(const std::vector<std::uint8_t>& bytes) {
    const snapshot::RunFrame frame(bytes);
    if (!frame.meta.incompatibility(self().meta()).empty()) {
      return false;
    }
    load_bytes(bytes);
    return true;
  }

  /// Delta checkpointing: save_delta writes the same frame with sparse
  /// deltas of only the bulk driver structures that changed since the last
  /// clear_dirty(). apply_delta_bytes replays such a frame on top of this run's
  /// current state; callers go through snapshot::restore_chain, which
  /// enforces chain linkage.
  void save_delta(snapshot::Writer& w,
                  const snapshot::ChainHeader& chain) const {
    SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kDelta,
                    "save_delta() writes delta frames; full frames go "
                    "through save()");
    save_frame(w, chain, /*delta=*/true);
  }
  void apply_delta_bytes(const std::vector<std::uint8_t>& bytes) {
    load_frame(bytes, /*delta=*/true);
  }
  void clear_dirty() { self().stack().driver().clear_dirty(); }

 protected:
  /// finish()'s once-only guard; a frame load re-arms it.
  void begin_finish() {
    SGXPL_CHECK_MSG(!finished_, "finish() called twice");
    finished_ = true;
  }

 private:
  void save_frame(snapshot::Writer& w, const snapshot::ChainHeader& chain,
                  bool delta) const {
    const sgxsim::Driver& driver = self().stack().driver();
    snapshot::write_frame_head(w, chain, self().meta());
    self().save_head(w);
    if (delta) {
      driver.save_delta_sections(w);
    } else {
      driver.save_sections(w);
    }
    self().save_tail(w);
    self().stack().save_injector(w);
  }
  void load_frame(const std::vector<std::uint8_t>& bytes, bool delta) {
    sgxsim::Driver& driver = self().stack().driver();
    snapshot::RunFrame f(bytes);
    f.require(delta ? snapshot::FrameKind::kDelta : snapshot::FrameKind::kFull,
              self().meta());
    self().load_head(f.body);
    if (delta) {
      driver.apply_delta_sections(f.body);
    } else {
      driver.load_sections(f.body);
    }
    self().load_tail(f.body);
    self().stack().load_injector(f.body);
    f.finish();
    finished_ = false;
  }
  const Run& self() const { return static_cast<const Run&>(*this); }
  Run& self() { return static_cast<Run&>(*this); }

  bool finished_ = false;
};

/// Step `run` to its end and finish it, honoring cfg.checkpoint. Resumes
/// from the on-disk chain at resume_path when its base exists and its
/// RunMeta matches this run (absent or foreign snapshots are skipped and the
/// run starts fresh — benches that simulate several schemes overwrite one
/// file per run; corrupt frames or broken chains throw), and writes a chain
/// frame to path every every_accesses steps: a full base every full_every
/// frames, deltas beside it in between. Checkpoint I/O lands in the
/// registry's "snapshot.*" histograms as steady-clock nanoseconds (~cycles
/// at 1 GHz) and in the profiler's snapshot phases.
template <class Run>
auto run_checkpointed(Run& run, const SimConfig& cfg) -> decltype(run.finish());

}  // namespace sgxpl::core
