// Execution schemes evaluated by the paper and the simulator configuration
// bundling the platform model with scheme parameters.
#pragma once

#include <string>

#include "dfp/dfp_engine.h"
#include "inject/chaos_plan.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/time_series.h"
#include "sgxsim/cost_model.h"
#include "sgxsim/driver.h"
#include "sip/instrumenter.h"

namespace sgxpl::core {

enum class Scheme {
  kNative,    // outside any enclave (motivation study only)
  kBaseline,  // in-enclave, vanilla driver, no preloading
  kDfp,       // dynamic fault-history preloading, no stop valve
  kDfpStop,   // DFP with the misprediction stop mechanism (paper default)
  kSip,       // source-instrumentation preloading only
  kHybrid,    // SIP + DFP-stop combined (paper §5.4)
};

const char* to_string(Scheme s) noexcept;

/// Whether a scheme runs a DFP engine, and with the stop valve.
constexpr bool uses_dfp(Scheme s) noexcept {
  return s == Scheme::kDfp || s == Scheme::kDfpStop || s == Scheme::kHybrid;
}
constexpr bool dfp_stop_forced(Scheme s) noexcept {
  return s == Scheme::kDfpStop || s == Scheme::kHybrid;
}
/// Whether a scheme runs SIP notifications.
constexpr bool uses_sip(Scheme s) noexcept {
  return s == Scheme::kSip || s == Scheme::kHybrid;
}

/// Crash-consistent checkpointing (docs/ROBUSTNESS.md, "Checkpoint &
/// recovery"). Snapshots are aligned to trace-access boundaries and written
/// atomically (temp file + rename), so a kill at any wall-clock instant
/// leaves either the previous or the new snapshot — never a torn one.
struct CheckpointOptions {
  /// Write a checkpoint every N completed accesses (0 = off).
  std::uint64_t every_accesses = 0;
  /// Where periodic checkpoints go (required when every_accesses > 0).
  std::string path;
  /// When non-empty, restore this snapshot before running. The file must
  /// exist and describe the same trace/scheme/configuration (CheckFailure
  /// otherwise). Delta files beside it (`<path>.delta-N`) are replayed on
  /// top of the base automatically.
  std::string resume_path;
  /// Emit a full base snapshot every N checkpoints and incremental delta
  /// frames in between. 1 = every checkpoint is a full snapshot; larger
  /// values bound the delta-chain length a resume has to replay. 0 is
  /// treated as 1.
  std::uint64_t full_every = 1;
};

struct SimConfig {
  sgxsim::EnclaveConfig enclave;  // elrange_pages 0 = take from the trace
  sgxsim::CostModel costs;
  Scheme scheme = Scheme::kBaseline;
  dfp::DfpParams dfp;
  sip::InstrumenterParams sip;
  /// SIP notification placement: 0 = the paper's conservative mode (notify
  /// immediately before the access, blocking until loaded). N > 0 = the
  /// hoisted mode of §3.2/Fig. 4: the compiler moves the check+notify N
  /// accesses ahead, so the load overlaps the intervening compute and the
  /// access itself runs unmodified (faulting only if the load is late).
  std::uint32_t sip_lookahead = 0;
  /// Drain the channel and run the driver's structural invariant check
  /// (page table / EPC / bitmap agreement) after the trace completes, as
  /// hardened runs always do (RunStack::settle). Meant for tests.
  bool validate = false;

  /// Fault-injection plan for the untrusted paging stack (src/inject).
  /// Default-constructed = no faults enabled = zero-overhead plain run;
  /// see docs/ROBUSTNESS.md.
  inject::ChaosPlan chaos;

  /// Periodic checkpoint / resume-from-snapshot settings (off by default).
  /// Ignored by the native scheme, which has no paging state to snapshot.
  CheckpointOptions checkpoint;

  // --- Observability sinks (not owned; null = off, zero overhead). ---
  // See docs/OBSERVABILITY.md. Counters/histograms accumulate across runs
  // sharing one registry (merge semantics); the event log and time series
  // are cleared at the start of each run so they hold exactly one run's
  // window (a bench's --trace captures its final simulation).
  obs::MetricsRegistry* registry = nullptr;
  obs::TimeSeriesSet* timeseries = nullptr;
  obs::EventLog* event_log = nullptr;
  obs::Profiler* profiler = nullptr;

  bool uses_dfp() const noexcept { return core::uses_dfp(scheme); }
  bool dfp_stop_forced() const noexcept {
    return core::dfp_stop_forced(scheme);
  }
  bool uses_sip() const noexcept { return core::uses_sip(scheme); }

  std::string describe() const;
};

/// The configuration used for all paper-reproduction experiments: 96 MiB
/// EPC, the paper's cycle constants, paper-default DFP parameters
/// (stream_list 30, LOADLENGTH 4) and the 5% SIP threshold.
SimConfig paper_platform(Scheme scheme = Scheme::kBaseline);

}  // namespace sgxpl::core
