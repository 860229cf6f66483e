// Multi-threaded enclaves (paper §3.1: "we collect the history of faulted
// pages in each thread through the operating system").
//
// K threads of one enclave share the ELRANGE, the EPC, and the paging
// channel; each thread is one core::Replay (core/run_stack.h), stepped by
// the same per-access rule as a single run, and their accesses interleave
// in virtual time through the co-run's scheduler, min_clock_stream
// (smallest clock first). The single DFP engine serves all
// of them — and the `per_thread_streams` switch decides whether the fault
// history is keyed by thread (the paper's design) or pooled globally, the
// ablation that shows why the paper keys per thread: pooled histories let
// one thread's faults churn the LRU stream list out from under another's
// streams.
#pragma once

#include <vector>

#include "core/metrics.h"
#include "core/scheme.h"
#include "trace/access.h"

namespace sgxpl::core {

struct ThreadedRunResult {
  std::vector<Metrics> per_thread;
  Cycles makespan = 0;
  sgxsim::DriverStats driver;
  /// Fault-injection activity (all zero when no chaos plan ran).
  inject::InjectStats inject;
  bool dfp_stopped = false;
};

/// Run `threads` (each a per-thread access trace over the SAME ELRANGE)
/// under `config`, on the same driver stack as every other simulation
/// (config.chaos and the observability sinks apply). Only DFP-family
/// schemes are supported (SIP plans are per-binary, not per-thread; pass
/// kBaseline/kDfp/kDfpStop).
ThreadedRunResult run_threads(const SimConfig& config,
                              const std::vector<const trace::Trace*>& threads,
                              bool per_thread_streams = true);

}  // namespace sgxpl::core
