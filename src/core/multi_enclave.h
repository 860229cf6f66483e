// Multiple enclaves sharing one EPC (paper §5.6 discussion).
//
// "Sharing EPC among multiple processes … is supported on Intel processors,
// but the total EPC size remains the same and each enclave will receive a
// smaller portion. As each enclave can handle its preloading independently,
// our proposed schemes will work for each enclave. However, EPC contention
// becomes a serious issue."
//
// This co-simulator runs K application traces against ONE shared driver:
// one physical EPC, one paging channel, one CLOCK sweep — with each
// enclave's ELRANGE placed at a disjoint offset in the combined address
// space and each enclave running its own DFP engine (keyed by ProcessId).
// Each tenant is one core::Replay (core/run_stack.h), stepped by the same
// per-access rule as a single run; the scheduler, min_clock_stream, always
// steps the unpaused tenant with the smallest virtual clock, bounding
// cross-enclave causality skew to a single fault-handling span. SIP tenants
// run the conservative check only: a nonzero sip_lookahead is refused.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/run_stack.h"
#include "core/scheme.h"
#include "sip/instrumenter.h"
#include "snapshot/fwd.h"
#include "trace/access.h"

namespace sgxpl::core {

struct EnclaveApp {
  const trace::Trace* trace = nullptr;
  Scheme scheme = Scheme::kBaseline;
  /// Required by SIP-using schemes; ignored otherwise.
  const sip::InstrumentationPlan* plan = nullptr;
};

struct MultiEnclaveResult {
  /// Per-enclave metrics (total_cycles = that enclave's finishing time).
  std::vector<Metrics> per_enclave;
  /// Time at which the last enclave finished.
  Cycles makespan = 0;
  /// Shared-driver statistics (global faults, evictions, channel ops).
  sgxsim::DriverStats driver;
  /// Final degradation-ladder level per enclave (all kFullPreload unless
  /// config.enclave.admission is enabled).
  std::vector<sgxsim::DegradeLevel> degrade_levels;
  /// Shared fault-injection activity (all zero when no chaos plan ran).
  inject::InjectStats inject;
  /// Final per-tenant elastic EPC quotas (empty unless
  /// config.enclave.elastic is enabled).
  std::vector<PageNum> elastic_quotas;
  /// Elastic controller decision counters (all zero when elastic is off).
  sgxsim::ElasticStats elastic;
};

/// One in-progress co-simulation, steppable one access at a time so it can
/// be checkpointed and resumed bit-identically (same contract as
/// core::SimulationRun; the checkpoint verbs come from RunSkeleton). The
/// traces and plans referenced by `apps` must outlive the run.
class MultiEnclaveRun : public RunSkeleton<MultiEnclaveRun> {
 public:
  MultiEnclaveRun(const SimConfig& config, const std::vector<EnclaveApp>& apps);
  ~MultiEnclaveRun();
  MultiEnclaveRun(const MultiEnclaveRun&) = delete;
  MultiEnclaveRun& operator=(const MultiEnclaveRun&) = delete;

  bool done() const noexcept;
  /// Consume one access from the enclave whose virtual clock is furthest
  /// behind. Requires !done().
  void step();
  /// Total accesses consumed across all enclaves.
  std::uint64_t steps() const noexcept;

  /// Assemble the final result. Requires done(); call at most once.
  MultiEnclaveResult finish();

  snapshot::RunMeta meta() const;

  // --- per-tenant inspection (the in-situ side of extraction tests) ---
  std::size_t enclave_count() const noexcept;
  Metrics tenant_metrics(std::size_t enclave) const;
  std::uint64_t tenant_cursor(std::size_t enclave) const;
  /// One tenant's virtual clock (its current simulated time; frozen while
  /// the tenant is paused or done). The fleet supervisor charges RPO/RTO
  /// in these cycles.
  Cycles tenant_clock(std::size_t enclave) const;
  /// One tenant's DFP engine; null when its scheme runs none.
  const dfp::DfpEngine* tenant_engine(std::size_t enclave) const;
  /// The shared driver all tenants page through.
  sgxsim::Driver& driver() noexcept { return stack_.driver(); }

  // --- live-migration hooks (fleet::MigrationController) ---
  /// Placement of one tenant's ELRANGE in the combined page space, plus its
  /// trace length — the inputs snapshot::extract_resumable needs.
  snapshot::TenantGeometry tenant_geometry(std::size_t enclave) const;
  /// Freeze/unfreeze one tenant's virtual clock: a paused tenant is skipped
  /// by step()'s min-clock scheduler (the stop-and-copy window of a live
  /// migration). Pausing is control-plane state — never serialized.
  void set_tenant_paused(std::size_t enclave, bool paused);
  bool tenant_paused(std::size_t enclave) const;
  /// True while some unfinished tenant is not paused (done() stays false
  /// during a stop-and-copy, so the scheduler needs this weaker guard).
  bool steppable() const noexcept;
  /// Enter/leave the migration drain on the shared driver: the tenant's
  /// preloads are shed (demand loads still served) and, when admission
  /// control is active, its ladder freezes at kDraining.
  void begin_tenant_drain(std::size_t enclave);
  void end_tenant_drain(std::size_t enclave);
  /// Commit the source side of a completed migration: mark the tenant done
  /// at its current clock so the co-run continues without it. Requires the
  /// tenant to be paused (it must not consume accesses after the final
  /// copy).
  void retire_tenant(std::size_t enclave);

 private:
  // A frame lays co-run state out per tenant: an "ENCM" identity section,
  // the tenant's "APPS" clock/metrics, and its "DFPE" engine (when the
  // scheme runs one) are grouped per enclave ahead of the shared driver's
  // sections, so one tenant can be extracted and inspected standalone
  // (snapshot::extract_enclave). Nothing follows the driver but INJC.
  friend class RunSkeleton<MultiEnclaveRun>;
  RunStack& stack() noexcept { return stack_; }
  const RunStack& stack() const noexcept { return stack_; }
  void save_head(snapshot::Writer& w) const;
  void load_head(snapshot::Reader& r);
  void save_tail(snapshot::Writer&) const {}
  void load_tail(snapshot::Reader&) {}

  // Tenant layout, per-enclave engines and scheduler state. Declared before
  // the stack, whose driver calls into Impl's engines until it is destroyed.
  struct Impl;
  std::unique_ptr<Impl> impl_;
  RunStack stack_;
};

class MultiEnclaveSimulator {
 public:
  /// `config.enclave.epc_pages` is the *shared* physical EPC. The scheme
  /// field of `config` is ignored; each app carries its own.
  explicit MultiEnclaveSimulator(const SimConfig& config);

  /// Honors config.checkpoint exactly like EnclaveSimulator::run.
  MultiEnclaveResult run(const std::vector<EnclaveApp>& apps);

 private:
  SimConfig config_;
};

}  // namespace sgxpl::core
