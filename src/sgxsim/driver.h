// The SGX driver model: the untrusted OS component that owns the EPC,
// services enclave page faults, evicts with CLOCK, runs the service thread,
// maintains the shared presence bitmap, and hosts the preload machinery.
//
// This reproduces the responsibilities the paper adds to the Intel Linux
// SGX driver (§4): the fault handler calls the preload policy (DFP), a
// kernel worker performs asynchronous preloads over the paging channel, and
// SIP notifications are serviced synchronously without AEX/ERESUME.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/time_series.h"
#include "sgxsim/admission.h"
#include "sgxsim/backing_store.h"
#include "sgxsim/bitmap.h"
#include "sgxsim/chaos_hooks.h"
#include "sgxsim/cost_model.h"
#include "sgxsim/elastic_epc.h"
#include "sgxsim/epc.h"
#include "sgxsim/eviction.h"
#include "sgxsim/page_table.h"
#include "sgxsim/paging_channel.h"
#include "sgxsim/preload_policy.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

/// How a demand fault interacts with queued (not-yet-started) preloads.
enum class DemandPolicy : std::uint8_t {
  /// The fault handler's load is inserted right after the in-flight op,
  /// ahead of queued preloads, which are kept. If the faulted page is
  /// itself among the queued preloads, the whole queued batch is flushed
  /// and the stream restarts (the paper's §4.1 in-stream abort). Default.
  kPreempt,
  /// As kPreempt, but any demand fault flushes all queued preloads
  /// (strictest demand priority; ablation).
  kPreemptAndFlush,
  /// No priority at all: the demand load queues behind submitted preloads
  /// and nothing is ever flushed (ablation; the §5.6 worst case).
  kFifo,
};

const char* to_string(DemandPolicy p) noexcept;

/// Inverse of to_string (exact spelling); nullopt for unknown names.
std::optional<DemandPolicy> parse_demand_policy(std::string_view name) noexcept;

struct EnclaveConfig {
  /// Size of the enclave linear address range, in pages.
  PageNum elrange_pages = 0;
  /// Usable EPC capacity, in pages (default ~96 MiB).
  PageNum epc_pages = kDefaultEpcPages;
  /// Serialize the paging channel (true = real hardware; false only for the
  /// contention ablation).
  bool serial_channel = true;
  /// Demand-fault priority over queued preloads (see DemandPolicy).
  DemandPolicy demand_policy = DemandPolicy::kPreempt;
  /// EPC reclaim policy (the Intel driver uses a CLOCK-like sweep).
  EvictionKind eviction = EvictionKind::kClock;
  /// Online watchdog: sweep the invariants every N service-thread scans
  /// and at every chaos-injection boundary (0 = off). Most sweeps are
  /// incremental, O(pages loaded or evicted since the last sweep +
  /// tenants): the O(1) global counts, then the per-page consistency
  /// check on just those pages. The first sweep at or after each multiple
  /// of N scans (DriverStats::scans) is a full, O(EPC + ELRANGE/64)
  /// check_invariants(). Detection contract: a corrupted entry of a page
  /// loaded or evicted since the last sweep trips the next sweep, and so
  /// does any corruption that moves a count; anything else trips the next
  /// full sweep, at most about 2N scans later, or the end-of-run check.
  /// See docs/ROBUSTNESS.md, "The watchdog".
  std::uint64_t watchdog_scan_interval = 0;
  /// Overload hardening: queue bound, op deadlines, lost-completion retry.
  /// Defaults (unbounded, retries off) reproduce the seed behavior.
  ChannelConfig channel;
  /// Per-tenant admission control / degradation ladder (default off).
  AdmissionParams admission;
  /// Elastic EPC: EDMM-style dynamic per-tenant quotas (default off). Only
  /// engages when the multi-enclave host also declares the tenant geometry
  /// via set_elastic_geometry(); single-enclave runs ignore it.
  ElasticParams elastic;
};

/// Compact textual fingerprint of the overload-hardening configuration
/// (channel bound/retry knobs + admission params). Empty for the seed
/// defaults. Part of the snapshot identity: a snapshot taken under one
/// hardening config must not restore into a run with another, since the
/// retry/admission state it carries (or lacks) would not match.
std::string overload_spec(const EnclaveConfig& cfg);

struct DriverStats {
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;           // enclave page faults (AEX taken)
  std::uint64_t demand_loads = 0;     // loads scheduled by the fault handler
  std::uint64_t fault_wait_hits = 0;  // faults satisfied by an in-flight load
  std::uint64_t preloads_issued = 0;
  std::uint64_t preloads_completed = 0;
  std::uint64_t preloads_aborted = 0;
  std::uint64_t preloads_used = 0;      // preloaded pages later accessed
  std::uint64_t preloads_evicted_unused = 0;
  std::uint64_t sip_loads = 0;          // synchronous SIP loads performed
  std::uint64_t sip_inflight_waits = 0; // SIP requests that hit an in-flight op
  std::uint64_t sip_prefetches = 0;     // asynchronous (hoisted) SIP loads
  std::uint64_t evictions = 0;
  std::uint64_t scans = 0;
  std::uint64_t scan_stalls = 0;        // service-thread scans that overslept
  std::uint64_t watchdog_checks = 0;    // online invariant sweeps run
  std::uint64_t bitmap_lies = 0;        // SIP bitmap reads the chaos layer faked
  std::uint64_t squeeze_evictions = 0;  // evictions forced by an EPC squeeze
  // --- overload hardening (all zero unless a channel bound, retries, or
  // admission control are configured; see docs/ROBUSTNESS.md) ---
  std::uint64_t preloads_shed = 0;      // predictions rejected by admission
  std::uint64_t queued_preload_evictions = 0;  // shed for a demand load
  std::uint64_t lost_completions = 0;   // completions the sweep declared lost
  std::uint64_t retries = 0;            // lost ops re-issued
  std::uint64_t retries_resolved = 0;   // lost ops made moot by another load
  std::uint64_t permanent_faults = 0;   // lost ops past max_retries
  std::uint64_t duplicate_completions = 0;  // idempotently suppressed dups
  std::uint64_t degrade_demotions = 0;  // tenant ladder steps down
  std::uint64_t degrade_promotions = 0; // tenant ladder steps up
  /// Cycles the app spent stalled on fault handling (AEX+wait+ERESUME).
  Cycles fault_stall_cycles = 0;
  /// Cycles the app spent stalled inside SIP page_loadin calls.
  Cycles sip_stall_cycles = 0;

  /// Flush every counter into `reg` under the "driver." prefix. This is
  /// the registry view of the compatibility struct: code that wants flat
  /// end-of-run numbers keeps reading DriverStats; observability consumers
  /// read the registry.
  void publish(obs::MetricsRegistry& reg) const;

  std::string describe() const;

  /// Checkpoint/restore of every counter.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);
};

/// What the fault handler / SIP path did for one access.
struct AccessOutcome {
  /// Virtual time at which the application proceeds past the access.
  Cycles completion = 0;
  bool faulted = false;
  /// Fault was satisfied by a load already in flight (preload hit-in-flight).
  bool hit_inflight = false;
};

class Driver {
 public:
  Driver(const EnclaveConfig& config, const CostModel& costs,
         PreloadPolicy* policy = nullptr);

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Regular (uninstrumented) enclave access to `page` at time `now`.
  /// Resident: sets the access bit, returns immediately. Otherwise runs the
  /// full fault path: AEX, demand load (with CLOCK eviction if the EPC is
  /// full), DFP prediction, ERESUME. `pid` identifies the faulting process
  /// to the preload policy (per-process stream lists; multi-enclave runs
  /// use one pid per enclave).
  AccessOutcome access(PageNum page, Cycles now, ProcessId pid = ProcessId{0});

  /// SIP page_loadin_function: synchronously bring `page` into the EPC
  /// without an AEX/ERESUME round trip. Returns the time at which the app
  /// resumes (load end + notification cost). If the page is resident by the
  /// time the request is serviced, only the notification cost is paid.
  Cycles sip_load(PageNum page, Cycles now);

  /// SIP's BIT_MAP_CHECK: read the shared presence bitmap as the *enclave*
  /// sees it. Without chaos injection this is bitmap().test(page); with an
  /// injector attached the returned value may be stale or flipped (the
  /// true bitmap is never corrupted). Callers must treat the answer as a
  /// hint only: a false "resident" simply means the later access takes the
  /// regular fault path; a false "absent" costs a redundant notification
  /// that sip_load() resolves against the real residency state.
  bool sip_bitmap_check(PageNum page, Cycles now);

  /// Fire-and-forget variant: post the load request and return immediately
  /// (the hoisted-notification mode of §3.2/Fig. 4 — issued early enough,
  /// the load overlaps the compute between notify and access). No-op if
  /// the page is resident or already queued.
  void sip_prefetch(PageNum page, Cycles now);

  /// Advance bookkeeping to `now`: commit completed channel ops and run any
  /// due service-thread scans. access()/sip_load() call this themselves;
  /// exposed for tests and for end-of-run settling.
  void advance_to(Cycles now);

  /// The driver's next event: the earlier of the next service-thread scan
  /// and the paging channel's next completion. Until the clock reaches it,
  /// advance_to() only moves the bookkept time, so an access to a resident
  /// page below it is exactly resident_hit(). Derived on each call, never
  /// stored. 0 (nothing is quiet) while the elastic controller is engaged,
  /// lost ops await their retry sweep, or the parallel ablation channel
  /// holds an op: each adds per-access work that only access() does. An
  /// attached chaos injector or profiler does too; that is fixed for the
  /// whole run, so the caller rules it out once (SimulationRun's quiet_).
  Cycles quiet_horizon() const noexcept {
    if (elastic_engaged_ || !lost_ops_.empty()) {
      return 0;
    }
    const Cycles h = std::min(next_scan_, channel_.next_due());
    return bookkept_until_ < h ? h : 0;
  }

  /// access() of a resident `page` at a time `now` below quiet_horizon(),
  /// or after advance_to(now): the whole resident path.
  void resident_hit(PageNum page, Cycles now) {
    bookkept_until_ = std::max(bookkept_until_, now);
    ++stats_.accesses;
    touch_resident(page);
  }

  /// Drain the channel: advance to the end of the last queued op.
  Cycles drain();

  const DriverStats& stats() const noexcept { return stats_; }
  const PageTable& page_table() const noexcept { return page_table_; }
  const Epc& epc() const noexcept { return epc_; }
  const PresenceBitmap& bitmap() const noexcept { return bitmap_; }
  const BackingStore& backing_store() const noexcept { return backing_; }
  const PagingChannel& channel() const noexcept { return channel_; }
  const EnclaveConfig& config() const noexcept { return config_; }
  const CostModel& costs() const noexcept { return costs_; }

  /// Invariant: page table residency, EPC occupancy, and bitmap population
  /// all agree. Throws CheckFailure on violation. A full sweep in
  /// O(EPC + ELRANGE/64): the present bits against the bitmap word by word,
  /// every occupied EPC slot against the page table, and each elastic
  /// tenant's range count against its controller. It catches a corrupted
  /// entry of any page, which the online watchdog's incremental sweeps
  /// catch only for pages loaded or evicted since the previous sweep (EnclaveConfig::watchdog_scan_interval gives the
  /// contract). Used by tests, by end-of-run validation, after every
  /// restore, and by the watchdog's periodic full sweep.
  void check_invariants() const;

  /// Lost-completion entries awaiting the retry sweep (hardened mode only;
  /// always empty otherwise). drain() settles these too.
  std::size_t pending_lost_ops() const noexcept { return lost_ops_.size(); }

  /// `pid`'s position on the degradation ladder (kFullPreload when
  /// admission control is off or the tenant has never been seen).
  DegradeLevel degrade_level(ProcessId pid) const noexcept;

  /// Migration drain control for `pid` (fleet::MigrationController's
  /// stop-and-copy window): while a tenant drains, its new preload and
  /// prefetch submissions are shed — demand loads are served with their
  /// usual priority — and, when admission control is active, its ladder
  /// controller is frozen at kDraining (see AdmissionController). Drain is
  /// transient operational state: it is never serialized, and with zero
  /// tenants draining the only cost anywhere is one integer test on the
  /// preload-submission paths. Both calls are idempotent.
  void begin_drain(ProcessId pid);
  void end_drain(ProcessId pid);
  bool draining(ProcessId pid) const noexcept;

  /// Engage the elastic EPC controller for a multi-enclave run: declare
  /// each tenant's [lo, lo+pages) ELRANGE slice (in address order, tiling
  /// the combined range from 0). Requires config().elastic.enabled, the
  /// CLOCK eviction policy (quota enforcement reuses its sweep), and must
  /// be called before the first access. Quotas are seeded by
  /// ElasticEpcController::finalize() and rebalanced on every service-
  /// thread scan tick.
  void set_elastic_geometry(
      const std::vector<std::pair<PageNum, PageNum>>& tenants);
  bool elastic_engaged() const noexcept { return elastic_engaged_; }
  const ElasticEpcController& elastic() const noexcept { return elastic_; }

  /// External capacity cap for the sharded-fleet elastic pool: the driver's
  /// usable EPC is min(capacity, limit) while a nonzero limit is set
  /// (0 = uncapped, the default). Enforced lazily by the same squeeze-
  /// eviction loop a chaos EPC squeeze uses, so a shrink costs nothing
  /// until the next load commits. Control-plane state: deliberately not
  /// serialized — the sharded barrier re-applies it after restore, exactly
  /// like the drain flags.
  void set_capacity_limit(PageNum limit) noexcept { capacity_limit_ = limit; }
  PageNum capacity_limit() const noexcept { return capacity_limit_; }

  /// External channel-contention factor in milli-units (1000 = neutral):
  /// every load's base duration is scaled by limit/1000 before chaos
  /// perturbation. The sharded barrier uses this to charge lanes for
  /// cross-shard paging-channel contention. Not serialized (re-applied at
  /// barriers and after restore).
  void set_channel_slowdown_milli(std::uint32_t milli) noexcept {
    channel_slowdown_milli_ = milli == 0 ? 1 : milli;
  }
  std::uint32_t channel_slowdown_milli() const noexcept {
    return channel_slowdown_milli_;
  }

  /// Total cycles of committed channel occupancy so far (the same counter
  /// that feeds the windowed-utilization series). The sharded barrier
  /// differences this across an epoch to meter per-lane channel pressure.
  Cycles channel_busy_cycles() const noexcept { return channel_busy_total_; }

  /// Attach a chaos fault injector (not owned; nullptr detaches). Hooks
  /// perturb channel timing, bitmap reads, completion notifications, scan
  /// scheduling, and effective EPC capacity — never the driver's
  /// ground-truth structures. See sgxsim/chaos_hooks.h and src/inject.
  void set_chaos(ChaosHooks* chaos) noexcept { chaos_ = chaos; }

  /// Attach an event log (not owned; pass nullptr to detach). Every fault,
  /// load, eviction, abort, SIP request, and scan is recorded with its
  /// virtual timestamp — the raw material of Fig. 2 / Fig. 4 timelines.
  void set_event_log(obs::EventLog* log) noexcept { log_ = log; }

  /// Checkpoint/restore of the complete driver state: page table, EPC
  /// occupancy, presence bitmap, backing-store versions, the paging-channel
  /// queue, eviction-policy internals, scan/watchdog cursors, and every
  /// DriverStats counter, split across five framed sections — "DRVR" (scan
  /// cursors, hardening state, tenants, stats, channel, eviction policy)
  /// followed by "PGTB", "EPCC", "BMAP", "BSTR" for the four bulk
  /// structures (snapshot format v2). load_sections() requires a driver
  /// constructed with the same EnclaveConfig; attached observability sinks
  /// (event log, metrics, time series) are deliberately not part of the
  /// snapshot. After load_sections(), check_invariants() is run to reject
  /// inconsistent snapshots.
  void save_sections(snapshot::Writer& w) const;
  void load_sections(snapshot::Reader& r);

  /// Delta checkpointing: "DRVR" is always rewritten (its scalars move on
  /// every access); each bulk structure becomes a sparse "PGTD"/"EPCD"/
  /// "BMPD"/"BSTD" delta section and is omitted entirely when it has not
  /// changed since the last clear_dirty().
  void save_delta_sections(snapshot::Writer& w) const;
  void apply_delta_sections(snapshot::Reader& r);

  /// Reset dirty tracking after a checkpoint frame was emitted.
  void clear_dirty();

  /// Attach a metrics registry (not owned; nullptr detaches). Latency
  /// histograms — per-fault stall, per-SIP stall, DFP batch size — are
  /// recorded live through handles cached here, so the hot path pays one
  /// null test when observability is off.
  void set_metrics(obs::MetricsRegistry* reg) noexcept;

  /// Attach a time-series set (not owned; nullptr detaches). Windowed
  /// rates — faults/Mcycle, EPC occupancy, channel utilization, preload
  /// accuracy — are sampled on every service-thread scan tick.
  void set_time_series(obs::TimeSeriesSet* ts) noexcept;

  /// Attach a cycle-attribution profiler (not owned; nullptr detaches).
  /// Scoped spans wrap the fault path, resident fast path, preload issue,
  /// SIP entry points, scan/retry/eviction work, and the paging channel's
  /// completion harvesting (forwarded to the channel).
  void set_profiler(obs::Profiler* p) noexcept {
    prof_ = p;
    channel_.set_profiler(p);
  }

 private:
  /// Test-only access (tests/ defines it) for corrupting state mid-run.
  friend struct DriverTestPeer;

  /// Duration of one load: ELDU + EWB share when the EPC will be full +
  /// the preload worker's dispatch overhead for asynchronous preloads,
  /// perturbed by the chaos hooks when attached (`at` is the scheduling
  /// time the injector sees).
  Cycles load_duration(OpKind kind, Cycles at);

  /// Usable EPC capacity at `now`: the real capacity unless a chaos
  /// injector is squeezing it (clamped to [1, capacity]).
  PageNum effective_capacity(Cycles now) const;

  /// Watchdog bookkeeping, called once per service-thread scan: sweeps
  /// every watchdog_scan_interval scans, or immediately when a chaos hook
  /// fired since the last sweep (injection boundary). The sweep is full
  /// when full_sweep_due(), incremental otherwise.
  void watchdog_tick(Cycles now);
  /// Is the next sweep full: the first in its interval-aligned window of
  /// stats_.scans, or a change log that outgrew the ELRANGE?
  bool full_sweep_due() const noexcept;
  /// check_invariants(), then re-prime the incremental state: empty change
  /// log, per-tenant counts taken from the (just verified) controller.
  void full_sweep();
  /// The O(changes) sweep: global counts, the logged pages, per-tenant
  /// counts and elastic conservation.
  void incremental_sweep();
  /// The incremental sweep's per-page check: a mapped page sits in a slot
  /// that holds it and has its bitmap bit set; an unmapped one has it
  /// clear.
  bool page_consistent(PageNum p) const {
    if (!page_table_.present(p)) {
      return !bitmap_.test(p);
    }
    const SlotIndex slot = page_table_.entry(p).slot;
    return slot != kInvalidSlot && epc_.page_at(slot) == p && bitmap_.test(p);
  }
  /// The failure message for a page that is not page_consistent().
  std::string describe_page(PageNum p) const;
  /// Per-tenant resident counts against the elastic controller, then its
  /// conservation check.
  void check_tenants(const std::vector<PageNum>& resident) const;
  /// Log a residency change for the watchdog (a no-op with it off).
  void note_residency(PageNum page, bool mapped) {
    if (config_.watchdog_scan_interval != 0) {
      wd_changes_.push_back({page, mapped});
    }
  }

  /// Schedule a load of `page` on the channel no earlier than `earliest`.
  const ChannelOp& schedule_load(PageNum page, Cycles earliest, OpKind kind,
                                 ProcessId pid = 0, std::uint32_t attempt = 0);

  /// Schedule with priority over queued preloads (demand/SIP loads). On a
  /// bounded channel, first sheds the newest queued preloads down to the
  /// high-water mark to make room.
  const ChannelOp& schedule_load_priority(PageNum page, Cycles earliest,
                                          OpKind kind, ProcessId pid = 0);

  /// Admission-controlled preload submission: degradation-level gate, then
  /// per-tenant quota, then the channel's own queue bound (try_schedule).
  /// Sheds (and accounts) instead of scheduling on any rejection.
  AdmissionResult submit_preload(ProcessId pid, PageNum page, Cycles earliest);

  /// The access lands on resident `page`: set its access bit, count and
  /// report a preloaded page's first touch, and inform the eviction policy.
  void touch_resident(PageNum page) {
    if (page_table_.touch(page)) {
      ++stats_.preloads_used;
      if (policy_ != nullptr) {
        policy_->on_preloaded_page_touched(page);
      }
    }
    if (eviction_tracks_) {
      eviction_->on_access(page);
    }
  }

  /// Flush queued (not-started) DFP preloads, notifying the policy.
  void flush_queued_preloads(Cycles now);

  /// Route a harvested channel op: in hardened mode, recognizes duplicated
  /// completions (idempotent no-op) and dropped completions (the op's
  /// effects are lost; it joins the retry sweep) before committing. The
  /// default mode commits directly — bit-identical to the seed.
  void deliver_completion(const ChannelOp& op);

  /// Retry sweep (hardened mode): every lost op past its deadline is
  /// resolved (page arrived by other means), re-issued with capped
  /// exponential backoff + jitter, or surfaced as a permanent fault after
  /// max_retries. Piggybacks on scan ticks and advance_to boundaries.
  void sweep_lost_ops(Cycles now);

  /// Close each tenant's admission window on a scan tick; ladder
  /// transitions are logged and counted here.
  void admission_windows(Cycles now);

  bool hardened() const noexcept { return config_.channel.max_retries > 0; }
  bool admission_active() const noexcept { return config_.admission.enabled; }
  Cycles deadline_slack() const noexcept {
    return config_.channel.deadline_slack > 0 ? config_.channel.deadline_slack
                                              : 4 * costs_.epc_load;
  }
  Cycles retry_backoff_base() const noexcept {
    return config_.channel.retry_backoff > 0 ? config_.channel.retry_backoff
                                             : costs_.epc_load;
  }
  /// Lazily grown per-tenant controller (admission_active() only).
  AdmissionController& tenant(ProcessId pid);
  /// The "DRVR" section's field stream (shared by save_sections and
  /// save_delta_sections): everything except the four bulk structures.
  void save_drvr_fields(snapshot::Writer& w) const;
  void load_drvr_fields(snapshot::Reader& r);

  /// Has this preload-op id already been committed? (dup suppression)
  bool already_completed(std::uint64_t op_id) const noexcept;
  void note_completed(std::uint64_t op_id);

  /// Harvest the channel ops that ended by `now` and commit them (through
  /// deliver_completion for DFP preloads when `hard`).
  void commit_completed(Cycles now, bool hard);

  /// Apply a completed channel op: evict a victim if needed, map the page.
  void commit_load(const ChannelOp& op);

  void evict_one(PageNum pinned);
  /// Evict exactly `victim` (already selected): unload, unmap, release the
  /// slot, version the backing copy, clear the bitmap bit.
  void evict_page(PageNum victim);
  /// One elastic AIMD window, run on the scan tick: feeds the channel's
  /// windowed utilization to the controller.
  void elastic_rebalance(Cycles now);

  EnclaveConfig config_;
  CostModel costs_;
  PreloadPolicy* policy_;  // not owned; may be null (no preloading)
  ChaosHooks* chaos_ = nullptr;  // not owned; may be null (no injection)

  PageTable page_table_;
  Epc epc_;
  BackingStore backing_;
  PagingChannel channel_;
  PresenceBitmap bitmap_;
  std::unique_ptr<EvictionPolicy> eviction_;
  /// The policy keeps recency (LRU): the resident path skips the virtual
  /// on_access call for the policies whose on_access is empty.
  bool eviction_tracks_;

  /// Record one windowed sample of each driver series at `now`.
  void sample_time_series(Cycles now);

  DriverStats stats_;
  obs::EventLog* log_ = nullptr;  // not owned; may be null
  Cycles next_scan_ = 0;
  Cycles bookkept_until_ = 0;
  std::uint64_t scans_since_watchdog_ = 0;
  /// A chaos hook fired since the last watchdog sweep (injection-boundary
  /// sweeps run at the next bookkeeping point, not mid-operation).
  bool chaos_dirty_ = false;
  /// Watchdog change log: every load commit and eviction since the last
  /// sweep. Transient like the drain flags (never serialized); a restore
  /// runs a full sweep, which re-primes it.
  struct ResidencyChange {
    PageNum page = kInvalidPage;
    bool mapped = false;
  };
  std::vector<ResidencyChange> wd_changes_;
  /// Per-tenant resident counts the watchdog keeps from the change log
  /// (elastic only), checked against the controller's own counts.
  std::vector<PageNum> wd_resident_;
  /// stats_.scans / watchdog_scan_interval at the last full sweep.
  std::uint64_t wd_full_window_ = 0;
  /// Sharded-fleet control knobs (see set_capacity_limit /
  /// set_channel_slowdown_milli). Transient operational state, like the
  /// drain flags: never serialized.
  PageNum capacity_limit_ = 0;
  std::uint32_t channel_slowdown_milli_ = 1000;

  // --- overload hardening (inert in the default configuration) ---
  /// A preload whose completion was dropped: the load's effects never
  /// reached the page table and the sweep owns its fate.
  struct LostOp {
    std::uint64_t id = 0;
    PageNum page = kInvalidPage;
    ProcessId pid = 0;
    std::uint32_t attempt = 0;
    Cycles deadline = 0;
  };
  std::vector<LostOp> lost_ops_;
  /// Dedicated jitter stream for retry backoff — separate from the chaos
  /// streams so enabling retries never perturbs an injection schedule.
  Rng retry_rng_;
  /// Ring of recently committed preload-op ids (duplicate suppression).
  std::vector<std::uint64_t> completed_ring_;
  std::size_t completed_pos_ = 0;
  /// Per-tenant ladder controllers, indexed by ProcessId, grown lazily.
  std::vector<AdmissionController> tenants_;
  /// Tenants currently draining for migration (indexed by ProcessId; kept
  /// separate from tenants_ so admission-off runs can drain without growing
  /// the serialized controller vector). Not serialized — a snapshot taken
  /// mid-drain restores as not-draining, matching AdmissionController.
  std::vector<std::uint8_t> drain_flags_;
  /// Count of set drain_flags_ — the one word the fast path tests.
  std::uint32_t draining_count_ = 0;

  // --- elastic EPC (inert until set_elastic_geometry) ---
  ElasticEpcController elastic_;
  bool elastic_engaged_ = false;
  /// Channel-busy anchors for the per-window utilization fed to rebalance().
  Cycles el_last_at_ = 0;
  Cycles el_last_busy_ = 0;

  // --- observability (all null/zero when disabled) ---
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
  obs::Histogram* fault_stall_hist_ = nullptr;
  obs::Histogram* sip_stall_hist_ = nullptr;
  obs::Histogram* dfp_batch_hist_ = nullptr;
  obs::Gauge* degrade_gauge_ = nullptr;  // worst tenant ladder level
  obs::TimeSeriesSet* series_ = nullptr;  // not owned; may be null
  obs::Profiler* prof_ = nullptr;         // not owned; may be null
  /// Total channel-busy cycles committed so far (for windowed utilization).
  Cycles channel_busy_total_ = 0;
  // Snapshots from the previous sample, for windowed deltas.
  Cycles ts_last_at_ = 0;
  Cycles ts_last_busy_ = 0;
  std::uint64_t ts_last_faults_ = 0;
  std::uint64_t ts_last_preloads_used_ = 0;
  std::uint64_t ts_last_preloads_completed_ = 0;
};

}  // namespace sgxpl::sgxsim
