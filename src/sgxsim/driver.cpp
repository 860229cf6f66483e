#include "sgxsim/driver.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

using obs::EventType;

const char* to_string(DemandPolicy p) noexcept {
  switch (p) {
    case DemandPolicy::kPreempt:
      return "preempt";
    case DemandPolicy::kPreemptAndFlush:
      return "preempt+flush";
    case DemandPolicy::kFifo:
      return "fifo";
  }
  return "?";
}

std::optional<DemandPolicy> parse_demand_policy(
    std::string_view name) noexcept {
  for (const DemandPolicy p :
       {DemandPolicy::kPreempt, DemandPolicy::kPreemptAndFlush,
        DemandPolicy::kFifo}) {
    if (name == to_string(p)) {
      return p;
    }
  }
  return std::nullopt;
}

std::string overload_spec(const EnclaveConfig& cfg) {
  const ChannelConfig def;
  const ChannelConfig& ch = cfg.channel;
  const bool channel_default =
      ch.max_queued == def.max_queued &&
      ch.preload_high_water == def.preload_high_water &&
      ch.max_retries == def.max_retries &&
      ch.retry_backoff == def.retry_backoff &&
      ch.deadline_slack == def.deadline_slack &&
      ch.retry_seed == def.retry_seed;
  if (channel_default && !cfg.admission.enabled && !cfg.elastic.enabled) {
    return {};
  }
  std::ostringstream oss;
  oss << "queue=" << ch.max_queued << ",hw=" << ch.preload_high_water
      << ",retries=" << ch.max_retries << ",backoff=" << ch.retry_backoff
      << ",slack=" << ch.deadline_slack << ",rseed=" << ch.retry_seed;
  if (cfg.admission.enabled) {
    const AdmissionParams& a = cfg.admission;
    oss << ";admission=1,thr=" << a.degrade_threshold
        << ",minw=" << a.min_window_events << ",recw=" << a.recover_windows
        << ",recthr=" << a.recover_threshold
        << ",quota=" << a.preload_quota_fraction;
    if (a.target_window_events > 0) {
      // Load-adaptive windows change the ladder's verdict cadence, so they
      // are identity too; appended only when engaged to keep every existing
      // admission spec (and snapshot) byte-identical.
      oss << ",target=" << a.target_window_events
          << ",maxspan=" << a.max_window_span;
    }
  }
  if (cfg.elastic.enabled) {
    oss << ";elastic=1," << elastic_spec(cfg.elastic);
  }
  return oss.str();
}

void DriverStats::publish(obs::MetricsRegistry& reg) const {
  reg.counter("driver.accesses").add(accesses);
  reg.counter("driver.faults").add(faults);
  reg.counter("driver.demand_loads").add(demand_loads);
  reg.counter("driver.fault_wait_hits").add(fault_wait_hits);
  reg.counter("driver.preloads.issued").add(preloads_issued);
  reg.counter("driver.preloads.completed").add(preloads_completed);
  reg.counter("driver.preloads.aborted").add(preloads_aborted);
  reg.counter("driver.preloads.used").add(preloads_used);
  reg.counter("driver.preloads.evicted_unused").add(preloads_evicted_unused);
  reg.counter("driver.sip.loads").add(sip_loads);
  reg.counter("driver.sip.inflight_waits").add(sip_inflight_waits);
  reg.counter("driver.sip.prefetches").add(sip_prefetches);
  reg.counter("driver.evictions").add(evictions);
  reg.counter("driver.scans").add(scans);
  reg.counter("driver.scan_stalls").add(scan_stalls);
  reg.counter("driver.watchdog.checks").add(watchdog_checks);
  reg.counter("driver.bitmap_lies").add(bitmap_lies);
  reg.counter("driver.squeeze_evictions").add(squeeze_evictions);
  reg.counter("channel.admission.shed").add(preloads_shed);
  reg.counter("channel.admission.queue_evictions")
      .add(queued_preload_evictions);
  reg.counter("channel.retry.lost").add(lost_completions);
  reg.counter("channel.retry.reissued").add(retries);
  reg.counter("channel.retry.resolved").add(retries_resolved);
  reg.counter("channel.retry.permanent_faults").add(permanent_faults);
  reg.counter("channel.retry.duplicates").add(duplicate_completions);
  reg.counter("degrade.demotions").add(degrade_demotions);
  reg.counter("degrade.promotions").add(degrade_promotions);
  reg.counter("driver.fault.stall_cycles.total").add(fault_stall_cycles);
  reg.counter("driver.sip.stall_cycles.total").add(sip_stall_cycles);
}

std::string DriverStats::describe() const {
  std::ostringstream oss;
  oss << "accesses=" << accesses << " faults=" << faults
      << " demand_loads=" << demand_loads
      << " fault_wait_hits=" << fault_wait_hits
      << " preloads{issued=" << preloads_issued
      << ", completed=" << preloads_completed
      << ", aborted=" << preloads_aborted << ", used=" << preloads_used
      << ", evicted_unused=" << preloads_evicted_unused << "}"
      << " sip{loads=" << sip_loads << ", inflight_waits=" << sip_inflight_waits
      << ", prefetches=" << sip_prefetches
      << "} evictions=" << evictions << " scans=" << scans
      << " fault_stall=" << fault_stall_cycles
      << " sip_stall=" << sip_stall_cycles;
  if (scan_stalls + watchdog_checks + bitmap_lies + squeeze_evictions > 0) {
    oss << " chaos{scan_stalls=" << scan_stalls
        << ", watchdog_checks=" << watchdog_checks
        << ", bitmap_lies=" << bitmap_lies
        << ", squeeze_evictions=" << squeeze_evictions << "}";
  }
  if (preloads_shed + queued_preload_evictions + lost_completions + retries +
          retries_resolved + permanent_faults + duplicate_completions +
          degrade_demotions + degrade_promotions >
      0) {
    oss << " robust{shed=" << preloads_shed
        << ", queue_evict=" << queued_preload_evictions
        << ", lost=" << lost_completions << ", retries=" << retries
        << ", resolved=" << retries_resolved
        << ", permanent=" << permanent_faults
        << ", dups=" << duplicate_completions
        << ", demotions=" << degrade_demotions
        << ", promotions=" << degrade_promotions << "}";
  }
  return oss.str();
}

Driver::Driver(const EnclaveConfig& config, const CostModel& costs,
               PreloadPolicy* policy)
    : config_(config),
      costs_(costs),
      policy_(policy),
      page_table_(config.elrange_pages),
      epc_(config.epc_pages),
      backing_(config.elrange_pages),
      channel_(config.serial_channel, config.channel),
      bitmap_(config.elrange_pages),
      eviction_(make_eviction_policy(config.eviction, epc_)),
      eviction_tracks_(config.eviction == EvictionKind::kLru),
      next_scan_(costs.scan_period),
      retry_rng_(config.channel.retry_seed),
      // UINT64_MAX never collides with an op id (ids count up from 0).
      completed_ring_(64, UINT64_MAX) {
  SGXPL_CHECK_MSG(config.elrange_pages > 0, "empty ELRANGE");
  SGXPL_CHECK_MSG(config.epc_pages > 0, "empty EPC");
}

void Driver::set_metrics(obs::MetricsRegistry* reg) noexcept {
  metrics_ = reg;
  if (reg != nullptr) {
    fault_stall_hist_ = &reg->histogram("driver.fault.stall_cycles");
    sip_stall_hist_ = &reg->histogram("driver.sip.stall_cycles");
    dfp_batch_hist_ = &reg->histogram("driver.dfp.batch_pages");
    degrade_gauge_ = &reg->gauge("degrade.level");
  } else {
    fault_stall_hist_ = nullptr;
    sip_stall_hist_ = nullptr;
    dfp_batch_hist_ = nullptr;
    degrade_gauge_ = nullptr;
  }
}

void Driver::set_time_series(obs::TimeSeriesSet* ts) noexcept {
  series_ = ts;
  ts_last_at_ = bookkept_until_;
  ts_last_busy_ = channel_busy_total_;
  ts_last_faults_ = stats_.faults;
  ts_last_preloads_used_ = stats_.preloads_used;
  ts_last_preloads_completed_ = stats_.preloads_completed;
}

AccessOutcome Driver::access(PageNum page, Cycles now, ProcessId pid) {
  SGXPL_CHECK_MSG(page < config_.elrange_pages,
                  "access outside ELRANGE: page " << page);
  advance_to(now);

  {
    obs::ScopedSpan lookup(prof_, obs::Phase::kPageTableLookup);
    if (page_table_.present(page)) {
      resident_hit(page, now);
      if (elastic_engaged_) {
        // Liveness evidence (EDMM accessed-bit sampling): a fully-resident
        // tenant never faults or maps, and without this the idle shrink
        // would mistake it for a dead one and evict its working set.
        elastic_.note_access(elastic_.owner(page));
      }
      return AccessOutcome{.completion = now, .faulted = false,
                           .hit_inflight = false};
    }
  }

  // --- Enclave page fault: AEX out of the enclave. ---
  ++stats_.accesses;
  ++stats_.faults;
  if (elastic_engaged_) {
    // Pressure evidence for the AIMD grow; only the primary fault counts
    // (re-fault retries below are the channel's problem, not demand).
    elastic_.note_fault(elastic_.owner(page));
  }
  obs::ScopedSpan fault_span(prof_, obs::Phase::kFault);
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kFault, .page = page});
  }
  const Cycles after_aex = now + costs_.aex;
  advance_to(after_aex);

  // A preload may have landed during the AEX window.
  if (page_table_.present(page)) {
    ++stats_.fault_wait_hits;
    touch_resident(page);
    const Cycles done = after_aex + costs_.eresume;
    advance_to(done);
    if (log_ != nullptr) {
      log_->record({.at = done, .type = EventType::kResume, .page = page});
    }
    stats_.fault_stall_cycles += done - now;
    if (fault_stall_hist_ != nullptr) {
      fault_stall_hist_->record(done - now);
    }
    fault_span.add_cycles(done - now);
    return AccessOutcome{.completion = done, .faulted = true,
                         .hit_inflight = true};
  }

  Cycles load_end = 0;
  bool hit_inflight = false;
  const auto pending = channel_.find(page);
  const DemandPolicy dp = config_.demand_policy;
  // Quarantined tenants lose demand priority too: their loads queue FIFO
  // behind everyone else's work (the bottom of the degradation ladder).
  const bool demand_fifo =
      dp == DemandPolicy::kFifo ||
      (admission_active() && !tenant(pid).demand_priority());
  if (pending.has_value() &&
      (pending->start <= after_aex || demand_fifo)) {
    // The page is already being loaded (or is queued and FIFO mode keeps
    // queues intact): a load in progress cannot be preempted, so the
    // handler simply waits for it.
    load_end = pending->end;
    hit_inflight = true;
    ++stats_.fault_wait_hits;
  } else {
    // The §4.1 in-stream abort: if the faulted page was queued for DFP
    // preloading (the app outran the preloader within a stream), the whole
    // queued batch is flushed and the page is demand-loaded instead.
    // Under kPreemptAndFlush every demand fault flushes the queue. A
    // queued SIP prefetch for the page is simply promoted (cancelled and
    // re-issued as the demand load).
    const bool flush =
        (pending.has_value() && pending->kind == OpKind::kDfpPreload) ||
        dp == DemandPolicy::kPreemptAndFlush;
    if (flush) {
      flush_queued_preloads(after_aex);
    }
    if (pending.has_value() && pending->kind == OpKind::kSipLoad) {
      const bool cancelled = channel_.cancel_not_started(page, after_aex);
      SGXPL_CHECK_MSG(cancelled, "queued SIP op for page " << page
                                     << " could not be promoted");
    }
    if (demand_fifo) {
      load_end =
          schedule_load(page, after_aex, OpKind::kDemandLoad, pid).end;
    } else {
      load_end =
          schedule_load_priority(page, after_aex, OpKind::kDemandLoad, pid)
              .end;
    }
    ++stats_.demand_loads;
  }

  // Consult the preload policy while the fault is being serviced; its
  // predictions queue up behind the demand load (through the admission
  // layer when a queue bound or the degradation ladder is configured).
  if (policy_ != nullptr) {
    const auto predicted = policy_->on_fault(pid, page, after_aex);
    obs::ScopedSpan issue_span(predicted.empty() ? nullptr : prof_,
                               obs::Phase::kPreloadIssue);
    std::uint64_t scheduled = 0;
    std::vector<PageNum> shed;
    for (const PageNum p : predicted) {
      if (p >= config_.elrange_pages || page_table_.present(p) ||
          channel_.find(p).has_value()) {
        continue;
      }
      if (submit_preload(pid, p, after_aex) == AdmissionResult::kAdmitted) {
        ++stats_.preloads_issued;
        ++scheduled;
      } else {
        shed.push_back(p);
      }
    }
    if (!shed.empty()) {
      policy_->on_preloads_shed(shed, after_aex);
    }
    if (dfp_batch_hist_ != nullptr && !predicted.empty()) {
      dfp_batch_hist_->record(scheduled);
    }
  }

  Cycles done = 0;
  int attempts = 0;
  for (;;) {
    done = load_end + costs_.eresume;
    advance_to(done);
    if (page_table_.present(page)) {
      break;
    }
    // Pathological: other loads committing in the same window evicted the
    // page before the enclave re-entered (possible under heavy preload
    // pressure, and routinely under the idealized parallel-channel
    // ablation). The access simply faults again.
    SGXPL_CHECK_MSG(++attempts <= 8,
                    "page " << page << " evicted "
                            << attempts << " times before first use");
    ++stats_.faults;
    const Cycles retry_at = done + costs_.aex;
    advance_to(retry_at);
    if (const auto op = channel_.find(page)) {
      load_end = op->end;
      ++stats_.fault_wait_hits;
    } else if (demand_fifo) {
      load_end = schedule_load(page, retry_at, OpKind::kDemandLoad, pid).end;
      ++stats_.demand_loads;
    } else {
      load_end =
          schedule_load_priority(page, retry_at, OpKind::kDemandLoad, pid)
              .end;
      ++stats_.demand_loads;
    }
  }
  touch_resident(page);
  if (log_ != nullptr) {
    log_->record({.at = done, .type = EventType::kResume, .page = page});
  }
  stats_.fault_stall_cycles += done - now;
  if (fault_stall_hist_ != nullptr) {
    fault_stall_hist_->record(done - now);
  }
  fault_span.add_cycles(done - now);
  return AccessOutcome{.completion = done, .faulted = true,
                       .hit_inflight = hit_inflight};
}

Cycles Driver::sip_load(PageNum page, Cycles now) {
  SGXPL_CHECK_MSG(page < config_.elrange_pages,
                  "sip_load outside ELRANGE: page " << page);
  obs::ScopedSpan span(prof_, obs::Phase::kSipLoad);
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kSipRequest, .page = page});
  }
  advance_to(now);
  if (page_table_.present(page)) {
    // The shared bitmap was stale (page arrived between check and request).
    return now;
  }
  Cycles end = 0;
  if (const auto pending = channel_.find(page)) {
    end = pending->end;
    ++stats_.sip_inflight_waits;
  } else if (config_.demand_policy == DemandPolicy::kFifo) {
    end = schedule_load(page, now, OpKind::kSipLoad).end;
    ++stats_.sip_loads;
  } else {
    // The blocking notification overtakes queued asynchronous preloads.
    end = schedule_load_priority(page, now, OpKind::kSipLoad).end;
    ++stats_.sip_loads;
  }
  int attempts = 0;
  for (;;) {
    advance_to(end);
    if (page_table_.present(page)) {
      break;
    }
    // Evicted by a racing commit before the requester could use it; the
    // kernel worker retries the load.
    SGXPL_CHECK_MSG(++attempts <= 8,
                    "sip page " << page << " evicted " << attempts
                                << " times before first use");
    if (const auto op = channel_.find(page)) {
      end = op->end;
    } else {
      end = schedule_load(page, end, OpKind::kSipLoad).end;
      ++stats_.sip_loads;
    }
  }
  stats_.sip_stall_cycles += end - now;
  if (sip_stall_hist_ != nullptr) {
    sip_stall_hist_->record(end - now);
  }
  span.add_cycles(end - now);
  return end;
}

bool Driver::sip_bitmap_check(PageNum page, Cycles now) {
  SGXPL_CHECK_MSG(page < config_.elrange_pages,
                  "bitmap check outside ELRANGE: page " << page);
  obs::ScopedSpan span(prof_, obs::Phase::kBitmapCheck);
  const bool actual = bitmap_.test(page);
  if (chaos_ == nullptr) {
    return actual;
  }
  const bool seen = chaos_->corrupt_bitmap_read(page, actual, now);
  if (seen != actual) {
    ++stats_.bitmap_lies;
    chaos_dirty_ = true;
  }
  return seen;
}

void Driver::sip_prefetch(PageNum page, Cycles now) {
  SGXPL_CHECK_MSG(page < config_.elrange_pages,
                  "sip_prefetch outside ELRANGE: page " << page);
  obs::ScopedSpan span(prof_, obs::Phase::kSipPrefetch);
  advance_to(now);
  if (page_table_.present(page) || channel_.find(page).has_value()) {
    return;
  }
  if (draining(ProcessId{0})) {
    // Prefetches are speculative; a draining tenant sheds them like any
    // other preload-class submission (see submit_preload).
    ++stats_.preloads_shed;
    if (log_ != nullptr) {
      log_->record({.at = now, .type = EventType::kAdmission, .page = page,
                    .detail = to_string(AdmissionResult::kRejectedDegraded)});
    }
    return;
  }
  // Prefetches are speculative, so the admission layer may shed them: a
  // degraded tenant loses prefetch privileges first, and a full bounded
  // queue rejects them like any other preload-class submission.
  if (channel_.bounded() || admission_active()) {
    AdmissionResult r = AdmissionResult::kAdmitted;
    if (admission_active() && !tenant(ProcessId{0}).prefetches_allowed()) {
      r = AdmissionResult::kRejectedDegraded;
    } else if (channel_.full()) {
      r = AdmissionResult::kRejectedFull;
      if (admission_active()) {
        tenant(ProcessId{0}).note_rejected();
      }
    }
    if (r != AdmissionResult::kAdmitted) {
      ++stats_.preloads_shed;
      if (log_ != nullptr) {
        log_->record({.at = now, .type = EventType::kAdmission, .page = page,
                      .detail = to_string(r)});
      }
      return;
    }
  }
  // Prefetches queue like preloads (no demand priority); demand faults
  // never flush them — the app explicitly asked for the page.
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kSipPrefetch, .page = page});
  }
  schedule_load(page, now, OpKind::kSipLoad);
  ++stats_.sip_prefetches;
}

void Driver::advance_to(Cycles now) {
  if (now < bookkept_until_) {
    now = bookkept_until_;
  }
  // Hoisted out of the loop: in the default (non-hardened) config every
  // completion commits directly, with no retry bookkeeping to consult.
  const bool hard = hardened();
  while (next_scan_ <= now) {
    if (chaos_ != nullptr) {
      // The injector may stall the service thread: the scan slips, so
      // commits and DFP counter updates arrive late. The stall is strictly
      // positive, so the loop always makes progress.
      const Cycles stall = chaos_->stall_scan(next_scan_, costs_.scan_period);
      if (stall > 0) {
        ++stats_.scan_stalls;
        chaos_dirty_ = true;
        next_scan_ += stall;
        continue;
      }
    }
    obs::ScopedSpan scan_span(prof_, obs::Phase::kScan);
    if (channel_.completion_due(next_scan_)) {
      commit_completed(next_scan_, hard);
    }
    if (hard) {
      sweep_lost_ops(next_scan_);
    }
    ++stats_.scans;
    if (log_ != nullptr) {
      log_->record({.at = next_scan_, .type = EventType::kScan});
    }
    if (policy_ != nullptr) {
      if (chaos_ != nullptr && chaos_->lose_predictor_state(next_scan_)) {
        chaos_dirty_ = true;
        policy_->on_state_lost(next_scan_);
      }
      policy_->on_scan(page_table_, next_scan_);
    }
    if (series_ != nullptr) {
      sample_time_series(next_scan_);
    }
    watchdog_tick(next_scan_);
    if (admission_active()) {
      admission_windows(next_scan_);
    }
    if (elastic_engaged_) {
      elastic_rebalance(next_scan_);
    }
    next_scan_ += costs_.scan_period;
  }
  // Most clock advances (every resident access) land before the next
  // completion, so the harvest is skipped unless one is due.
  if (channel_.completion_due(now)) {
    commit_completed(now, hard);
  }
  if (hard) {
    sweep_lost_ops(now);
  }
  bookkept_until_ = now;
}

void Driver::commit_completed(Cycles now, bool hard) {
  for (const auto& op : channel_.collect_completed(now)) {
    if (!hard || op.kind != OpKind::kDfpPreload) {
      commit_load(op);
    } else {
      deliver_completion(op);
    }
  }
}

void Driver::watchdog_tick(Cycles now) {
  if (config_.watchdog_scan_interval == 0) {
    return;
  }
  ++scans_since_watchdog_;
  if (!chaos_dirty_ &&
      scans_since_watchdog_ < config_.watchdog_scan_interval) {
    return;
  }
  if (full_sweep_due()) {
    full_sweep();
  } else {
    incremental_sweep();
  }
  ++stats_.watchdog_checks;
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kWatchdog,
                  .aux = stats_.scans});
  }
  scans_since_watchdog_ = 0;
  chaos_dirty_ = false;
}

Cycles Driver::drain() {
  Cycles end = std::max(bookkept_until_, channel_.completion_time());
  advance_to(end);
  // Hardened mode: lost ops may still be waiting on their deadlines, and
  // re-issues put fresh work on the channel. Keep advancing past the
  // furthest deadline/completion until both settle — every lost op exits
  // within max_retries attempts, so this terminates.
  while (!lost_ops_.empty() || !channel_.idle(bookkept_until_)) {
    Cycles next = std::max(bookkept_until_, channel_.completion_time());
    for (const auto& lo : lost_ops_) {
      next = std::max(next, lo.deadline);
    }
    advance_to(next);
    end = std::max(end, bookkept_until_);
  }
  return end;
}

PageNum Driver::effective_capacity(Cycles now) const {
  PageNum real = epc_.capacity();
  if (capacity_limit_ > 0 && capacity_limit_ < real) {
    real = capacity_limit_;
  }
  if (chaos_ == nullptr) {
    return std::max<PageNum>(real, 1);
  }
  // Chaos squeezes see the physical capacity (their contract predates the
  // elastic-pool limit); the tighter of the two caps wins.
  const PageNum cap = chaos_->effective_epc_capacity(epc_.capacity(), now);
  return std::clamp<PageNum>(std::min(cap, real), 1, epc_.capacity());
}

Cycles Driver::load_duration(OpKind kind, Cycles at) {
  // Whether this load will need to evict first: every queued op is itself a
  // load that will consume a slot before this one runs.
  const bool needs_evict = page_table_.resident_count() + channel_.queued() >=
                           effective_capacity(at);
  Cycles base =
      costs_.epc_load + (needs_evict ? costs_.epc_evict : 0) +
      (kind == OpKind::kDfpPreload ? costs_.preload_dispatch : 0);
  if (channel_slowdown_milli_ != 1000) {
    base = std::max<Cycles>(1, base * channel_slowdown_milli_ / 1000);
  }
  if (chaos_ == nullptr) {
    return base;
  }
  const Cycles perturbed = chaos_->perturb_load_duration(kind, base, at);
  SGXPL_CHECK_MSG(perturbed > 0, "chaos produced a zero-length load");
  if (perturbed != base) {
    chaos_dirty_ = true;
  }
  return perturbed;
}

const ChannelOp& Driver::schedule_load(PageNum page, Cycles earliest,
                                       OpKind kind, ProcessId pid,
                                       std::uint32_t attempt) {
  // Never schedule into the already-bookkept past (callers may legally
  // pass clocks that lag the driver's horizon, e.g. multi-enclave apps).
  earliest = std::max(earliest, bookkept_until_);
  const auto& op =
      channel_.schedule(earliest, load_duration(kind, earliest), page, kind,
                        pid, attempt, hardened() ? deadline_slack() : 0);
  if (log_ != nullptr) {
    log_->record({.at = op.start, .type = EventType::kLoadScheduled,
                  .page = page, .aux = op.end, .detail = to_string(kind)});
  }
  return op;
}

const ChannelOp& Driver::schedule_load_priority(PageNum page, Cycles earliest,
                                                OpKind kind, ProcessId pid) {
  earliest = std::max(earliest, bookkept_until_);
  // Backpressure: a demand-class load arriving past the high-water mark
  // evicts the newest queued preloads — demand is never rejected, preloads
  // are shed first.
  if (channel_.bounded() && channel_.queued() >= channel_.high_water()) {
    std::vector<PageNum> shed;
    while (channel_.queued() >= channel_.high_water()) {
      const auto victim = channel_.shed_newest_preload(earliest);
      if (!victim.has_value()) {
        break;
      }
      shed.push_back(victim->page);
      ++stats_.queued_preload_evictions;
      if (log_ != nullptr) {
        log_->record({.at = earliest, .type = EventType::kAdmission,
                      .page = victim->page, .detail = "queue-evict"});
      }
    }
    if (!shed.empty() && policy_ != nullptr) {
      policy_->on_preloads_shed(shed, earliest);
    }
  }
  const auto& op = channel_.schedule_priority(
      earliest, load_duration(kind, earliest), page, kind, pid, 0,
      hardened() ? deadline_slack() : 0);
  if (log_ != nullptr) {
    log_->record({.at = op.start, .type = EventType::kLoadScheduled,
                  .page = page, .aux = op.end, .detail = to_string(kind)});
  }
  return op;
}

AdmissionResult Driver::submit_preload(ProcessId pid, PageNum page,
                                       Cycles earliest) {
  if (draining(pid)) {
    // Stop-and-copy window: the tenant's speculative work is shed so the
    // final migration delta stops growing. Self-inflicted, so no window
    // evidence — exactly like a degraded-level rejection.
    ++stats_.preloads_shed;
    if (log_ != nullptr) {
      log_->record({.at = std::max(earliest, bookkept_until_),
                    .type = EventType::kAdmission, .page = page,
                    .detail = to_string(AdmissionResult::kRejectedDegraded)});
    }
    return AdmissionResult::kRejectedDegraded;
  }
  if (!admission_active() && !channel_.bounded()) {
    // Seed fast path: no admission layer configured at all.
    schedule_load(page, earliest, OpKind::kDfpPreload, pid);
    return AdmissionResult::kAdmitted;
  }
  AdmissionResult r = AdmissionResult::kAdmitted;
  if (admission_active()) {
    AdmissionController& t = tenant(pid);
    if (!t.preloads_allowed()) {
      // Self-inflicted rejection: deliberately NOT window evidence, or a
      // demoted tenant could never look healthy again.
      r = AdmissionResult::kRejectedDegraded;
    } else {
      const std::size_t quota = t.preload_quota(channel_.config().max_queued);
      if (quota > 0 && channel_.queued_preloads_for(pid) >= quota) {
        r = AdmissionResult::kRejectedQuota;
        t.note_rejected();
      }
    }
  }
  if (r == AdmissionResult::kAdmitted) {
    const Cycles at = std::max(earliest, bookkept_until_);
    const ChannelOp* op = nullptr;
    r = channel_.try_schedule(at, load_duration(OpKind::kDfpPreload, at), page,
                              OpKind::kDfpPreload, pid, 0,
                              hardened() ? deadline_slack() : 0, &op);
    if (r == AdmissionResult::kAdmitted) {
      if (admission_active()) {
        tenant(pid).note_admitted();
      }
      if (log_ != nullptr) {
        log_->record({.at = op->start, .type = EventType::kLoadScheduled,
                      .page = page, .aux = op->end,
                      .detail = to_string(OpKind::kDfpPreload)});
      }
      return r;
    }
    if (admission_active()) {
      tenant(pid).note_rejected();
    }
  }
  ++stats_.preloads_shed;
  if (log_ != nullptr) {
    log_->record({.at = std::max(earliest, bookkept_until_),
                  .type = EventType::kAdmission, .page = page,
                  .detail = to_string(r)});
  }
  return r;
}

void Driver::deliver_completion(const ChannelOp& op) {
  if (!hardened() || op.kind != OpKind::kDfpPreload) {
    commit_load(op);
    return;
  }
  if (already_completed(op.id)) {
    // Idempotent suppression of a duplicated completion: the op already
    // committed, so this delivery must change neither residency nor stats.
    ++stats_.duplicate_completions;
    if (log_ != nullptr) {
      log_->record({.at = op.end, .type = EventType::kRetry, .page = op.page,
                    .detail = "duplicate"});
    }
    return;
  }
  if (chaos_ != nullptr && chaos_->drop_preload_completion(op.page, op.end)) {
    // Hardened reinterpretation of the drop class: the worker crashed
    // between the ELDU and publishing the mapping, so the load's effects
    // are lost entirely (channel time was still spent). The retry sweep
    // owns the op from here — nothing is lost silently.
    chaos_dirty_ = true;
    channel_busy_total_ += op.end - op.start;
    ++stats_.lost_completions;
    lost_ops_.push_back(LostOp{.id = op.id, .page = op.page, .pid = op.pid,
                               .attempt = op.attempt,
                               .deadline = op.deadline});
    if (log_ != nullptr) {
      log_->record({.at = op.end, .type = EventType::kRetry, .page = op.page,
                    .detail = "lost"});
    }
    return;
  }
  commit_load(op);
  note_completed(op.id);
  if (chaos_ != nullptr &&
      chaos_->duplicate_preload_completion(op.page, op.end)) {
    chaos_dirty_ = true;
    deliver_completion(op);  // second delivery; the id ring suppresses it
  }
}

void Driver::sweep_lost_ops(Cycles now) {
  if (lost_ops_.empty()) {
    return;
  }
  obs::ScopedSpan span(prof_, obs::Phase::kRetrySweep);
  std::vector<LostOp> keep;
  keep.reserve(lost_ops_.size());
  for (const LostOp& lo : lost_ops_) {
    if (lo.deadline > now) {
      keep.push_back(lo);
      continue;
    }
    if (page_table_.present(lo.page) || channel_.find(lo.page).has_value()) {
      // Another load (demand fault, fresh prediction) made the retry moot.
      ++stats_.retries_resolved;
      continue;
    }
    if (lo.attempt >= config_.channel.max_retries) {
      ++stats_.permanent_faults;
      if (admission_active()) {
        tenant(lo.pid).note_permanent();
      }
      if (log_ != nullptr) {
        log_->record({.at = now, .type = EventType::kRetry, .page = lo.page,
                      .detail = "permanent"});
      }
      if (policy_ != nullptr) {
        policy_->on_preloads_aborted({lo.page}, now);
      }
      continue;
    }
    // Capped exponential backoff, jittered from the dedicated retry stream.
    const Cycles base = retry_backoff_base();
    const Cycles backoff = base << std::min<std::uint32_t>(lo.attempt, 6);
    const Cycles jitter = retry_rng_.bounded(base / 2 + 1);
    const Cycles at = now + backoff + jitter;
    if (channel_.full()) {
      // No slot: the attempt is consumed and the op waits out the backoff.
      LostOp deferred = lo;
      deferred.attempt += 1;
      deferred.deadline = at;
      keep.push_back(deferred);
      continue;
    }
    schedule_load(lo.page, at, OpKind::kDfpPreload, lo.pid, lo.attempt + 1);
    ++stats_.retries;
    if (admission_active()) {
      tenant(lo.pid).note_retry();
    }
    if (log_ != nullptr) {
      log_->record({.at = now, .type = EventType::kRetry, .page = lo.page,
                    .detail = "reissue"});
    }
  }
  lost_ops_.swap(keep);
}

void Driver::admission_windows(Cycles now) {
  int worst = 0;
  for (std::size_t pid = 0; pid < tenants_.size(); ++pid) {
    AdmissionController& t = tenants_[pid];
    const int delta = t.on_window();
    if (delta < 0) {
      ++stats_.degrade_demotions;
      if (elastic_engaged_ && pid < elastic_.tenant_count()) {
        // The ladder judged this tenant overloaded: that verdict doubles as
        // the elastic controller's multiplicative-decrease signal.
        elastic_.note_demotion(pid);
      }
    } else if (delta > 0) {
      ++stats_.degrade_promotions;
    }
    if (delta != 0 && log_ != nullptr) {
      log_->record({.at = now, .type = EventType::kDegrade,
                    .page = static_cast<PageNum>(pid),
                    .detail = to_string(t.level())});
    }
    worst = std::max(worst, static_cast<int>(t.level()));
  }
  if (degrade_gauge_ != nullptr) {
    degrade_gauge_->set(worst);
  }
}

AdmissionController& Driver::tenant(ProcessId pid) {
  if (tenants_.size() <= pid) {
    tenants_.resize(pid + 1, AdmissionController(config_.admission));
  }
  return tenants_[pid];
}

DegradeLevel Driver::degrade_level(ProcessId pid) const noexcept {
  return pid < tenants_.size() ? tenants_[pid].level()
                               : DegradeLevel::kFullPreload;
}

void Driver::begin_drain(ProcessId pid) {
  if (drain_flags_.size() <= pid) {
    drain_flags_.resize(pid + 1, 0);
  }
  if (drain_flags_[pid] == 0) {
    drain_flags_[pid] = 1;
    ++draining_count_;
  }
  if (admission_active()) {
    tenant(pid).begin_drain();
  }
}

void Driver::end_drain(ProcessId pid) {
  if (pid < drain_flags_.size() && drain_flags_[pid] != 0) {
    drain_flags_[pid] = 0;
    --draining_count_;
  }
  if (admission_active() && pid < tenants_.size()) {
    tenants_[pid].end_drain();
  }
}

bool Driver::draining(ProcessId pid) const noexcept {
  return draining_count_ != 0 && pid < drain_flags_.size() &&
         drain_flags_[pid] != 0;
}

void Driver::set_elastic_geometry(
    const std::vector<std::pair<PageNum, PageNum>>& tenants) {
  SGXPL_CHECK_MSG(config_.elastic.enabled,
                  "set_elastic_geometry without elastic.enabled");
  SGXPL_CHECK_MSG(config_.eviction == EvictionKind::kClock,
                  "elastic quota enforcement requires the CLOCK policy "
                  "(its sweep is what the range-restricted reclaim reuses)");
  SGXPL_CHECK_MSG(stats_.accesses == 0,
                  "elastic geometry must be declared before the first access");
  SGXPL_CHECK_MSG(!tenants.empty(), "elastic geometry with zero tenants");
  elastic_.configure(config_.elastic, epc_.capacity());
  for (const auto& [lo, pages] : tenants) {
    elastic_.add_tenant(lo, pages);
  }
  elastic_.finalize();
  elastic_engaged_ = true;
  wd_resident_.assign(elastic_.tenant_count(), 0);
}

void Driver::elastic_rebalance(Cycles now) {
  obs::ScopedSpan span(prof_, obs::Phase::kElasticRebalance);
  double utilization = 0.0;
  if (now > el_last_at_) {
    utilization = std::min(
        1.0, static_cast<double>(channel_busy_total_ - el_last_busy_) /
                 static_cast<double>(now - el_last_at_));
  }
  el_last_at_ = now;
  el_last_busy_ = channel_busy_total_;
  elastic_.rebalance(utilization, drain_flags_);
  if (series_ != nullptr) {
    series_->series("epc.elastic.free_pool")
        .add(now, static_cast<double>(elastic_.free_pool()));
  }
}

bool Driver::already_completed(std::uint64_t op_id) const noexcept {
  return std::find(completed_ring_.begin(), completed_ring_.end(), op_id) !=
         completed_ring_.end();
}

void Driver::note_completed(std::uint64_t op_id) {
  completed_ring_[completed_pos_] = op_id;
  completed_pos_ = (completed_pos_ + 1) % completed_ring_.size();
}

void Driver::sample_time_series(Cycles now) {
  if (now <= ts_last_at_) {
    return;
  }
  const double dt = static_cast<double>(now - ts_last_at_);
  series_->series("driver.faults_per_mcycle")
      .add(now, static_cast<double>(stats_.faults - ts_last_faults_) * 1e6 /
                    dt);
  series_->series("epc.occupancy")
      .add(now, static_cast<double>(epc_.used()) /
                    static_cast<double>(epc_.capacity()));
  series_->series("channel.utilization")
      .add(now, std::min(1.0, static_cast<double>(channel_busy_total_ -
                                                  ts_last_busy_) /
                                  dt));
  const std::uint64_t completed =
      stats_.preloads_completed - ts_last_preloads_completed_;
  if (completed > 0) {
    series_->series("dfp.preload_accuracy")
        .add(now, static_cast<double>(stats_.preloads_used -
                                      ts_last_preloads_used_) /
                      static_cast<double>(completed));
  }
  ts_last_at_ = now;
  ts_last_busy_ = channel_busy_total_;
  ts_last_faults_ = stats_.faults;
  ts_last_preloads_used_ = stats_.preloads_used;
  ts_last_preloads_completed_ = stats_.preloads_completed;
}

void Driver::flush_queued_preloads(Cycles now) {
  auto aborted = channel_.abort_not_started(now, OpKind::kDfpPreload);
  if (aborted.empty()) {
    return;
  }
  stats_.preloads_aborted += aborted.size();
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kLoadsAborted,
                  .page = aborted.size()});
  }
  if (policy_ != nullptr) {
    std::vector<PageNum> pages;
    pages.reserve(aborted.size());
    for (const auto& op : aborted) {
      pages.push_back(op.page);
    }
    policy_->on_preloads_aborted(pages, now);
  }
}

void Driver::commit_load(const ChannelOp& op) {
  SGXPL_CHECK_MSG(!page_table_.present(op.page),
                  "load committed for already-resident page " << op.page);
  channel_busy_total_ += op.end - op.start;
  if (elastic_engaged_) {
    // Elastic quota enforcement — EDMM's lazy EACCEPT of a removal: a
    // shrink only moved the quota; the pages above it are reclaimed here,
    // from the owner's own ELRANGE slice, as its next load commits. One
    // iteration per page keeps a deep multiplicative decrease incremental.
    const std::size_t t = elastic_.owner(op.page);
    while (elastic_.resident(t) >= elastic_.quota(t) &&
           elastic_.resident(t) > 0) {
      obs::ScopedSpan span(prof_, obs::Phase::kEviction);
      const PageNum victim = epc_.choose_victim_in(
          page_table_, elastic_.lo(t), elastic_.hi(t), op.page);
      if (victim == kInvalidPage) {
        break;  // nothing evictable in range (all in flight/pinned)
      }
      elastic_.note_quota_eviction();
      evict_page(victim);
    }
  }
  // A transient EPC squeeze (co-tenant pressure via the chaos hooks) can
  // demand more than one eviction to get under the shrunken capacity; the
  // loop degenerates to the single full-EPC eviction without chaos.
  const PageNum cap = effective_capacity(op.end);
  if (chaos_ != nullptr && cap < epc_.capacity()) {
    chaos_dirty_ = true;
  }
  while (epc_.used() >= cap && epc_.used() > 0) {
    if (!epc_.full()) {
      ++stats_.squeeze_evictions;
    }
    evict_one(op.page);
  }
  const SlotIndex slot = epc_.allocate(op.page);
  page_table_.map(op.page, slot, /*via_preload=*/op.kind != OpKind::kDemandLoad);
  if (op.kind == OpKind::kDemandLoad) {
    // The faulting access completes as soon as the page lands, so the
    // hardware sets its access bit immediately — giving the page a CLOCK
    // second chance against evictions committed in the same window.
    page_table_.touch(op.page);
  }
  eviction_->on_load(op.page);
  // ELDU: verify against the anti-replay version from the last EWB.
  (void)backing_.load(op.page);
  bitmap_.set(op.page);
  if (elastic_engaged_) {
    elastic_.note_mapped(op.page);
  }
  note_residency(op.page, /*mapped=*/true);
  if (log_ != nullptr) {
    log_->record({.at = op.end, .type = EventType::kLoadCommitted,
                  .page = op.page, .detail = to_string(op.kind)});
  }
  if (op.kind == OpKind::kDfpPreload) {
    ++stats_.preloads_completed;
    if (policy_ != nullptr) {
      if (hardened()) {
        // Drop/dup were already resolved in deliver_completion: a dropped
        // op never reaches here and a duplicated one commits exactly once,
        // so the policy sees exactly one notification per landed preload.
        policy_->on_preload_completed(op.page, op.end);
      } else {
        // Seed semantics: the kernel worker's completion notification is
        // the one DFP input chaos can drop or duplicate — the page is
        // resident either way, only the policy's bookkeeping goes stale
        // (and must tolerate it).
        const bool drop = chaos_ != nullptr &&
                          chaos_->drop_preload_completion(op.page, op.end);
        if (!drop) {
          policy_->on_preload_completed(op.page, op.end);
          if (chaos_ != nullptr &&
              chaos_->duplicate_preload_completion(op.page, op.end)) {
            chaos_dirty_ = true;
            policy_->on_preload_completed(op.page, op.end);
          }
        } else {
          chaos_dirty_ = true;
        }
      }
    }
  }
}

void Driver::evict_one(PageNum pinned) {
  obs::ScopedSpan span(prof_, obs::Phase::kEviction);
  PageNum victim = kInvalidPage;
  if (elastic_engaged_) {
    // Capacity pressure reclaims deferred-shrink debt first: the tenant
    // furthest over its quota pays before anyone under quota loses a page.
    if (const auto over = elastic_.most_over_quota()) {
      victim = epc_.choose_victim_in(page_table_, elastic_.lo(*over),
                                     elastic_.hi(*over), pinned);
    }
  }
  if (victim == kInvalidPage) {
    victim = eviction_->victim(page_table_, pinned);
  }
  evict_page(victim);
}

void Driver::evict_page(PageNum victim) {
  eviction_->on_unload(victim);
  const PageTableEntry prior = page_table_.unmap(victim);
  epc_.release(prior.slot);
  backing_.evict(victim);
  bitmap_.clear(victim);
  if (elastic_engaged_) {
    elastic_.note_unmapped(victim);
  }
  note_residency(victim, /*mapped=*/false);
  ++stats_.evictions;
  if (log_ != nullptr) {
    log_->record({.at = bookkept_until_, .type = EventType::kEviction,
                  .page = victim});
  }
  if (prior.preloaded) {
    ++stats_.preloads_evicted_unused;
    if (policy_ != nullptr) {
      policy_->on_preloaded_page_evicted(victim, /*was_accessed=*/false,
                                         bookkept_until_);
    }
  }
}

std::string Driver::describe_page(PageNum p) const {
  const SlotIndex slot = page_table_.entry(p).slot;
  std::ostringstream os;
  os << "page " << p;
  if (page_table_.present(p)) {
    os << " is mapped to slot " << slot;
    if (slot < epc_.capacity()) {
      os << ", which holds page " << epc_.page_at(slot);
    }
  } else {
    os << " is not mapped";
  }
  os << "; its bitmap bit is " << (bitmap_.test(p) ? "set" : "clear");
  return os.str();
}

void Driver::check_tenants(const std::vector<PageNum>& resident) const {
  for (std::size_t t = 0; t < resident.size(); ++t) {
    SGXPL_CHECK_MSG(resident[t] == elastic_.resident(t),
                    "elastic resident count for tenant "
                        << t << " is " << elastic_.resident(t)
                        << " but the page table holds " << resident[t]);
  }
  elastic_.check_conservation();
}

void Driver::check_invariants() const {
  const PageBits& present = page_table_.present_bits();
  SGXPL_CHECK(present.count() == epc_.used());
  SGXPL_CHECK(bitmap_.popcount() == epc_.used());
  // 1. The bitmap mirrors the present bits word for word: ELRANGE/64 steps.
  const PageNum differs = present.first_difference(bitmap_.bits());
  SGXPL_CHECK_MSG(differs == present.size(), describe_page(differs));
  // 2. Each occupied slot holds a present page that maps back to it. With
  // as many occupied slots as present pages, every present page then sits
  // in a slot that holds it.
  PageNum occupied = 0;
  for (SlotIndex s = 0; s < epc_.capacity(); ++s) {
    const PageNum p = epc_.page_at(s);
    if (p == kInvalidPage) continue;
    ++occupied;
    SGXPL_CHECK_MSG(p < present.size(),
                    "EPC slot " << s << " holds page " << p
                                << " outside the ELRANGE");
    SGXPL_CHECK_MSG(present.test(p) && page_table_.entry(p).slot == s,
                    "EPC slot " << s << " holds page " << p << ", but "
                                << describe_page(p));
  }
  SGXPL_CHECK(occupied == epc_.used());
  // 3. Each elastic tenant's resident pages, counted over its range.
  if (elastic_engaged_) {
    std::vector<PageNum> resident(elastic_.tenant_count());
    PageNum in_tenants = 0;
    for (std::size_t t = 0; t < resident.size(); ++t) {
      resident[t] = present.count(elastic_.lo(t), elastic_.hi(t));
      in_tenants += resident[t];
    }
    SGXPL_CHECK_MSG(in_tenants == present.count(),
                    present.count() - in_tenants
                        << " resident pages lie outside every elastic "
                           "tenant range");
    check_tenants(resident);
  }
}

bool Driver::full_sweep_due() const noexcept {
  // The cadence keys off stats_.scans, not scans_since_watchdog_: under
  // constant chaos every sweep resets the latter, so it never reaches the
  // interval. Without chaos each sweep lands in a new window, so all are full.
  return stats_.scans / config_.watchdog_scan_interval != wd_full_window_ ||
         wd_changes_.size() >= config_.elrange_pages;
}

void Driver::full_sweep() {
  check_invariants();
  wd_changes_.clear();
  for (std::size_t t = 0; t < wd_resident_.size(); ++t) {
    wd_resident_[t] = elastic_.resident(t);
  }
  if (config_.watchdog_scan_interval != 0) {
    wd_full_window_ = stats_.scans / config_.watchdog_scan_interval;
  }
}

void Driver::incremental_sweep() {
  SGXPL_CHECK(page_table_.resident_count() == epc_.used());
  SGXPL_CHECK(bitmap_.popcount() == epc_.used());
  for (const ResidencyChange& c : wd_changes_) {
    SGXPL_CHECK_MSG(page_consistent(c.page), describe_page(c.page));
    if (elastic_engaged_) {
      PageNum& n = wd_resident_[elastic_.owner(c.page)];
      n = c.mapped ? n + 1 : n - 1;
    }
  }
  wd_changes_.clear();
  if (elastic_engaged_) {
    check_tenants(wd_resident_);
  }
}

void DriverStats::save(snapshot::Writer& w) const {
  w.u64("stats.accesses", accesses);
  w.u64("stats.faults", faults);
  w.u64("stats.demand_loads", demand_loads);
  w.u64("stats.fault_wait_hits", fault_wait_hits);
  w.u64("stats.preloads_issued", preloads_issued);
  w.u64("stats.preloads_completed", preloads_completed);
  w.u64("stats.preloads_aborted", preloads_aborted);
  w.u64("stats.preloads_used", preloads_used);
  w.u64("stats.preloads_evicted_unused", preloads_evicted_unused);
  w.u64("stats.sip_loads", sip_loads);
  w.u64("stats.sip_inflight_waits", sip_inflight_waits);
  w.u64("stats.sip_prefetches", sip_prefetches);
  w.u64("stats.evictions", evictions);
  w.u64("stats.scans", scans);
  w.u64("stats.scan_stalls", scan_stalls);
  w.u64("stats.watchdog_checks", watchdog_checks);
  w.u64("stats.bitmap_lies", bitmap_lies);
  w.u64("stats.squeeze_evictions", squeeze_evictions);
  w.u64("stats.preloads_shed", preloads_shed);
  w.u64("stats.queued_preload_evictions", queued_preload_evictions);
  w.u64("stats.lost_completions", lost_completions);
  w.u64("stats.retries", retries);
  w.u64("stats.retries_resolved", retries_resolved);
  w.u64("stats.permanent_faults", permanent_faults);
  w.u64("stats.duplicate_completions", duplicate_completions);
  w.u64("stats.degrade_demotions", degrade_demotions);
  w.u64("stats.degrade_promotions", degrade_promotions);
  w.u64("stats.fault_stall_cycles", fault_stall_cycles);
  w.u64("stats.sip_stall_cycles", sip_stall_cycles);
}

void DriverStats::load(snapshot::Reader& r) {
  accesses = r.u64("stats.accesses");
  faults = r.u64("stats.faults");
  demand_loads = r.u64("stats.demand_loads");
  fault_wait_hits = r.u64("stats.fault_wait_hits");
  preloads_issued = r.u64("stats.preloads_issued");
  preloads_completed = r.u64("stats.preloads_completed");
  preloads_aborted = r.u64("stats.preloads_aborted");
  preloads_used = r.u64("stats.preloads_used");
  preloads_evicted_unused = r.u64("stats.preloads_evicted_unused");
  sip_loads = r.u64("stats.sip_loads");
  sip_inflight_waits = r.u64("stats.sip_inflight_waits");
  sip_prefetches = r.u64("stats.sip_prefetches");
  evictions = r.u64("stats.evictions");
  scans = r.u64("stats.scans");
  scan_stalls = r.u64("stats.scan_stalls");
  watchdog_checks = r.u64("stats.watchdog_checks");
  bitmap_lies = r.u64("stats.bitmap_lies");
  squeeze_evictions = r.u64("stats.squeeze_evictions");
  preloads_shed = r.u64("stats.preloads_shed");
  queued_preload_evictions = r.u64("stats.queued_preload_evictions");
  lost_completions = r.u64("stats.lost_completions");
  retries = r.u64("stats.retries");
  retries_resolved = r.u64("stats.retries_resolved");
  permanent_faults = r.u64("stats.permanent_faults");
  duplicate_completions = r.u64("stats.duplicate_completions");
  degrade_demotions = r.u64("stats.degrade_demotions");
  degrade_promotions = r.u64("stats.degrade_promotions");
  fault_stall_cycles = r.u64("stats.fault_stall_cycles");
  sip_stall_cycles = r.u64("stats.sip_stall_cycles");
}

void Driver::save_drvr_fields(snapshot::Writer& w) const {
  w.str("driver.eviction", eviction_->name());
  w.u64("driver.next_scan", next_scan_);
  w.u64("driver.bookkept_until", bookkept_until_);
  w.u64("driver.scans_since_watchdog", scans_since_watchdog_);
  w.boolean("driver.chaos_dirty", chaos_dirty_);
  w.u64("driver.channel_busy_total", channel_busy_total_);
  w.u64("driver.ts_last_at", ts_last_at_);
  w.u64("driver.ts_last_busy", ts_last_busy_);
  w.u64("driver.ts_last_faults", ts_last_faults_);
  w.u64("driver.ts_last_preloads_used", ts_last_preloads_used_);
  w.u64("driver.ts_last_preloads_completed", ts_last_preloads_completed_);
  // --- overload-hardening state (retry sweep, dup ring, ladder) ---
  w.boolean("driver.hardened", hardened());
  w.boolean("driver.admission", admission_active());
  w.u64_vec("driver.retry_rng",
            std::vector<std::uint64_t>(retry_rng_.state().begin(),
                                       retry_rng_.state().end()));
  std::vector<std::uint64_t> lost_ids, lost_pages, lost_pids, lost_attempts,
      lost_deadlines;
  lost_ids.reserve(lost_ops_.size());
  for (const auto& lo : lost_ops_) {
    lost_ids.push_back(lo.id);
    lost_pages.push_back(lo.page);
    lost_pids.push_back(lo.pid);
    lost_attempts.push_back(lo.attempt);
    lost_deadlines.push_back(lo.deadline);
  }
  w.u64_vec("driver.lost_ids", lost_ids);
  w.u64_vec("driver.lost_pages", lost_pages);
  w.u64_vec("driver.lost_pids", lost_pids);
  w.u64_vec("driver.lost_attempts", lost_attempts);
  w.u64_vec("driver.lost_deadlines", lost_deadlines);
  w.u64_vec("driver.completed_ring", completed_ring_);
  w.u64("driver.completed_pos", completed_pos_);
  w.u64("driver.tenants", tenants_.size());
  for (const auto& t : tenants_) {
    t.save(w);
  }
  stats_.save(w);
  channel_.save(w);
  eviction_->save(w);
  if (elastic_engaged_) {
    // Gated on engagement (part of the snapshot identity via overload_spec):
    // default-config frames stay byte-identical to the seed.
    w.u64("driver.el_last_at", el_last_at_);
    w.u64("driver.el_last_busy", el_last_busy_);
    elastic_.save(w);
  }
}

void Driver::load_drvr_fields(snapshot::Reader& r) {
  const std::string eviction_name = r.str("driver.eviction");
  SGXPL_CHECK_MSG(eviction_name == eviction_->name(),
                  "snapshot was taken with eviction policy '"
                      << eviction_name << "' but this driver runs '"
                      << eviction_->name() << "'");
  next_scan_ = r.u64("driver.next_scan");
  bookkept_until_ = r.u64("driver.bookkept_until");
  scans_since_watchdog_ = r.u64("driver.scans_since_watchdog");
  chaos_dirty_ = r.boolean("driver.chaos_dirty");
  channel_busy_total_ = r.u64("driver.channel_busy_total");
  ts_last_at_ = r.u64("driver.ts_last_at");
  ts_last_busy_ = r.u64("driver.ts_last_busy");
  ts_last_faults_ = r.u64("driver.ts_last_faults");
  ts_last_preloads_used_ = r.u64("driver.ts_last_preloads_used");
  ts_last_preloads_completed_ = r.u64("driver.ts_last_preloads_completed");
  const bool was_hardened = r.boolean("driver.hardened");
  SGXPL_CHECK_MSG(was_hardened == hardened(),
                  "snapshot retry hardening does not match this driver");
  const bool had_admission = r.boolean("driver.admission");
  SGXPL_CHECK_MSG(had_admission == admission_active(),
                  "snapshot admission control does not match this driver");
  const std::vector<std::uint64_t> rng_state = r.u64_vec("driver.retry_rng");
  SGXPL_CHECK_MSG(rng_state.size() == 4,
                  "snapshot retry-rng state has " << rng_state.size()
                                                  << " words, want 4");
  retry_rng_.set_state(
      {rng_state[0], rng_state[1], rng_state[2], rng_state[3]});
  const std::vector<std::uint64_t> lost_ids = r.u64_vec("driver.lost_ids");
  const std::vector<std::uint64_t> lost_pages = r.u64_vec("driver.lost_pages");
  const std::vector<std::uint64_t> lost_pids = r.u64_vec("driver.lost_pids");
  const std::vector<std::uint64_t> lost_attempts =
      r.u64_vec("driver.lost_attempts");
  const std::vector<std::uint64_t> lost_deadlines =
      r.u64_vec("driver.lost_deadlines");
  SGXPL_CHECK_MSG(lost_ids.size() == lost_pages.size() &&
                      lost_ids.size() == lost_pids.size() &&
                      lost_ids.size() == lost_attempts.size() &&
                      lost_ids.size() == lost_deadlines.size(),
                  "snapshot lost-op columns are misaligned");
  lost_ops_.clear();
  for (std::size_t i = 0; i < lost_ids.size(); ++i) {
    lost_ops_.push_back(
        LostOp{.id = lost_ids[i], .page = lost_pages[i],
               .pid = static_cast<ProcessId>(lost_pids[i]),
               .attempt = static_cast<std::uint32_t>(lost_attempts[i]),
               .deadline = lost_deadlines[i]});
  }
  completed_ring_ = r.u64_vec("driver.completed_ring");
  SGXPL_CHECK_MSG(!completed_ring_.empty(),
                  "snapshot completed-op ring is empty");
  completed_pos_ = r.u64("driver.completed_pos");
  SGXPL_CHECK_MSG(completed_pos_ < completed_ring_.size(),
                  "snapshot completed-op ring cursor out of range");
  const std::uint64_t tenant_count = r.u64("driver.tenants");
  tenants_.assign(tenant_count, AdmissionController(config_.admission));
  for (auto& t : tenants_) {
    t.load(r);
  }
  stats_.load(r);
  channel_.load(r);
  eviction_->load(r);
  if (elastic_engaged_) {
    el_last_at_ = r.u64("driver.el_last_at");
    el_last_busy_ = r.u64("driver.el_last_busy");
    elastic_.load(r);
  }
}

void Driver::save_sections(snapshot::Writer& w) const {
  w.begin_section("DRVR");
  save_drvr_fields(w);
  w.end_section();
  w.begin_section("PGTB");
  page_table_.save(w);
  w.end_section();
  w.begin_section("EPCC");
  epc_.save(w);
  w.end_section();
  w.begin_section("BMAP");
  bitmap_.save(w);
  w.end_section();
  w.begin_section("BSTR");
  backing_.save(w);
  w.end_section();
}

void Driver::load_sections(snapshot::Reader& r) {
  r.enter_section("DRVR");
  load_drvr_fields(r);
  r.leave_section();
  r.enter_section("PGTB");
  page_table_.load(r);
  r.leave_section();
  r.enter_section("EPCC");
  epc_.load(r);
  r.leave_section();
  r.enter_section("BMAP");
  bitmap_.load(r);
  r.leave_section();
  r.enter_section("BSTR");
  backing_.load(r);
  r.leave_section();
  full_sweep();
}

void Driver::save_delta_sections(snapshot::Writer& w) const {
  w.begin_section("DRVR");
  save_drvr_fields(w);
  w.end_section();
  if (page_table_.changed()) {
    w.begin_section("PGTD");
    page_table_.save_delta(w);
    w.end_section();
  }
  if (epc_.changed()) {
    w.begin_section("EPCD");
    epc_.save_delta(w);
    w.end_section();
  }
  if (bitmap_.changed()) {
    w.begin_section("BMPD");
    bitmap_.save_delta(w);
    w.end_section();
  }
  if (backing_.changed()) {
    w.begin_section("BSTD");
    backing_.save_delta(w);
    w.end_section();
  }
}

void Driver::apply_delta_sections(snapshot::Reader& r) {
  r.enter_section("DRVR");
  load_drvr_fields(r);
  r.leave_section();
  // The four structure deltas are optional and ordered; consume whichever
  // are present.
  while (true) {
    const std::string tag = r.peek_section_tag();
    if (tag == "PGTD") {
      r.enter_section(tag);
      page_table_.apply_delta(r);
    } else if (tag == "EPCD") {
      r.enter_section(tag);
      epc_.apply_delta(r);
    } else if (tag == "BMPD") {
      r.enter_section(tag);
      bitmap_.apply_delta(r);
    } else if (tag == "BSTD") {
      r.enter_section(tag);
      backing_.apply_delta(r);
    } else {
      break;
    }
    r.leave_section();
  }
  full_sweep();
}

void Driver::clear_dirty() {
  page_table_.clear_dirty();
  epc_.clear_dirty();
  bitmap_.clear_dirty();
  backing_.clear_dirty();
}

}  // namespace sgxpl::sgxsim
