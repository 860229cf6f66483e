#include "fleet/supervisor.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "core/sharding.h"

namespace sgxpl::fleet {

namespace {

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

std::vector<std::string> split_colon(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return parts;
}

/// How many of this host's crashes landed inside the sliding window ending
/// at `epoch` (the evacuation trigger).
std::uint64_t crashes_in_window(const std::vector<std::uint64_t>& crash_epochs,
                                std::uint64_t epoch,
                                const SupervisorPolicy& policy) {
  std::uint64_t n = 0;
  for (const std::uint64_t e : crash_epochs) {
    if (epoch - e < policy.crash_window_epochs) ++n;
  }
  return n;
}

}  // namespace

const char* to_string(HostState s) noexcept {
  switch (s) {
    case HostState::kHealthy:
      return "healthy";
    case HostState::kCrashed:
      return "crashed";
    case HostState::kRecovering:
      return "recovering";
    case HostState::kEvacuating:
      return "evacuating";
    case HostState::kRetired:
      return "retired";
  }
  return "?";
}

const char* to_string(CheckpointMode m) noexcept {
  switch (m) {
    case CheckpointMode::kFixed:
      return "fixed";
    case CheckpointMode::kDirtyBudget:
      return "dirty";
    case CheckpointMode::kRpoTarget:
      return "rpo";
  }
  return "?";
}

const char* to_string(EvacuationOutcome o) noexcept {
  switch (o) {
    case EvacuationOutcome::kMoved:
      return "moved";
    case EvacuationOutcome::kRetryScheduled:
      return "retry-scheduled";
    case EvacuationOutcome::kQuarantined:
      return "quarantined";
    case EvacuationOutcome::kUncarvable:
      return "uncarvable";
  }
  return "?";
}

std::optional<CheckpointPolicy> CheckpointPolicy::parse(const std::string& spec,
                                                        std::string* err) {
  const auto fail =
      [err](const std::string& why) -> std::optional<CheckpointPolicy> {
    if (err != nullptr) *err = why;
    return std::nullopt;
  };
  const std::vector<std::string> parts = split_colon(spec);
  CheckpointPolicy p;
  if (parts[0] == "fixed") {
    p.mode = CheckpointMode::kFixed;
  } else if (parts[0] == "dirty") {
    p.mode = CheckpointMode::kDirtyBudget;
  } else if (parts[0] == "rpo") {
    p.mode = CheckpointMode::kRpoTarget;
  } else {
    return fail("unknown checkpoint mode '" + parts[0] +
                "' (want fixed, dirty, or rpo)");
  }
  if (parts.size() < 2) {
    return fail("checkpoint spec '" + spec +
                "' is missing its value (want e.g. fixed:2048)");
  }
  if (parts.size() > 3) {
    return fail("too many ':' fields in '" + spec +
                "' (want mode:value[:fullN])");
  }
  std::uint64_t value = 0;
  if (!parse_u64(parts[1], &value) || value == 0) {
    return fail("bad checkpoint value '" + parts[1] +
                "' (want a positive integer)");
  }
  switch (p.mode) {
    case CheckpointMode::kFixed:
      p.fixed_every = value;
      break;
    case CheckpointMode::kDirtyBudget:
      p.dirty_byte_budget = value;
      break;
    case CheckpointMode::kRpoTarget:
      p.rpo_target_cycles = value;
      break;
  }
  if (parts.size() == 3) {
    if (parts[2].rfind("full", 0) != 0 ||
        !parse_u64(parts[2].substr(4), &p.full_every) || p.full_every == 0) {
      return fail("bad chain-length field '" + parts[2] +
                  "' (want fullN with N >= 1)");
    }
  }
  return p;
}

std::string CheckpointPolicy::spec() const {
  std::string s(to_string(mode));
  switch (mode) {
    case CheckpointMode::kFixed:
      s += ":" + std::to_string(fixed_every);
      break;
    case CheckpointMode::kDirtyBudget:
      s += ":" + std::to_string(dirty_byte_budget);
      break;
    case CheckpointMode::kRpoTarget:
      s += ":" + std::to_string(rpo_target_cycles);
      break;
  }
  s += ":full" + std::to_string(full_every);
  return s;
}

std::string SupervisorPolicy::spec() const {
  const SupervisorPolicy def{};
  std::ostringstream oss;
  bool first = true;
  const auto put = [&oss, &first](const char* key, const std::string& value) {
    if (!first) oss << ",";
    oss << key << "=" << value;
    first = false;
  };
  if (checkpoint.spec() != def.checkpoint.spec()) {
    put("ckpt", checkpoint.spec());
  }
  if (epoch_steps != def.epoch_steps) {
    put("epoch", std::to_string(epoch_steps));
  }
  if (crash_threshold != def.crash_threshold) {
    put("crash-threshold", std::to_string(crash_threshold));
  }
  if (crash_window_epochs != def.crash_window_epochs) {
    put("crash-window", std::to_string(crash_window_epochs));
  }
  if (max_evacuation_attempts != def.max_evacuation_attempts) {
    put("max-evac", std::to_string(max_evacuation_attempts));
  }
  if (backoff_base_epochs != def.backoff_base_epochs) {
    put("backoff-base", std::to_string(backoff_base_epochs));
  }
  if (backoff_cap_epochs != def.backoff_cap_epochs) {
    put("backoff-cap", std::to_string(backoff_cap_epochs));
  }
  if (backoff_jitter_pct != def.backoff_jitter_pct) {
    put("backoff-jitter", std::to_string(backoff_jitter_pct));
  }
  if (restart_cycles != def.restart_cycles) {
    put("restart", std::to_string(restart_cycles));
  }
  if (restore_cycles_per_byte != def.restore_cycles_per_byte) {
    put("restore-per-byte", std::to_string(restore_cycles_per_byte));
  }
  if (migration.warm_rounds != def.migration.warm_rounds) {
    put("mig-warm", std::to_string(migration.warm_rounds));
  }
  if (migration.round_steps != def.migration.round_steps) {
    put("mig-round", std::to_string(migration.round_steps));
  }
  if (migration.max_attempts != def.migration.max_attempts) {
    put("mig-attempts", std::to_string(migration.max_attempts));
  }
  if (migration.byte_budget != def.migration.byte_budget) {
    put("mig-budget", std::to_string(migration.byte_budget));
  }
  if (migration.leg_latency != def.migration.leg_latency) {
    put("mig-latency", std::to_string(migration.leg_latency));
  }
  if (migration.cycles_per_byte != def.migration.cycles_per_byte) {
    put("mig-cpb", std::to_string(migration.cycles_per_byte));
  }
  if (migration.link.spec() != def.migration.link.spec()) {
    put("mig-link", migration.link.spec());
  }
  if (seed != def.seed) {
    put("seed", std::to_string(seed));
  }
  return oss.str();
}

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

struct FleetSupervisor::Host {
  std::size_t index = 0;
  core::SimConfig cfg;
  std::vector<core::EnclaveApp> apps;
  std::unique_ptr<core::MultiEnclaveRun> run;  // null while kCrashed/kRetired
  std::unique_ptr<snapshot::Snapshotter<core::MultiEnclaveRun>> snapshotter;
  HostState state = HostState::kHealthy;

  /// The run position a chain frame captured: frame chain[i] restores the
  /// host to marks[i] (a torn tail frame carries a mark too, but salvage
  /// drops the frame so the mark is never consulted).
  struct Mark {
    std::uint64_t steps = 0;
    Cycles clock = 0;
    std::uint64_t bytes = 0;
  };
  /// The durable checkpoint chain (base first): what "disk" holds when the
  /// host's volatile state vanishes. Mirrored to chain_dir_ when set.
  std::vector<std::vector<std::uint8_t>> chain;
  std::vector<Mark> marks;

  std::uint64_t steps_at_last_ckpt = 0;
  Cycles clock_at_last_ckpt = 0;
  /// Observed write rate of the previous frame (kDirtyBudget's estimator).
  double bytes_per_step = 0.0;

  std::vector<std::uint64_t> crash_epochs;
  // Valid while kCrashed: where the host was when it died.
  std::uint64_t crash_steps = 0;
  Cycles crash_clock = 0;
  bool crash_torn = false;

  struct TenantRec {
    std::uint64_t id = 0;
    bool quarantined = false;
    bool moved = false;     // live on a replacement host; skip here
    bool finished = false;  // sticky once observed (survives run teardown)
    std::uint64_t attempts = 0;
    std::uint64_t next_retry_epoch = 0;
  };
  std::vector<TenantRec> tenants;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

FleetSupervisor::FleetSupervisor(const SupervisorPolicy& policy,
                                 const inject::HostCrashPlan& chaos)
    : policy_(policy),
      chaos_(chaos, 0),
      backoff_rng_(policy.seed),
      pool_(std::make_unique<core::ShardPool>(
          static_cast<std::size_t>(std::max<std::uint64_t>(
              policy.shard_threads, 1)))) {}

FleetSupervisor::~FleetSupervisor() = default;

std::size_t FleetSupervisor::add_host(
    const core::SimConfig& config, const std::vector<core::EnclaveApp>& apps) {
  SGXPL_CHECK_MSG(!apps.empty(), "fleet: a host needs at least one tenant");
  for (const core::EnclaveApp& a : apps) {
    SGXPL_CHECK_MSG(a.trace != nullptr,
                    "fleet: every tenant needs a trace (null trace passed)");
  }
  auto h = std::make_unique<Host>();
  h->index = hosts_.size();
  h->cfg = config;
  h->apps = apps;
  h->run = std::make_unique<core::MultiEnclaveRun>(h->cfg, h->apps);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    h->tenants.push_back({.id = next_tenant_id_++});
  }
  counters_.tenants_total += apps.size();
  hosts_.push_back(std::move(h));
  chaos_.ensure_hosts(hosts_.size());
  // A durable base before any work: even a crash in the first epoch has
  // something to salvage (never a cold start under the chaos plan).
  take_checkpoint(*hosts_.back(), /*barrier=*/false);
  return hosts_.back()->index;
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

bool FleetSupervisor::checkpoint_due(const Host& h) const {
  if (!h.run) return false;
  const std::uint64_t since = h.run->steps() - h.steps_at_last_ckpt;
  if (since == 0) return false;
  switch (policy_.checkpoint.mode) {
    case CheckpointMode::kFixed:
      return since >= policy_.checkpoint.fixed_every;
    case CheckpointMode::kDirtyBudget:
      return h.bytes_per_step * static_cast<double>(since) >=
             static_cast<double>(policy_.checkpoint.dirty_byte_budget);
    case CheckpointMode::kRpoTarget:
      return host_clock(h) - h.clock_at_last_ckpt >=
             policy_.checkpoint.rpo_target_cycles;
  }
  return false;
}

void FleetSupervisor::write_frame_to_disk(Host& h,
                                          const snapshot::ChainFrame& f,
                                          bool torn) const {
  if (chain_dir_.empty()) return;
  const std::string base =
      chain_dir_ + "/host-" + std::to_string(h.index) + ".snap";
  const std::size_t at = h.chain.size();  // index this frame lands at
  // Deltas land beside the base; a torn write never replaces the base
  // atomically, so it is modeled as a truncated tail file.
  snapshot::write_chain_file(base, torn ? std::max<std::size_t>(at, 1) : at,
                             f.bytes);
}

void FleetSupervisor::take_checkpoint(Host& h, bool barrier,
                                      EpochStaging* stage) {
  SGXPL_CHECK_MSG(h.run != nullptr,
                  "fleet: checkpoint of a host with no live run");
  if (barrier || !h.snapshotter) {
    // A fresh Snapshotter's first frame is a full base: the barrier that
    // makes control-plane mutations (retirement, quarantine) durable before
    // any crash can roll the host behind them.
    h.snapshotter =
        std::make_unique<snapshot::Snapshotter<core::MultiEnclaveRun>>(
            policy_.checkpoint.full_every);
  }
  const std::uint64_t steps_before = h.steps_at_last_ckpt;
  snapshot::ChainFrame f = h.snapshotter->checkpoint(*h.run);
  if (f.header.kind == snapshot::FrameKind::kFull) {
    h.chain.clear();
    h.marks.clear();
  }
  const std::uint64_t steps = h.run->steps();
  const Cycles clock = host_clock(h);
  write_frame_to_disk(h, f, /*torn=*/false);
  h.marks.push_back({steps, clock, f.bytes.size()});
  h.chain.push_back(std::move(f.bytes));
  const std::uint64_t covered =
      steps > steps_before ? steps - steps_before : 1;
  h.bytes_per_step = static_cast<double>(h.marks.back().bytes) /
                     static_cast<double>(covered);
  h.steps_at_last_ckpt = steps;
  h.clock_at_last_ckpt = clock;
  if (stage != nullptr) {
    // Parallel step phase: the fleet counter and registry are shared;
    // stage the writes for the serial barrier flush.
    ++stage->checkpoints;
    stage->checkpoint_bytes.push_back(h.marks.back().bytes);
    return;
  }
  ++counters_.checkpoints;
  if (metrics_) {
    metrics_->counter("fleet.checkpoints").add();
    metrics_->histogram("fleet.checkpoint_bytes").record(h.marks.back().bytes);
  }
}

void FleetSupervisor::checkpoint_host(std::size_t host) {
  SGXPL_CHECK_MSG(host < hosts_.size(), "fleet: checkpoint_host out of range");
  take_checkpoint(*hosts_[host], /*barrier=*/false);
}

// ---------------------------------------------------------------------------
// Crash and recovery
// ---------------------------------------------------------------------------

void FleetSupervisor::do_crash(Host& h, bool torn, EpochStaging* stage) {
  SGXPL_CHECK_MSG(h.run != nullptr, "fleet: crash of a host with no live run");
  h.crash_steps = h.run->steps();
  h.crash_clock = host_clock(h);
  h.crash_torn = torn;
  if (stage == nullptr) {
    makespan_ = std::max(makespan_, h.crash_clock);
  } else {
    stage->crashed = true;
    stage->crash_clock = h.crash_clock;
  }
  if (torn && h.snapshotter) {
    // The crash lands mid-checkpoint: the frame being written is truncated
    // and left at the chain tail — exactly what salvage must drop.
    snapshot::ChainFrame f = h.snapshotter->checkpoint(*h.run);
    f.bytes.resize(f.bytes.size() / 2);
    write_frame_to_disk(h, f, /*torn=*/true);
    h.marks.push_back({h.crash_steps, h.crash_clock, 0});
    h.chain.push_back(std::move(f.bytes));
    if (stage == nullptr) {
      ++counters_.torn_checkpoints;
      emit_event(h.index, "torn-checkpoint");
    } else {
      stage->torn = true;
    }
  }
  h.run.reset();  // volatile state gone; the chain is all that survives
  h.snapshotter.reset();
  h.state = HostState::kCrashed;
  h.crash_epochs.push_back(epoch_);
  if (stage == nullptr) {
    ++counters_.crashes;
    if (metrics_) metrics_->counter("fleet.crashes").add();
    emit_event(h.index, "crash");
  }
}

void FleetSupervisor::crash_host(std::size_t host, bool torn) {
  SGXPL_CHECK_MSG(host < hosts_.size(), "fleet: crash_host out of range");
  Host& h = *hosts_[host];
  SGXPL_CHECK_MSG(h.run != nullptr && (h.state == HostState::kHealthy ||
                                       h.state == HostState::kEvacuating),
                  "fleet: crash_host requires a live host");
  do_crash(h, torn);
}

CrashIncident FleetSupervisor::do_recover(Host& h) {
  SGXPL_CHECK_MSG(h.state == HostState::kCrashed,
                  "fleet: recover of a host that is not crashed");
  obs::ScopedSpan span(profiler_, obs::Phase::kFleetRecover);
  h.state = HostState::kRecovering;
  CrashIncident inc;
  inc.host = h.index;
  inc.at_epoch = epoch_;
  inc.steps_at_crash = h.crash_steps;
  inc.torn_tail = h.crash_torn;

  h.run = std::make_unique<core::MultiEnclaveRun>(h.cfg, h.apps);
  const snapshot::ChainSalvageReport rep =
      snapshot::restore_chain_salvage(*h.run, h.chain);
  inc.frames_offered = rep.frames_offered;
  inc.frames_salvaged = rep.frames_restored;
  std::uint64_t restored_bytes = 0;
  std::uint64_t restore_steps = 0;
  Cycles restore_clock = 0;
  if (!rep.restored_any()) {
    // Nothing durable survived. The base may have failed mid-load (state
    // unspecified), so rebuild from scratch and replay the whole history.
    h.run = std::make_unique<core::MultiEnclaveRun>(h.cfg, h.apps);
    inc.cold_start = true;
    ++counters_.cold_starts;
    emit_event(h.index, "cold-start");
  } else {
    const Host::Mark& m = h.marks[rep.frames_restored - 1];
    restore_steps = m.steps;
    restore_clock = m.clock;
    for (std::uint64_t i = 0; i < rep.frames_restored; ++i) {
      restored_bytes += h.marks[i].bytes;
    }
  }
  inc.steps_at_checkpoint = restore_steps;

  // Rule 2: pause flags are control-plane state, never serialized into host
  // frames — re-apply them before any replay step so the restored scheduler
  // walks the same tenant sequence the original did.
  if (inc.cold_start) {
    // A cold start predates every barrier: moved tenants must be parked by
    // hand (their retirement frame is gone), and replay can only reach as
    // far as the survivors can step.
    for (std::size_t t = 0; t < h.tenants.size(); ++t) {
      if (h.tenants[t].quarantined || h.tenants[t].moved) {
        h.run->set_tenant_paused(t, true);
      }
    }
    while (h.run->steps() < h.crash_steps && h.run->steppable()) {
      h.run->step();
    }
  } else {
    for (std::size_t t = 0; t < h.tenants.size(); ++t) {
      if (h.tenants[t].quarantined) h.run->set_tenant_paused(t, true);
    }
    while (h.run->steps() < h.crash_steps) {
      SGXPL_CHECK_MSG(h.run->steppable(),
                      "fleet: replay stalled before reaching the crash point");
      h.run->step();
    }
  }
  inc.rpo_steps = h.crash_steps - restore_steps;
  inc.rpo_cycles = h.crash_clock - restore_clock;
  inc.rto_cycles = policy_.restart_cycles +
                   restored_bytes * policy_.restore_cycles_per_byte +
                   inc.rpo_cycles;
  span.add_cycles(inc.rto_cycles);

  // A fresh barrier base at the recovered position: the dropped tail is
  // gone for good and the next incident measures its RPO from here.
  take_checkpoint(h, /*barrier=*/true);
  h.state = crashes_in_window(h.crash_epochs, epoch_, policy_) >=
                    policy_.crash_threshold
                ? HostState::kEvacuating
                : HostState::kHealthy;
  ++counters_.recoveries;
  makespan_ = std::max(makespan_, host_clock(h));
  if (metrics_) {
    metrics_->counter("fleet.recoveries").add();
    metrics_->histogram("fleet.rpo_steps").record(inc.rpo_steps);
    metrics_->histogram("fleet.rpo_cycles").record(inc.rpo_cycles);
    metrics_->histogram("fleet.rto_cycles").record(inc.rto_cycles);
  }
  emit_event(h.index, "recover");
  crash_incidents_.push_back(inc);
  return inc;
}

CrashIncident FleetSupervisor::recover_host(std::size_t host) {
  SGXPL_CHECK_MSG(host < hosts_.size(), "fleet: recover_host out of range");
  return do_recover(*hosts_[host]);
}

// ---------------------------------------------------------------------------
// The epoch loop
// ---------------------------------------------------------------------------

void FleetSupervisor::step_host_through_epoch(Host& h, EpochStaging& stage) {
  // Runs on a worker thread when shard_threads > 1: everything it touches
  // is host-local (the run, the chain, the host's chaos stream and stats
  // slot, its own disk files) except the writes routed into `stage`.
  const std::optional<inject::HostCrashDecision> decision =
      chaos_.crash_this_epoch(h.index, policy_.epoch_steps);
  for (std::uint64_t i = 0; i < policy_.epoch_steps; ++i) {
    if (decision && i == decision->step_offset) {
      do_crash(h, decision->torn_tail, &stage);
      return;
    }
    if (!h.run->steppable()) break;
    h.run->step();
    if (checkpoint_due(h)) take_checkpoint(h, /*barrier=*/false, &stage);
  }
  stage.end_clock = host_clock(h);
}

void FleetSupervisor::flush_staging(Host& h, const EpochStaging& stage) {
  // Replays the exact shared-state mutation order of the sequential path
  // for this host; callers flush in host index order, which is the order
  // the sequential loop visits hosts — so counters, event timestamps
  // (emit_event reads makespan_), and event order are bit-identical.
  counters_.checkpoints += stage.checkpoints;
  if (metrics_ && stage.checkpoints > 0) {
    for (std::uint64_t i = 0; i < stage.checkpoints; ++i) {
      metrics_->counter("fleet.checkpoints").add();
    }
    for (const std::uint64_t bytes : stage.checkpoint_bytes) {
      metrics_->histogram("fleet.checkpoint_bytes").record(bytes);
    }
  }
  if (stage.crashed) {
    makespan_ = std::max(makespan_, stage.crash_clock);
    if (stage.torn) {
      ++counters_.torn_checkpoints;
      emit_event(h.index, "torn-checkpoint");
    }
    ++counters_.crashes;
    if (metrics_) metrics_->counter("fleet.crashes").add();
    emit_event(h.index, "crash");
  } else {
    makespan_ = std::max(makespan_, stage.end_clock);
  }
}

void FleetSupervisor::run_epoch() {
  // Step phase: hosts spawned by this epoch's evacuations start stepping
  // next epoch, so the step set is fixed up front. Eligible hosts advance
  // independently — in parallel across the shard pool when the policy asks
  // for it — with shared-state writes staged per host and flushed serially
  // in host order below (the shard barrier).
  const std::size_t live = hosts_.size();
  std::vector<std::size_t> eligible;
  eligible.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    Host& h = *hosts_[i];
    if ((h.state == HostState::kHealthy || h.state == HostState::kEvacuating) &&
        h.run && h.run->steppable()) {
      eligible.push_back(i);
    }
  }
  std::vector<EpochStaging> staged(eligible.size());
  pool_->run(eligible.size(), [this, &eligible, &staged](std::size_t j) {
    step_host_through_epoch(*hosts_[eligible[j]], staged[j]);
  });
  for (std::size_t j = 0; j < eligible.size(); ++j) {
    flush_staging(*hosts_[eligible[j]], staged[j]);
  }
  // Recovery phase: no host leaves an epoch crashed.
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i]->state == HostState::kCrashed) {
      do_recover(*hosts_[i]);
    }
  }
  evacuation_scan();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    maybe_retire(*hosts_[i]);
  }
  refresh_gauges();
  ++epoch_;
}

FleetReport FleetSupervisor::run_to_completion(std::uint64_t max_epochs) {
  std::uint64_t ran = 0;
  while (!done() && ran < max_epochs) {
    run_epoch();
    ++ran;
  }
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    maybe_retire(*hosts_[i]);
  }
  refresh_gauges();
  return report();
}

bool FleetSupervisor::done() const noexcept {
  for (const auto& h : hosts_) {
    if (h->state == HostState::kRetired) continue;
    if (h->state == HostState::kCrashed) return false;
    if (h->run && h->run->steppable()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Evacuation
// ---------------------------------------------------------------------------

void FleetSupervisor::evacuation_scan() {
  const std::size_t scan = hosts_.size();  // replacements join clean
  for (std::size_t i = 0; i < scan; ++i) {
    Host& h = *hosts_[i];
    if (h.state != HostState::kEvacuating || !h.run) continue;
    for (std::size_t t = 0; t < h.tenants.size(); ++t) {
      Host::TenantRec& rec = h.tenants[t];
      if (rec.moved || rec.quarantined || rec.finished) continue;
      if (h.run->tenant_cursor(t) >= h.apps[t].trace->size()) {
        rec.finished = true;  // nothing left to move
        continue;
      }
      if (rec.next_retry_epoch > epoch_) continue;
      evacuate_tenant(h, t);
    }
  }
}

void FleetSupervisor::evacuate_tenant(Host& h, std::size_t tenant) {
  obs::ScopedSpan span(profiler_, obs::Phase::kFleetEvacuate);
  Host::TenantRec& rec = h.tenants[tenant];
  ++rec.attempts;
  EvacuationIncident inc;
  inc.host = h.index;
  inc.tenant = tenant;
  inc.tenant_id = rec.id;
  inc.at_epoch = epoch_;
  inc.attempts = rec.attempts;

  // The replacement host: same platform config, sole tenant. It joins the
  // fleet only if the migration commits; an abort discards it untouched.
  auto nh = std::make_unique<Host>();
  nh->cfg = h.cfg;
  nh->apps = {h.apps[tenant]};
  nh->run = std::make_unique<core::MultiEnclaveRun>(nh->cfg, nh->apps);

  MigrationController ctl(policy_.migration);
  MigrationReport rep;
  try {
    rep = ctl.migrate(*h.run, tenant, *nh->run);
  } catch (const CheckFailure& e) {
    // extract_resumable refused the carve (e.g. a DFP tenant above offset
    // 0): no retry will change that — quarantine immediately.
    inc.outcome = EvacuationOutcome::kUncarvable;
    inc.detail = e.what();
    quarantine_tenant(h, tenant);
    emit_event(h.index, "uncarvable");
    if (metrics_) metrics_->counter("fleet.evacuations_uncarvable").add();
    evacuation_incidents_.push_back(inc);
    return;
  }
  inc.migration = rep.outcome;
  inc.detail = rep.detail;
  if (rep.completed()) {
    rec.moved = true;
    // Rule 1: the source-side retirement exists only in volatile state
    // until a frame carries it — barrier before any crash can lose it.
    take_checkpoint(h, /*barrier=*/true);
    nh->index = hosts_.size();
    nh->tenants.push_back({.id = rec.id});
    hosts_.push_back(std::move(nh));
    Host& spawned = *hosts_.back();
    chaos_.ensure_hosts(hosts_.size());
    take_checkpoint(spawned, /*barrier=*/false);  // its first durable base
    ++counters_.hosts_spawned;
    ++counters_.evacuations_completed;
    inc.outcome = EvacuationOutcome::kMoved;
    emit_event(h.index, "evacuate-moved");
    emit_event(spawned.index, "spawn");
    if (metrics_) metrics_->counter("fleet.evacuations_completed").add();
  } else if (rec.attempts >= policy_.max_evacuation_attempts) {
    inc.outcome = EvacuationOutcome::kQuarantined;
    quarantine_tenant(h, tenant);
    emit_event(h.index, "quarantine");
  } else {
    const std::uint64_t wait = backoff_epochs(rec.attempts, backoff_rng_);
    rec.next_retry_epoch = epoch_ + wait;
    inc.outcome = EvacuationOutcome::kRetryScheduled;
    inc.backoff_epochs = wait;
    ++counters_.evacuation_retries;
    emit_event(h.index, "evacuate-retry");
    if (metrics_) metrics_->counter("fleet.evacuation_retries").add();
  }
  evacuation_incidents_.push_back(inc);
}

void FleetSupervisor::quarantine_tenant(Host& h, std::size_t tenant) {
  Host::TenantRec& rec = h.tenants[tenant];
  if (rec.quarantined) return;
  rec.quarantined = true;
  if (h.run) {
    h.run->set_tenant_paused(tenant, true);
    // Rule 1: from here on the original never steps this tenant again, so
    // a post-quarantine base keeps replay step counts aligned (rule 2
    // re-applies the pause itself after every restore).
    take_checkpoint(h, /*barrier=*/true);
  }
  if (metrics_) metrics_->counter("fleet.quarantines").add();
}

void FleetSupervisor::maybe_retire(Host& h) {
  if (h.state == HostState::kRetired || h.state == HostState::kCrashed ||
      !h.run) {
    return;
  }
  for (std::size_t t = 0; t < h.tenants.size(); ++t) {
    Host::TenantRec& rec = h.tenants[t];
    if (rec.moved || rec.quarantined) continue;
    if (h.run->tenant_cursor(t) >= h.apps[t].trace->size()) {
      rec.finished = true;  // sticky: survives the run teardown below
      continue;
    }
    return;  // still has a runnable (or retry-pending) tenant
  }
  h.run.reset();
  h.snapshotter.reset();
  h.state = HostState::kRetired;
  ++counters_.hosts_retired;
  emit_event(h.index, "retire");
}

std::uint64_t FleetSupervisor::backoff_epochs(std::uint64_t attempt,
                                              Rng& rng) const {
  const std::uint64_t shift =
      std::min<std::uint64_t>(attempt > 0 ? attempt - 1 : 0, 62);
  std::uint64_t base = policy_.backoff_base_epochs << shift;
  if (base > policy_.backoff_cap_epochs) base = policy_.backoff_cap_epochs;
  if (base == 0) base = 1;
  const std::uint64_t span = base * policy_.backoff_jitter_pct / 100;
  return base + (span > 0 ? rng.bounded(span + 1) : 0);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

Cycles FleetSupervisor::host_clock(const Host& h) const {
  if (!h.run) return 0;
  Cycles c = 0;
  for (std::size_t i = 0; i < h.run->enclave_count(); ++i) {
    c = std::max(c, h.run->tenant_clock(i));
  }
  return c;
}

void FleetSupervisor::emit_event(std::size_t host, const char* action) {
  if (!events_) return;
  obs::Event e;
  e.at = makespan_;
  e.type = obs::EventType::kFleet;
  e.page = host;
  e.aux = epoch_;
  e.detail = action;
  events_->record(e);
}

void FleetSupervisor::refresh_gauges() {
  if (!metrics_ && !series_) return;
  const FleetLedger led = ledger();
  std::uint64_t hosts_live = 0;
  for (const auto& h : hosts_) {
    if (h->state != HostState::kRetired) ++hosts_live;
  }
  if (metrics_) {
    metrics_->gauge("fleet.hosts_live").set(static_cast<double>(hosts_live));
    metrics_->gauge("fleet.tenants_running")
        .set(static_cast<double>(led.running));
    metrics_->gauge("fleet.tenants_quarantined")
        .set(static_cast<double>(led.quarantined));
    metrics_->gauge("fleet.tenants_finished")
        .set(static_cast<double>(led.finished));
  }
  if (series_) {
    series_->series("fleet.running")
        .add(makespan_, static_cast<double>(led.running));
    series_->series("fleet.quarantined")
        .add(makespan_, static_cast<double>(led.quarantined));
    series_->series("fleet.hosts_live")
        .add(makespan_, static_cast<double>(hosts_live));
  }
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

std::size_t FleetSupervisor::host_count() const noexcept {
  return hosts_.size();
}

HostState FleetSupervisor::host_state(std::size_t host) const {
  SGXPL_CHECK_MSG(host < hosts_.size(), "fleet: host_state out of range");
  return hosts_[host]->state;
}

const core::MultiEnclaveRun* FleetSupervisor::host_run(std::size_t host) const {
  SGXPL_CHECK_MSG(host < hosts_.size(), "fleet: host_run out of range");
  return hosts_[host]->run.get();
}

std::uint64_t FleetSupervisor::epoch() const noexcept { return epoch_; }

FleetLedger FleetSupervisor::ledger() const {
  FleetLedger led = counters_;
  for (const auto& hp : hosts_) {
    const Host& h = *hp;
    for (std::size_t t = 0; t < h.tenants.size(); ++t) {
      const Host::TenantRec& rec = h.tenants[t];
      if (rec.moved) continue;  // counted where it now lives
      if (rec.quarantined) {
        ++led.quarantined;
        continue;
      }
      bool finished = rec.finished;
      if (!finished && h.run) {
        finished = h.run->tenant_cursor(t) >= h.apps[t].trace->size();
      }
      if (finished) {
        ++led.finished;
      } else {
        ++led.running;
      }
    }
  }
  return led;
}

FleetReport FleetSupervisor::report() const {
  FleetReport r;
  r.ledger = ledger();
  r.crash_incidents = crash_incidents_;
  r.evacuation_incidents = evacuation_incidents_;
  r.epochs = epoch_;
  r.makespan = makespan_;
  return r;
}

// ---------------------------------------------------------------------------
// The supervisor manifest (its own frame; host frames stay untouched)
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> FleetSupervisor::save_manifest() const {
  snapshot::RunMeta meta;
  meta.kind = "fleet-supervisor";
  meta.scheme = "fleet";
  meta.trace_name = "fleet";
  meta.trace_accesses = counters_.tenants_total;
  meta.elrange_pages = hosts_.size();
  meta.epc_pages = 0;
  meta.chaos_spec = chaos_.plan().spec();
  meta.chaos_seed = chaos_.plan().seed;
  meta.hardening_spec = policy_.spec();
  meta.cursor = epoch_;
  snapshot::Writer w;
  snapshot::write_frame_head(w, snapshot::ChainHeader{}, meta);

  w.begin_section("FLTS");
  w.u64("epoch", epoch_);
  w.u64("next_tenant_id", next_tenant_id_);
  w.u64("makespan", makespan_);
  w.u64("hosts", hosts_.size());
  w.u64("tenants_total", counters_.tenants_total);
  w.u64("crashes", counters_.crashes);
  w.u64("recoveries", counters_.recoveries);
  w.u64("cold_starts", counters_.cold_starts);
  w.u64("torn_checkpoints", counters_.torn_checkpoints);
  w.u64("checkpoints", counters_.checkpoints);
  w.u64("evacuations_completed", counters_.evacuations_completed);
  w.u64("evacuation_retries", counters_.evacuation_retries);
  w.u64("hosts_retired", counters_.hosts_retired);
  w.u64("hosts_spawned", counters_.hosts_spawned);
  w.end_section();

  for (const auto& hp : hosts_) {
    const Host& h = *hp;
    w.begin_section("FHST");
    w.u64("state", static_cast<std::uint64_t>(h.state));
    w.u64("crash_steps", h.crash_steps);
    w.u64("crash_clock", h.crash_clock);
    w.boolean("crash_torn", h.crash_torn);
    w.u64_vec("crash_epochs", h.crash_epochs);
    std::vector<std::uint64_t> ids, flags, attempts, retries;
    for (const Host::TenantRec& rec : h.tenants) {
      ids.push_back(rec.id);
      flags.push_back((rec.quarantined ? 1u : 0u) | (rec.moved ? 2u : 0u) |
                      (rec.finished ? 4u : 0u));
      attempts.push_back(rec.attempts);
      retries.push_back(rec.next_retry_epoch);
    }
    w.u64_vec("tenant_ids", ids);
    w.u64_vec("tenant_flags", flags);
    w.u64_vec("tenant_attempts", attempts);
    w.u64_vec("tenant_retry_epochs", retries);
    w.end_section();
  }
  return w.finish();
}

void FleetSupervisor::load_manifest(const std::vector<std::uint8_t>& bytes) {
  snapshot::RunFrame f(bytes);
  SGXPL_CHECK_MSG(
      f.chain.kind == snapshot::FrameKind::kFull && f.chain.chain_id == 0,
      "fleet: a supervisor manifest is a standalone frame, not a chain "
      "member");
  const snapshot::RunMeta& meta = f.meta;
  snapshot::Reader& r = f.body;
  SGXPL_CHECK_MSG(meta.kind == "fleet-supervisor",
                  "fleet: frame is not a supervisor manifest (kind '" +
                      meta.kind + "')");
  SGXPL_CHECK_MSG(
      meta.hardening_spec == policy_.spec(),
      "fleet: manifest policy '" + meta.hardening_spec +
          "' does not match this supervisor's '" + policy_.spec() +
          "' — supervisor state does not load across a policy change");

  r.enter_section("FLTS");
  const std::uint64_t epoch = r.u64("epoch");
  const std::uint64_t next_id = r.u64("next_tenant_id");
  const std::uint64_t makespan = r.u64("makespan");
  const std::uint64_t host_count = r.u64("hosts");
  FleetLedger c;
  c.tenants_total = r.u64("tenants_total");
  c.crashes = r.u64("crashes");
  c.recoveries = r.u64("recoveries");
  c.cold_starts = r.u64("cold_starts");
  c.torn_checkpoints = r.u64("torn_checkpoints");
  c.checkpoints = r.u64("checkpoints");
  c.evacuations_completed = r.u64("evacuations_completed");
  c.evacuation_retries = r.u64("evacuation_retries");
  c.hosts_retired = r.u64("hosts_retired");
  c.hosts_spawned = r.u64("hosts_spawned");
  r.leave_section();
  SGXPL_CHECK_MSG(
      host_count == hosts_.size(),
      "fleet: manifest describes " + std::to_string(host_count) +
          " host(s) but this supervisor has " + std::to_string(hosts_.size()) +
          " — re-add the same hosts before loading");

  for (auto& hp : hosts_) {
    Host& h = *hp;
    r.enter_section("FHST");
    const auto state = static_cast<HostState>(r.u64("state"));
    h.crash_steps = r.u64("crash_steps");
    h.crash_clock = r.u64("crash_clock");
    h.crash_torn = r.boolean("crash_torn");
    h.crash_epochs = r.u64_vec("crash_epochs");
    const std::vector<std::uint64_t> ids = r.u64_vec("tenant_ids");
    const std::vector<std::uint64_t> flags = r.u64_vec("tenant_flags");
    const std::vector<std::uint64_t> attempts = r.u64_vec("tenant_attempts");
    const std::vector<std::uint64_t> retries =
        r.u64_vec("tenant_retry_epochs");
    r.leave_section();
    SGXPL_CHECK_MSG(ids.size() == h.tenants.size(),
                    "fleet: manifest tenant count does not match host " +
                        std::to_string(h.index));
    for (std::size_t t = 0; t < h.tenants.size(); ++t) {
      Host::TenantRec& rec = h.tenants[t];
      rec.id = ids[t];
      rec.quarantined = (flags[t] & 1u) != 0;
      rec.moved = (flags[t] & 2u) != 0;
      rec.finished = (flags[t] & 4u) != 0;
      rec.attempts = attempts[t];
      rec.next_retry_epoch = retries[t];
      if (h.run && (rec.quarantined || rec.moved)) {
        h.run->set_tenant_paused(t, true);  // rule 2, applied on load too
      }
    }
    // Transient states collapse: a host saved mid-incident resumes as
    // crashed (recovery will rebuild it); a retired host stays torn down.
    if (state == HostState::kRetired) {
      h.run.reset();
      h.snapshotter.reset();
      h.state = HostState::kRetired;
    } else if (state == HostState::kCrashed ||
               state == HostState::kRecovering) {
      h.run.reset();
      h.snapshotter.reset();
      h.state = HostState::kCrashed;
    } else {
      h.state = state;
    }
  }
  epoch_ = epoch;
  next_tenant_id_ = next_id;
  makespan_ = makespan;
  counters_ = c;
}

}  // namespace sgxpl::fleet
