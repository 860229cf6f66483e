#include "core/simulator.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/check.h"
#include "dfp/dfp_engine.h"
#include "inject/fault_injector.h"
#include "sgxsim/driver.h"
#include "snapshot/chain.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

SimulationRun::SimulationRun(const SimConfig& config, const trace::Trace& t,
                             const sip::InstrumentationPlan* plan)
    : cfg_(config), trace_(&t), plan_(plan) {
  SGXPL_CHECK_MSG(!t.empty(), "empty trace");
  SGXPL_CHECK_MSG(cfg_.scheme != Scheme::kNative,
                  "the native scheme has no paging state to step; use "
                  "EnclaveSimulator::run");
  SGXPL_CHECK_MSG(!cfg_.uses_sip() || plan != nullptr,
                  "SIP scheme needs an instrumentation plan");

  if (cfg_.enclave.elrange_pages == 0) {
    cfg_.enclave.elrange_pages = t.elrange_pages();
  }
  SGXPL_CHECK_MSG(cfg_.enclave.elrange_pages > 0,
                  "trace declares no ELRANGE size");

  if (cfg_.uses_dfp()) {
    dfp::DfpParams params = cfg_.dfp;
    if (cfg_.dfp_stop_forced()) {
      params.stop_enabled = true;
    }
    engine_ = std::make_unique<dfp::DfpEngine>(params);
  }
  // Chaos attach: the injector perturbs the untrusted stack through the
  // driver's ChaosHooks boundary; a plan with nothing enabled costs nothing.
  // Under chaos the online watchdog defaults on (every 64 scans plus every
  // injection boundary) so a hook that ever corrupted ground truth trips
  // immediately, not at end-of-run.
  if (cfg_.chaos.any_enabled()) {
    injector_ = std::make_unique<inject::FaultInjector>(cfg_.chaos);
    if (cfg_.enclave.watchdog_scan_interval == 0) {
      cfg_.enclave.watchdog_scan_interval = 64;
    }
  }
  driver_ = std::make_unique<sgxsim::Driver>(cfg_.enclave, cfg_.costs,
                                             engine_.get());
  if (injector_ != nullptr) {
    driver_->set_chaos(injector_.get());
  }

  // Observability attach: each sink is independent and null means off.
  if (cfg_.event_log != nullptr) {
    cfg_.event_log->clear();  // the log holds exactly one run's window
    driver_->set_event_log(cfg_.event_log);
    if (injector_ != nullptr) {
      injector_->set_event_log(cfg_.event_log);
    }
  }
  if (cfg_.registry != nullptr) {
    driver_->set_metrics(cfg_.registry);
  }
  if (cfg_.timeseries != nullptr) {
    cfg_.timeseries->clear();  // like the event log: one run's window
    driver_->set_time_series(cfg_.timeseries);
  }
  if (engine_ != nullptr &&
      (cfg_.registry != nullptr || cfg_.timeseries != nullptr)) {
    engine_->set_observability(cfg_.registry, cfg_.timeseries);
  }
  if (cfg_.profiler != nullptr) {
    driver_->set_profiler(cfg_.profiler);
    if (engine_ != nullptr) {
      engine_->set_profiler(cfg_.profiler);
    }
  }

  sip_on_ = cfg_.uses_sip() && plan_ != nullptr && !plan_->empty();
}

SimulationRun::~SimulationRun() = default;

bool SimulationRun::done() const noexcept {
  return cursor_ >= trace_->size();
}

void SimulationRun::hoist(std::size_t idx) {
  // Hoisted mode: the check+notify for each instrumented access runs
  // `sip_lookahead` accesses early.
  const auto& target = trace_->accesses()[idx];
  if (!plan_->instrumented(target.site)) {
    return;
  }
  obs::ScopedSpan span(cfg_.profiler, obs::Phase::kSipCheck);
  const Cycles before = now_;
  now_ += cfg_.costs.bitmap_check;
  m_.sip_check_cycles += cfg_.costs.bitmap_check;
  ++m_.sip_checks;
  if (!driver_->sip_bitmap_check(target.page, now_)) {
    now_ += cfg_.costs.sip_notification;
    m_.sip_notification_cycles += cfg_.costs.sip_notification;
    ++m_.sip_requests;
    driver_->sip_prefetch(target.page, now_);
  }
  span.add_cycles(now_ - before);
}

void SimulationRun::ensure_started() {
  if (started_) {
    return;
  }
  started_ = true;
  // Issue the first lookahead window up front (the compiler hoists these
  // checks to the enclave's entry).
  if (sip_on_ && cfg_.sip_lookahead > 0) {
    const auto prefix = std::min<std::size_t>(cfg_.sip_lookahead,
                                              trace_->size());
    for (std::size_t j = 0; j < prefix; ++j) {
      hoist(j);
    }
  }
}

void SimulationRun::step() {
  SGXPL_CHECK_MSG(!done(), "stepping past the end of the trace");
  ensure_started();

  obs::ScopedSpan step_span(cfg_.profiler, obs::Phase::kStep);
  const Cycles step_start = now_;
  const auto& accesses = trace_->accesses();
  const std::size_t i = cursor_;
  const auto& a = accesses[i];
  ++m_.accesses;

  Cycles gap = a.gap;
  if (cfg_.channel_contention > 0.0 && gap > 0) {
    // Enclave compute overlapping page copies runs slower: inflate the
    // gap by the contention share of the overlapped busy time. One
    // fixpoint step is enough at realistic factors.
    const Cycles busy = driver_->channel().busy_overlap(now_, now_ + gap);
    if (busy > 0) {
      const auto extra = static_cast<Cycles>(static_cast<double>(busy) *
                                             cfg_.channel_contention);
      gap += extra;
      m_.contention_cycles += extra;
    }
  }
  now_ += gap;
  m_.compute_cycles += gap;

  if (sip_on_) {
    const std::uint32_t lookahead = cfg_.sip_lookahead;
    if (lookahead == 0) {
      if (plan_->instrumented(a.site)) {
        // Conservative mode: BIT_MAP_CHECK right before the access, then
        // a blocking page_loadin_function on a miss.
        obs::ScopedSpan sip_span(cfg_.profiler, obs::Phase::kSipCheck);
        const Cycles before = now_;
        now_ += cfg_.costs.bitmap_check;
        m_.sip_check_cycles += cfg_.costs.bitmap_check;
        ++m_.sip_checks;
        if (!driver_->sip_bitmap_check(a.page, now_)) {
          const Cycles loaded = driver_->sip_load(a.page, now_);
          now_ = loaded + cfg_.costs.sip_notification;
          m_.sip_notification_cycles += cfg_.costs.sip_notification;
          ++m_.sip_requests;
        }
        sip_span.add_cycles(now_ - before);
      }
    } else if (i + lookahead < accesses.size()) {
      hoist(i + lookahead);
    }
  }

  const auto outcome = driver_->access(a.page, now_);
  now_ = outcome.completion;
  if (outcome.faulted) {
    ++m_.enclave_faults;
  }
  step_span.add_cycles(now_ - step_start);
  ++cursor_;
}

Metrics SimulationRun::finish() {
  SGXPL_CHECK_MSG(done(), "finishing an unfinished run");
  SGXPL_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;
  ensure_started();  // a zero-step finish still runs the hoisted prefix

  m_.total_cycles = now_;
  if (cfg_.validate) {
    driver_->drain();
    driver_->check_invariants();
  }
  m_.driver = driver_->stats();
  if (injector_ != nullptr) {
    m_.inject = injector_->stats();
  }
  if (engine_ != nullptr) {
    m_.dfp_stopped = engine_->stopped();
    m_.dfp_stopped_at = engine_->stopped_at();
    m_.dfp_preload_counter = engine_->preloaded_pages().preload_counter();
    m_.dfp_acc_preload_counter =
        engine_->preloaded_pages().acc_preload_counter();
    m_.dfp_predictor_hits = engine_->predictor().hits();
    m_.dfp_predictor_misses = engine_->predictor().misses();
  }
  if (cfg_.registry != nullptr) {
    auto& reg = *cfg_.registry;
    m_.driver.publish(reg);
    if (engine_ != nullptr) {
      engine_->publish(reg);
    }
    if (injector_ != nullptr) {
      m_.inject.publish(reg);
    }
    reg.counter("sim.runs").add();
    reg.counter("sim.total_cycles").add(m_.total_cycles);
    reg.counter("sim.compute_cycles").add(m_.compute_cycles);
    reg.counter("sim.contention_cycles").add(m_.contention_cycles);
    if (sip_on_) {
      reg.counter("sip.checks").add(m_.sip_checks);
      reg.counter("sip.requests").add(m_.sip_requests);
      reg.counter("sip.check_cycles").add(m_.sip_check_cycles);
      reg.counter("sip.notification_cycles").add(m_.sip_notification_cycles);
    }
  }
  return m_;
}

Metrics SimulationRun::run_to_end() {
  while (!done()) {
    step();
  }
  return finish();
}

std::uint64_t SimulationRun::run_until(Cycles bound) {
  std::uint64_t steps = 0;
  while (!done() && now_ < bound) {
    step();
    ++steps;
  }
  return steps;
}

snapshot::RunMeta SimulationRun::meta() const {
  snapshot::RunMeta meta;
  meta.kind = "enclave-sim";
  meta.scheme = to_string(cfg_.scheme);
  meta.trace_name = trace_->name();
  meta.trace_accesses = trace_->size();
  meta.elrange_pages = cfg_.enclave.elrange_pages;
  meta.epc_pages = cfg_.enclave.epc_pages;
  meta.chaos_spec = cfg_.chaos.any_enabled() ? cfg_.chaos.spec() : "";
  meta.chaos_seed = cfg_.chaos.seed;
  meta.hardening_spec = sgxsim::overload_spec(cfg_.enclave);
  meta.cursor = cursor_;
  return meta;
}

void SimulationRun::save_run_section(snapshot::Writer& w) const {
  w.begin_section("RUNS");
  w.boolean("run.started", started_);
  w.u64("run.cursor", cursor_);
  w.u64("run.now", now_);
  m_.save(w);
  w.end_section();
}

void SimulationRun::load_run_section(snapshot::Reader& r) {
  r.enter_section("RUNS");
  started_ = r.boolean("run.started");
  cursor_ = r.u64("run.cursor");
  SGXPL_CHECK_MSG(cursor_ <= trace_->size(),
                  "snapshot cursor " << cursor_ << " exceeds the trace's "
                                     << trace_->size() << " accesses");
  now_ = r.u64("run.now");
  m_.load(r);
  r.leave_section();
}

void SimulationRun::save_tail_sections(snapshot::Writer& w) const {
  if (engine_ != nullptr) {
    w.begin_section("DFPE");
    engine_->save(w);
    w.end_section();
  }
  if (injector_ != nullptr) {
    w.begin_section("INJC");
    injector_->save(w);
    w.end_section();
  }
}

void SimulationRun::load_tail_sections(snapshot::Reader& r) {
  if (engine_ != nullptr) {
    r.enter_section("DFPE");
    engine_->load(r, cfg_.enclave.elrange_pages);
    r.leave_section();
  }
  if (injector_ != nullptr) {
    r.enter_section("INJC");
    injector_->load(r);
    r.leave_section();
  }
}

void SimulationRun::save(snapshot::Writer& w) const {
  save(w, snapshot::ChainHeader{});
}

void SimulationRun::save(snapshot::Writer& w,
                         const snapshot::ChainHeader& chain) const {
  SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kFull,
                  "save() writes full frames; deltas go through save_delta()");
  snapshot::write_frame_head(w, chain, meta());
  save_run_section(w);
  driver_->save_sections(w);
  save_tail_sections(w);
}

std::vector<std::uint8_t> SimulationRun::save_bytes() const {
  snapshot::Writer w;
  save(w);
  return w.finish();
}

void SimulationRun::load_bytes(const std::vector<std::uint8_t>& bytes) {
  snapshot::RunFrame f(bytes);
  f.require(snapshot::FrameKind::kFull, meta());
  load_run_section(f.body);
  driver_->load_sections(f.body);
  load_tail_sections(f.body);
  f.finish();
  finished_ = false;
}

bool SimulationRun::restore_if_compatible(
    const std::vector<std::uint8_t>& bytes) {
  if (!snapshot::RunFrame(bytes).meta.incompatibility(meta()).empty()) {
    return false;
  }
  load_bytes(bytes);
  return true;
}

void SimulationRun::save_delta(snapshot::Writer& w,
                               const snapshot::ChainHeader& chain,
                               const snapshot::SectionGens& last) const {
  SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kDelta,
                  "save_delta() writes delta frames; full frames go through "
                  "save()");
  snapshot::write_frame_head(w, chain, meta());
  save_run_section(w);
  driver_->save_delta_sections(w, last);
  save_tail_sections(w);
}

void SimulationRun::apply_delta_bytes(const std::vector<std::uint8_t>& bytes) {
  snapshot::RunFrame f(bytes);
  f.require(snapshot::FrameKind::kDelta, meta());
  load_run_section(f.body);
  driver_->apply_delta_sections(f.body);
  load_tail_sections(f.body);
  f.finish();
  finished_ = false;
}

snapshot::SectionGens SimulationRun::section_gens() const {
  return driver_->section_gens();
}

void SimulationRun::clear_dirty() { driver_->clear_dirty(); }

EnclaveSimulator::EnclaveSimulator(const SimConfig& config)
    : config_(config) {}

Metrics EnclaveSimulator::run(const trace::Trace& t,
                              const sip::InstrumentationPlan* plan) {
  SGXPL_CHECK_MSG(!t.empty(), "empty trace");
  if (config_.scheme == Scheme::kNative) {
    return run_native(t);
  }
  SimulationRun run(config_, t, plan);
  const CheckpointOptions& ck = config_.checkpoint;
  // Checkpoint latency lands in the registry as steady-clock nanoseconds
  // (~cycles at 1 GHz) — real I/O time, not virtual time.
  const auto ns_since = [](std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  if (!ck.resume_path.empty()) {
    // Meta-gated: a snapshot belonging to a different configuration (benches
    // that simulate several schemes overwrite one file per run) is skipped
    // and this run starts fresh. Corrupt snapshots or broken chains still
    // throw. Any `.delta-N` files beside the base are replayed on top.
    obs::ScopedSpan span(config_.profiler, obs::Phase::kSnapshotLoad);
    const auto t0 = std::chrono::steady_clock::now();
    if (snapshot::restore_chain_from_files(run, ck.resume_path) &&
        config_.registry != nullptr) {
      config_.registry->histogram("snapshot.load_cycles").record(ns_since(t0));
    }
  }
  const bool checkpointing = ck.every_accesses > 0 && !ck.path.empty();
  snapshot::Snapshotter<SimulationRun> snap(ck.full_every);
  while (!run.done()) {
    run.step();
    if (checkpointing && run.cursor() % ck.every_accesses == 0) {
      obs::ScopedSpan span(config_.profiler, obs::Phase::kSnapshotSave);
      const auto t0 = std::chrono::steady_clock::now();
      const snapshot::ChainFrame frame = snap.checkpoint(run);
      const bool full = frame.header.kind == snapshot::FrameKind::kFull;
      snapshot::write_file_atomic(
          full ? ck.path : snapshot::delta_path(ck.path, frame.header.seq),
          frame.bytes);
      if (full) snapshot::remove_stale_deltas(ck.path);
      if (config_.registry != nullptr) {
        config_.registry->histogram("snapshot.save_cycles")
            .record(ns_since(t0));
        config_.registry->histogram("snapshot.bytes_written")
            .record(frame.bytes.size());
      }
    }
  }
  return run.finish();
}

Metrics EnclaveSimulator::run_native(const trace::Trace& t) const {
  // Outside an enclave the 32 GiB host holds the whole footprint: only the
  // first touch of each page faults, at the native fault cost.
  Metrics m;
  std::unordered_set<PageNum> touched;
  touched.reserve(t.size() / 4);
  Cycles now = 0;
  for (const auto& a : t.accesses()) {
    ++m.accesses;
    now += a.gap;
    m.compute_cycles += a.gap;
    if (touched.insert(a.page).second) {
      now += config_.costs.native_fault;
      ++m.enclave_faults;  // reported as plain page faults here
    }
  }
  m.total_cycles = now;
  return m;
}

Metrics simulate(const trace::Trace& t, const SimConfig& config,
                 const sip::InstrumentationPlan* plan) {
  EnclaveSimulator sim(config);
  return sim.run(t, plan);
}

}  // namespace sgxpl::core
