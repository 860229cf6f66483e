#include "core/simulator.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "dfp/dfp_engine.h"
#include "sgxsim/driver.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

namespace {

/// `config` with the ELRANGE taken from the trace when unset, once the
/// checks a steppable run needs have passed.
SimConfig steppable_config(SimConfig cfg, const trace::Trace& t,
                           const sip::InstrumentationPlan* plan) {
  SGXPL_CHECK_MSG(!t.empty(), "empty trace");
  SGXPL_CHECK_MSG(cfg.scheme != Scheme::kNative,
                  "the native scheme has no paging state to step; use "
                  "EnclaveSimulator::run");
  SGXPL_CHECK_MSG(!cfg.uses_sip() || plan != nullptr,
                  "SIP scheme needs an instrumentation plan");
  if (cfg.enclave.elrange_pages == 0) {
    cfg.enclave.elrange_pages = t.elrange_pages();
  }
  SGXPL_CHECK_MSG(cfg.enclave.elrange_pages > 0,
                  "trace declares no ELRANGE size");
  return cfg;
}

}  // namespace

SimulationRun::SimulationRun(const SimConfig& config, const trace::Trace& t,
                             const sip::InstrumentationPlan* plan)
    : cfg_(steppable_config(config, t, plan)),
      trace_(&t),
      plan_(plan),
      sip_on_(cfg_.uses_sip() && plan != nullptr && !plan->empty()),
      quiet_(cfg_.profiler == nullptr && !cfg_.chaos.any_enabled() &&
             cfg_.channel_contention <= 0.0 &&
             (!sip_on_ || cfg_.sip_lookahead == 0)),
      engine_(make_dfp_engine(cfg_, cfg_.scheme)),
      stack_(cfg_, cfg_.enclave.elrange_pages, engine_.get()) {
  if (engine_ != nullptr) {
    engine_->set_observability(cfg_.registry, cfg_.timeseries);
  }
}

inline void SimulationRun::charge_compute(Cycles gap) {
  ++m_.accesses;
  now_ += gap;
  m_.compute_cycles += gap;
}

inline void SimulationRun::charge_bitmap_check() {
  now_ += cfg_.costs.bitmap_check;
  m_.sip_check_cycles += cfg_.costs.bitmap_check;
  ++m_.sip_checks;
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
  charge_bitmap_check();
  if (!driver().sip_bitmap_check(target.page, now_)) {
    now_ += cfg_.costs.sip_notification;
    m_.sip_notification_cycles += cfg_.costs.sip_notification;
    ++m_.sip_requests;
    driver().sip_prefetch(target.page, now_);
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

  Cycles gap = a.gap;
  if (cfg_.channel_contention > 0.0 && gap > 0) {
    // Enclave compute overlapping page copies runs slower: inflate the
    // gap by the contention share of the overlapped busy time. One
    // fixpoint step is enough at realistic factors.
    const Cycles busy = driver().channel().busy_overlap(now_, now_ + gap);
    if (busy > 0) {
      const auto extra = static_cast<Cycles>(static_cast<double>(busy) *
                                             cfg_.channel_contention);
      gap += extra;
      m_.contention_cycles += extra;
    }
  }
  charge_compute(gap);

  if (sip_on_) {
    const std::uint32_t lookahead = cfg_.sip_lookahead;
    if (lookahead == 0) {
      if (plan_->instrumented(a.site)) {
        // Conservative mode: BIT_MAP_CHECK right before the access, then
        // a blocking page_loadin_function on a miss.
        obs::ScopedSpan sip_span(cfg_.profiler, obs::Phase::kSipCheck);
        const Cycles before = now_;
        charge_bitmap_check();
        if (!driver().sip_bitmap_check(a.page, now_)) {
          const Cycles loaded = driver().sip_load(a.page, now_);
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

  const auto outcome = driver().access(a.page, now_);
  now_ = outcome.completion;
  if (outcome.faulted) {
    ++m_.enclave_faults;
  }
  step_span.add_cycles(now_ - step_start);
  ++cursor_;
}

Metrics SimulationRun::finish() {
  SGXPL_CHECK_MSG(done(), "finishing an unfinished run");
  begin_finish();
  ensure_started();  // a zero-step finish still runs the hoisted prefix

  m_.total_cycles = now_;
  stack_.settle();
  stack_.collect(m_.driver, m_.inject);
  if (engine_ != nullptr) {
    fill_dfp_metrics(*engine_, m_);
  }
  if (cfg_.registry != nullptr) {
    auto& reg = *cfg_.registry;
    if (engine_ != nullptr) {
      engine_->publish(reg);
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

std::uint64_t SimulationRun::advance(std::uint64_t cursor_bound,
                                     Cycles clock_bound) {
  const std::uint64_t from = cursor_;
  const std::uint64_t end = std::min<std::uint64_t>(cursor_bound,
                                                    trace_->size());
  const auto& accesses = trace_->accesses();
  const sgxsim::PageTable& pt = driver().page_table();
  const PageNum elrange = cfg_.enclave.elrange_pages;
  while (cursor_ < end && now_ < clock_bound) {
    // A faulting access pays one predicate here, its page's present bit,
    // before step(). started_: the first access runs ensure_started()
    // through step().
    const PageNum page = accesses[cursor_].page;
    if (quiet_ && started_ && page < elrange && pt.present(page)) {
      advance_quiet(end, clock_bound);
      if (cursor_ == end || now_ >= clock_bound) {
        break;
      }
    }
    step();
  }
  return cursor_ - from;
}

void SimulationRun::advance_quiet(std::uint64_t end, Cycles clock_bound) {
  SGXPL_DCHECK(now_ < clock_bound);
  sgxsim::Driver& d = driver();
  // An access that lands at or past clock_bound is left to step(), which
  // takes it (its clock was below the bound when it began) and ends the
  // advance; so one compare covers both bounds.
  const Cycles horizon = std::min(d.quiet_horizon(), clock_bound);
  const sgxsim::PageTable& pt = d.page_table();
  const PageNum elrange = cfg_.enclave.elrange_pages;
  const Cycles check = cfg_.costs.bitmap_check;
  const auto& accesses = trace_->accesses();
  while (cursor_ < end) {
    const trace::Access& a = accesses[cursor_];
    const bool sip = sip_on_ && plan_->instrumented(a.site);
    const Cycles at = now_ + a.gap + (sip ? check : 0);
    if (at >= horizon || a.page >= elrange || !pt.present(a.page)) {
      return;
    }
    // step()'s charge for an access that finds its page resident (a
    // present page's bitmap bit is set, so an instrumented site's check
    // hits and loads nothing).
    charge_compute(a.gap);
    if (sip) {
      charge_bitmap_check();
    }
    d.resident_hit(a.page, now_);
    ++cursor_;
  }
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

void SimulationRun::save_head(snapshot::Writer& w) const {
  w.begin_section("RUNS");
  w.boolean("run.started", started_);
  w.u64("run.cursor", cursor_);
  w.u64("run.now", now_);
  m_.save(w);
  w.end_section();
}

void SimulationRun::load_head(snapshot::Reader& r) {
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

void SimulationRun::save_tail(snapshot::Writer& w) const {
  if (engine_ != nullptr) {
    w.begin_section("DFPE");
    engine_->save(w);
    w.end_section();
  }
}

void SimulationRun::load_tail(snapshot::Reader& r) {
  if (engine_ != nullptr) {
    r.enter_section("DFPE");
    engine_->load(r, cfg_.enclave.elrange_pages);
    r.leave_section();
  }
}

EnclaveSimulator::EnclaveSimulator(const SimConfig& config)
    : config_(config) {}

Metrics EnclaveSimulator::run(const trace::Trace& t,
                              const sip::InstrumentationPlan* plan) {
  SGXPL_CHECK_MSG(!t.empty(), "empty trace");
  if (config_.scheme == Scheme::kNative) {
    return run_native(t);
  }
  SimulationRun run(config_, t, plan);
  return run_checkpointed(run, config_);
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
