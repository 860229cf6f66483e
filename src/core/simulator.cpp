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
      plan_(cfg_.uses_sip() && plan != nullptr && !plan->empty() ? plan
                                                                 : nullptr),
      lookahead_(plan_ != nullptr ? cfg_.sip_lookahead : 0),
      quiet_(cfg_.profiler == nullptr && !cfg_.chaos.any_enabled() &&
             lookahead_ == 0),
      engine_(make_dfp_engine(cfg_, cfg_.scheme)),
      stack_(cfg_, cfg_.enclave.elrange_pages, engine_.get()) {
  replay_.trace = &t;
  replay_.plan = lookahead_ == 0 ? plan_ : nullptr;
  if (engine_ != nullptr) {
    engine_->set_observability(cfg_.registry, cfg_.timeseries);
  }
}

void SimulationRun::hoist(std::size_t idx) {
  // Hoisted mode: the check+notify for each instrumented access runs
  // `sip_lookahead` accesses early.
  const auto& target = replay_.trace->accesses()[idx];
  if (!plan_->instrumented(target.site)) {
    return;
  }
  obs::ScopedSpan span(cfg_.profiler, obs::Phase::kSipCheck);
  Cycles& now = replay_.now;
  const Cycles before = now;
  replay_.charge_bitmap_check(cfg_.costs);
  if (!driver().sip_bitmap_check(target.page, now)) {
    now += cfg_.costs.sip_notification;
    replay_.metrics.sip_notification_cycles += cfg_.costs.sip_notification;
    ++replay_.metrics.sip_requests;
    driver().sip_prefetch(target.page, now);
  }
  span.add_cycles(now - before);
}

void SimulationRun::ensure_started() {
  if (started_) {
    return;
  }
  started_ = true;
  // Issue the first lookahead window up front (the compiler hoists these
  // checks to the enclave's entry).
  const auto prefix = std::min<std::size_t>(lookahead_, replay_.trace->size());
  for (std::size_t j = 0; j < prefix; ++j) {
    hoist(j);
  }
}

void SimulationRun::step() {
  SGXPL_CHECK_MSG(!done(), "stepping past the end of the trace");
  ensure_started();
  replay_.step(driver(), cfg_.profiler, [this] {
    const std::size_t ahead = replay_.cursor + lookahead_;
    if (lookahead_ > 0 && ahead < replay_.trace->size()) {
      hoist(ahead);
    }
  });
}

Metrics SimulationRun::finish() {
  SGXPL_CHECK_MSG(done(), "finishing an unfinished run");
  begin_finish();
  ensure_started();  // a zero-step finish still runs the hoisted prefix

  Metrics& m = replay_.metrics;
  m.total_cycles = replay_.now;
  stack_.settle();
  stack_.collect(m.driver, m.inject);
  if (engine_ != nullptr) {
    fill_dfp_metrics(*engine_, m);
  }
  if (cfg_.registry != nullptr) {
    auto& reg = *cfg_.registry;
    if (engine_ != nullptr) {
      engine_->publish(reg);
    }
    reg.counter("sim.runs").add();
    reg.counter("sim.total_cycles").add(m.total_cycles);
    reg.counter("sim.compute_cycles").add(m.compute_cycles);
    if (plan_ != nullptr) {
      reg.counter("sip.checks").add(m.sip_checks);
      reg.counter("sip.requests").add(m.sip_requests);
      reg.counter("sip.check_cycles").add(m.sip_check_cycles);
      reg.counter("sip.notification_cycles").add(m.sip_notification_cycles);
    }
  }
  return m;
}

std::uint64_t SimulationRun::advance(std::uint64_t cursor_bound,
                                     Cycles clock_bound) {
  const std::uint64_t from = replay_.cursor;
  const std::uint64_t end = std::min<std::uint64_t>(cursor_bound,
                                                    replay_.trace->size());
  const auto& accesses = replay_.trace->accesses();
  const sgxsim::PageTable& pt = driver().page_table();
  const PageNum elrange = cfg_.enclave.elrange_pages;
  while (replay_.cursor < end && replay_.now < clock_bound) {
    // A faulting access pays one predicate here, its page's present bit,
    // before step(). started_: the first access runs ensure_started()
    // through step().
    const PageNum page = accesses[replay_.cursor].page;
    if (quiet_ && started_ && page < elrange && pt.present(page)) {
      advance_quiet(end, clock_bound);
      if (replay_.cursor == end || replay_.now >= clock_bound) {
        break;
      }
    }
    step();
  }
  return replay_.cursor - from;
}

void SimulationRun::advance_quiet(std::uint64_t end, Cycles clock_bound) {
  Replay& r = replay_;
  SGXPL_DCHECK(r.now < clock_bound);
  sgxsim::Driver& d = driver();
  // An access that lands at or past clock_bound is left to step(), which
  // takes it (its clock was below the bound when it began) and ends the
  // advance; so one compare covers both bounds.
  const Cycles horizon = std::min(d.quiet_horizon(), clock_bound);
  const sgxsim::PageTable& pt = d.page_table();
  const PageNum elrange = cfg_.enclave.elrange_pages;
  const Cycles check = cfg_.costs.bitmap_check;
  const auto& accesses = r.trace->accesses();
  while (r.cursor < end) {
    const trace::Access& a = accesses[r.cursor];
    const bool sip = r.plan != nullptr && r.plan->instrumented(a.site);
    const Cycles at = r.now + a.gap + (sip ? check : 0);
    if (at >= horizon || a.page >= elrange || !pt.present(a.page)) {
      return;
    }
    // step()'s charge for an access that finds its page resident (a
    // present page's bitmap bit is set, so an instrumented site's check
    // hits and loads nothing).
    r.charge_compute(a.gap);
    if (sip) {
      r.charge_bitmap_check(cfg_.costs);
    }
    d.resident_hit(a.page, r.now);
    ++r.cursor;
  }
}

snapshot::RunMeta SimulationRun::meta() const {
  snapshot::RunMeta meta = stack_.meta();
  meta.kind = "enclave-sim";
  meta.scheme = to_string(cfg_.scheme);
  meta.trace_name = replay_.trace->name();
  meta.trace_accesses = replay_.trace->size();
  meta.elrange_pages = cfg_.enclave.elrange_pages;
  meta.cursor = replay_.cursor;
  return meta;
}

void SimulationRun::save_head(snapshot::Writer& w) const {
  w.begin_section("RUNS");
  w.boolean("run.started", started_);
  w.u64("run.cursor", replay_.cursor);
  w.u64("run.now", replay_.now);
  replay_.metrics.save(w);
  w.end_section();
}

void SimulationRun::load_head(snapshot::Reader& r) {
  r.enter_section("RUNS");
  started_ = r.boolean("run.started");
  replay_.cursor = r.u64("run.cursor");
  SGXPL_CHECK_MSG(replay_.cursor <= replay_.trace->size(),
                  "snapshot cursor " << replay_.cursor
                                     << " exceeds the trace's "
                                     << replay_.trace->size() << " accesses");
  replay_.now = r.u64("run.now");
  replay_.metrics.load(r);
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
