#include "core/multi_enclave.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/check.h"
#include "dfp/dfp_engine.h"
#include "inject/fault_injector.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/time_series.h"
#include "sgxsim/driver.h"
#include "snapshot/chain.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

namespace {

/// Routes driver callbacks to per-enclave DFP engines: faults by ProcessId,
/// page-scoped events (completion/abort/eviction) by ELRANGE offset.
class PerEnclavePolicy final : public sgxsim::PreloadPolicy {
 public:
  struct Slot {
    std::unique_ptr<dfp::DfpEngine> engine;  // null = no DFP for this app
    PageNum lo = 0;
    PageNum hi = 0;
  };

  explicit PerEnclavePolicy(std::vector<Slot> slots)
      : slots_(std::move(slots)) {}

  std::vector<PageNum> on_fault(ProcessId pid, PageNum page,
                                Cycles now) override {
    auto& slot = slots_.at(pid);
    if (slot.engine == nullptr) {
      return {};
    }
    // Predictions are already in the combined address space (the engine
    // sees combined page numbers); clamp to the owner's ELRANGE so one
    // enclave never preloads into another's range.
    auto pages = slot.engine->on_fault(pid, page, now);
    std::erase_if(pages, [&slot](PageNum p) {
      return p < slot.lo || p >= slot.hi;
    });
    return pages;
  }

  void on_preload_completed(PageNum page, Cycles now) override {
    if (auto* s = owner(page); s != nullptr && s->engine != nullptr) {
      s->engine->on_preload_completed(page, now);
    }
  }

  void on_preloads_aborted(const std::vector<PageNum>& pages,
                           Cycles now) override {
    for (const PageNum p : pages) {
      if (auto* s = owner(p); s != nullptr && s->engine != nullptr) {
        s->engine->on_preloads_aborted({p}, now);
      }
    }
  }

  void on_preloaded_page_evicted(PageNum page, bool was_accessed,
                                 Cycles now) override {
    if (auto* s = owner(page); s != nullptr && s->engine != nullptr) {
      s->engine->on_preloaded_page_evicted(page, was_accessed, now);
    }
  }

  void on_preloaded_page_touched(PageNum page) override {
    if (auto* s = owner(page); s != nullptr && s->engine != nullptr) {
      s->engine->on_preloaded_page_touched(page);
    }
  }

  void on_scan(const sgxsim::PageTable& pt, Cycles now) override {
    for (auto& s : slots_) {
      if (s.engine != nullptr) {
        s.engine->on_scan(pt, now);
      }
    }
  }

  const dfp::DfpEngine* engine(std::size_t i) const {
    return slots_.at(i).engine.get();
  }
  dfp::DfpEngine* mutable_engine(std::size_t i) {
    return slots_.at(i).engine.get();
  }

 private:
  Slot* owner(PageNum page) {
    for (auto& s : slots_) {
      if (page >= s.lo && page < s.hi) {
        return &s;
      }
    }
    return nullptr;
  }

  std::vector<Slot> slots_;
};

struct AppState {
  std::size_t cursor = 0;
  Cycles now = 0;
  bool done = false;
  /// Clock frozen for a migration stop-and-copy. Control-plane state only:
  /// never serialized (a carved tenant resumes unpaused on its destination,
  /// and the frozen host frame format cannot grow a field).
  bool paused = false;
  Metrics metrics;
};

}  // namespace

struct MultiEnclaveRun::Impl {
  Impl(const SimConfig& config, const std::vector<EnclaveApp>& the_apps)
      : cfg(config), apps(the_apps) {
    SGXPL_CHECK_MSG(!apps.empty(), "no enclaves to run");

    // Lay the enclaves out at disjoint offsets in the combined space.
    offset.resize(apps.size());
    PageNum total_pages = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      SGXPL_CHECK(apps[i].trace != nullptr && !apps[i].trace->empty());
      offset[i] = total_pages;
      total_pages += apps[i].trace->elrange_pages();
    }

    // Per-enclave scheme state.
    std::vector<PerEnclavePolicy::Slot> slots;
    slots.reserve(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const Scheme scheme = apps[i].scheme;
      PerEnclavePolicy::Slot slot;
      slot.lo = offset[i];
      slot.hi = offset[i] + apps[i].trace->elrange_pages();
      if (uses_dfp(scheme)) {
        dfp::DfpParams params = cfg.dfp;
        if (dfp_stop_forced(scheme)) {
          params.stop_enabled = true;
        }
        slot.engine = std::make_unique<dfp::DfpEngine>(params);
      }
      if (uses_sip(scheme)) {
        SGXPL_CHECK_MSG(apps[i].plan != nullptr,
                        "SIP scheme needs a plan (enclave " << i << ")");
      }
      slots.push_back(std::move(slot));
    }
    policy = std::make_unique<PerEnclavePolicy>(std::move(slots));

    sgxsim::EnclaveConfig ecfg = cfg.enclave;
    ecfg.elrange_pages = total_pages;
    combined_pages = total_pages;
    // Chaos attach, same contract as SimulationRun: under an active plan the
    // online watchdog defaults on so a corrupting hook trips immediately.
    if (cfg.chaos.any_enabled()) {
      injector = std::make_unique<inject::FaultInjector>(cfg.chaos);
      if (ecfg.watchdog_scan_interval == 0) {
        ecfg.watchdog_scan_interval = 64;
      }
    }
    driver = std::make_unique<sgxsim::Driver>(ecfg, cfg.costs, policy.get());
    if (injector != nullptr) {
      driver->set_chaos(injector.get());
    }
    // Elastic EPC engages only here: the controller needs the tenant layout,
    // which single-enclave runs do not have. Engagement is deterministic
    // from config + apps, so both sides of a save/load agree on whether the
    // DRVR section carries elastic fields.
    if (cfg.enclave.elastic.enabled) {
      std::vector<std::pair<PageNum, PageNum>> geometry;
      geometry.reserve(apps.size());
      for (std::size_t i = 0; i < apps.size(); ++i) {
        geometry.emplace_back(offset[i], apps[i].trace->elrange_pages());
      }
      driver->set_elastic_geometry(geometry);
    }
    // Observability attach. Only the shared driver gets live sinks: the
    // per-enclave DFP engines would all write the same "dfp.depth" gauge,
    // so their counters are published (additively) at finish() instead.
    if (cfg.event_log != nullptr) {
      cfg.event_log->clear();
      driver->set_event_log(cfg.event_log);
      if (injector != nullptr) {
        injector->set_event_log(cfg.event_log);
      }
    }
    if (cfg.registry != nullptr) {
      driver->set_metrics(cfg.registry);
    }
    if (cfg.timeseries != nullptr) {
      cfg.timeseries->clear();
      driver->set_time_series(cfg.timeseries);
    }
    if (cfg.profiler != nullptr) {
      driver->set_profiler(cfg.profiler);
      for (std::size_t i = 0; i < apps.size(); ++i) {
        if (auto* eng = policy->mutable_engine(i)) {
          eng->set_profiler(cfg.profiler);
        }
      }
    }
    state.resize(apps.size());
  }

  std::uint64_t steps() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& st : state) {
      sum += st.cursor;
    }
    return sum;
  }

  /// Per-tenant snapshot groups: ENCM identity, APPS clock/metrics, DFPE
  /// engine when the tenant's scheme runs one. Written identically by full
  /// and delta frames (tenant state is small and moves every step).
  void save_tenants(snapshot::Writer& w) const {
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const bool has_dfp = policy->engine(i) != nullptr;
      w.begin_section("ENCM");
      w.u64("enc.index", i);
      w.str("enc.scheme", to_string(apps[i].scheme));
      w.str("enc.trace", apps[i].trace->name());
      w.boolean("enc.has_dfp", has_dfp);
      w.end_section();
      const AppState& st = state[i];
      w.begin_section("APPS");
      w.u64("app.cursor", st.cursor);
      w.u64("app.now", st.now);
      w.boolean("app.done", st.done);
      st.metrics.save(w);
      w.end_section();
      if (has_dfp) {
        w.begin_section("DFPE");
        policy->engine(i)->save(w);
        w.end_section();
      }
    }
  }

  void load_tenants(snapshot::Reader& r) {
    for (std::size_t i = 0; i < apps.size(); ++i) {
      r.enter_section("ENCM");
      const std::uint64_t index = r.u64("enc.index");
      SGXPL_CHECK_MSG(index == i, "snapshot tenant group " << index
                                      << " arrived at position " << i);
      const std::string scheme = r.str("enc.scheme");
      SGXPL_CHECK_MSG(scheme == to_string(apps[i].scheme),
                      "snapshot enclave " << i << " ran scheme '" << scheme
                                          << "' but this run expects '"
                                          << to_string(apps[i].scheme) << "'");
      const std::string trace_name = r.str("enc.trace");
      SGXPL_CHECK_MSG(trace_name == apps[i].trace->name(),
                      "snapshot enclave " << i << " ran trace '" << trace_name
                                          << "' but this run expects '"
                                          << apps[i].trace->name() << "'");
      const bool has_dfp = r.boolean("enc.has_dfp");
      SGXPL_CHECK_MSG(has_dfp == (policy->engine(i) != nullptr),
                      "snapshot enclave "
                          << i << (has_dfp ? " carries" : " lacks")
                          << " a DFP engine but this run "
                          << (has_dfp ? "lacks" : "carries") << " one");
      r.leave_section();
      AppState& st = state[i];
      r.enter_section("APPS");
      st.cursor = r.u64("app.cursor");
      SGXPL_CHECK_MSG(st.cursor <= apps[i].trace->size(),
                      "snapshot cursor " << st.cursor << " exceeds enclave "
                                         << i << "'s trace of "
                                         << apps[i].trace->size()
                                         << " accesses");
      st.now = r.u64("app.now");
      st.done = r.boolean("app.done");
      st.metrics.load(r);
      r.leave_section();
      if (has_dfp) {
        r.enter_section("DFPE");
        policy->mutable_engine(i)->load(r, combined_pages);
        r.leave_section();
      }
    }
  }

  /// The frame's last section: the injector's bookkeeping, when chaos is on.
  void save_injector(snapshot::Writer& w) const {
    if (injector != nullptr) {
      w.begin_section("INJC");
      injector->save(w);
      w.end_section();
    }
  }

  void load_injector(snapshot::Reader& r) {
    if (injector != nullptr) {
      r.enter_section("INJC");
      injector->load(r);
      r.leave_section();
    }
  }

  SimConfig cfg;
  std::vector<EnclaveApp> apps;
  std::vector<PageNum> offset;
  PageNum combined_pages = 0;
  std::unique_ptr<PerEnclavePolicy> policy;
  std::unique_ptr<inject::FaultInjector> injector;
  std::unique_ptr<sgxsim::Driver> driver;
  std::vector<AppState> state;
  bool finished = false;
};

MultiEnclaveRun::MultiEnclaveRun(const SimConfig& config,
                                 const std::vector<EnclaveApp>& apps)
    : impl_(std::make_unique<Impl>(config, apps)) {}

MultiEnclaveRun::~MultiEnclaveRun() = default;

bool MultiEnclaveRun::done() const noexcept {
  for (const auto& st : impl_->state) {
    if (!st.done) {
      return false;
    }
  }
  return true;
}

std::uint64_t MultiEnclaveRun::steps() const noexcept {
  return impl_->steps();
}

void MultiEnclaveRun::step() {
  Impl& im = *impl_;
  // Co-simulation: each enclave has its own clock and cursor; always step
  // the one furthest behind.
  std::size_t next = im.apps.size();
  Cycles min_clock = std::numeric_limits<Cycles>::max();
  for (std::size_t i = 0; i < im.apps.size(); ++i) {
    if (!im.state[i].done && !im.state[i].paused &&
        im.state[i].now < min_clock) {
      min_clock = im.state[i].now;
      next = i;
    }
  }
  SGXPL_CHECK_MSG(next != im.apps.size(),
                  "stepping a finished (or fully paused) multi-enclave run");

  AppState& st = im.state[next];
  const EnclaveApp& app = im.apps[next];
  const auto& a = app.trace->accesses()[st.cursor];
  const PageNum page = im.offset[next] + a.page;

  obs::ScopedSpan step_span(im.cfg.profiler, obs::Phase::kStep);
  const Cycles step_start = st.now;
  st.now += a.gap;
  st.metrics.compute_cycles += a.gap;
  ++st.metrics.accesses;

  if (uses_sip(app.scheme) && app.plan->instrumented(a.site)) {
    st.now += im.cfg.costs.bitmap_check;
    st.metrics.sip_check_cycles += im.cfg.costs.bitmap_check;
    ++st.metrics.sip_checks;
    if (!im.driver->bitmap().test(page)) {
      const Cycles loaded = im.driver->sip_load(page, st.now);
      st.now = loaded + im.cfg.costs.sip_notification;
      st.metrics.sip_notification_cycles += im.cfg.costs.sip_notification;
      ++st.metrics.sip_requests;
    }
  }

  const auto outcome = im.driver->access(
      page, st.now, ProcessId{static_cast<std::uint32_t>(next)});
  st.now = outcome.completion;
  if (outcome.faulted) {
    ++st.metrics.enclave_faults;
  }
  step_span.add_cycles(st.now - step_start);

  if (++st.cursor >= app.trace->size()) {
    st.done = true;
    st.metrics.total_cycles = st.now;
  }
}

MultiEnclaveResult MultiEnclaveRun::finish() {
  Impl& im = *impl_;
  SGXPL_CHECK_MSG(done(), "finishing an unfinished multi-enclave run");
  SGXPL_CHECK_MSG(!im.finished, "finish() called twice");
  im.finished = true;

  // A hardened run may still hold lost ops awaiting their retry deadlines;
  // settle them so shed/retry/permanent counters are final. The default
  // (non-hardened) path skips this and finishes exactly as before.
  if (im.cfg.enclave.channel.max_retries > 0) {
    im.driver->drain();
    im.driver->check_invariants();
  }

  MultiEnclaveResult result;
  result.per_enclave.reserve(im.apps.size());
  result.degrade_levels.reserve(im.apps.size());
  for (std::size_t i = 0; i < im.apps.size(); ++i) {
    Metrics m = im.state[i].metrics;
    if (const auto* engine = im.policy->engine(i)) {
      m.dfp_stopped = engine->stopped();
      m.dfp_stopped_at = engine->stopped_at();
      m.dfp_preload_counter = engine->preloaded_pages().preload_counter();
      m.dfp_acc_preload_counter =
          engine->preloaded_pages().acc_preload_counter();
      m.dfp_predictor_hits = engine->predictor().hits();
      m.dfp_predictor_misses = engine->predictor().misses();
    }
    result.makespan = std::max(result.makespan, m.total_cycles);
    result.per_enclave.push_back(std::move(m));
    result.degrade_levels.push_back(
        im.driver->degrade_level(ProcessId{static_cast<std::uint32_t>(i)}));
  }
  result.driver = im.driver->stats();
  if (im.injector != nullptr) {
    result.inject = im.injector->stats();
  }
  if (im.driver->elastic_engaged()) {
    const auto& el = im.driver->elastic();
    result.elastic = el.stats();
    result.elastic_quotas.reserve(el.tenant_count());
    for (std::size_t t = 0; t < el.tenant_count(); ++t) {
      result.elastic_quotas.push_back(el.quota(t));
    }
  }
  if (im.cfg.registry != nullptr) {
    auto& reg = *im.cfg.registry;
    result.driver.publish(reg);
    if (im.driver->elastic_engaged()) {
      im.driver->elastic().publish(reg);
    }
    for (std::size_t i = 0; i < im.apps.size(); ++i) {
      if (const auto* engine = im.policy->engine(i)) {
        engine->publish(reg);  // counters add across enclaves
      }
    }
    if (im.injector != nullptr) {
      result.inject.publish(reg);
    }
  }
  return result;
}

MultiEnclaveResult MultiEnclaveRun::run_to_end() {
  while (!done()) {
    step();
  }
  return finish();
}

snapshot::RunMeta MultiEnclaveRun::meta() const {
  const Impl& im = *impl_;
  snapshot::RunMeta meta;
  meta.kind = "multi-enclave";
  std::uint64_t total_accesses = 0;
  for (std::size_t i = 0; i < im.apps.size(); ++i) {
    if (i > 0) {
      meta.scheme += ",";
      meta.trace_name += ",";
    }
    meta.scheme += to_string(im.apps[i].scheme);
    meta.trace_name += im.apps[i].trace->name();
    total_accesses += im.apps[i].trace->size();
  }
  meta.trace_accesses = total_accesses;
  meta.elrange_pages = im.combined_pages;
  meta.epc_pages = im.cfg.enclave.epc_pages;
  meta.chaos_spec = im.cfg.chaos.any_enabled() ? im.cfg.chaos.spec() : "";
  meta.chaos_seed = im.cfg.chaos.seed;
  meta.hardening_spec = sgxsim::overload_spec(im.cfg.enclave);
  meta.cursor = im.steps();
  return meta;
}

void MultiEnclaveRun::save(snapshot::Writer& w) const {
  save(w, snapshot::ChainHeader{});
}

void MultiEnclaveRun::save(snapshot::Writer& w,
                           const snapshot::ChainHeader& chain) const {
  const Impl& im = *impl_;
  SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kFull,
                  "save() writes full frames; deltas go through save_delta()");
  snapshot::write_frame_head(w, chain, meta());
  im.save_tenants(w);
  im.driver->save_sections(w);
  im.save_injector(w);
}

std::vector<std::uint8_t> MultiEnclaveRun::save_bytes() const {
  snapshot::Writer w;
  save(w);
  return w.finish();
}

void MultiEnclaveRun::load_bytes(const std::vector<std::uint8_t>& bytes) {
  Impl& im = *impl_;
  snapshot::RunFrame f(bytes);
  f.require(snapshot::FrameKind::kFull, meta());
  im.load_tenants(f.body);
  im.driver->load_sections(f.body);
  im.load_injector(f.body);
  f.finish();
  im.finished = false;
}

bool MultiEnclaveRun::restore_if_compatible(
    const std::vector<std::uint8_t>& bytes) {
  if (!snapshot::RunFrame(bytes).meta.incompatibility(meta()).empty()) {
    return false;
  }
  load_bytes(bytes);
  return true;
}

void MultiEnclaveRun::save_delta(snapshot::Writer& w,
                                 const snapshot::ChainHeader& chain,
                                 const snapshot::SectionGens& last) const {
  const Impl& im = *impl_;
  SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kDelta,
                  "save_delta() writes delta frames; full frames go through "
                  "save()");
  snapshot::write_frame_head(w, chain, meta());
  im.save_tenants(w);
  im.driver->save_delta_sections(w, last);
  im.save_injector(w);
}

void MultiEnclaveRun::apply_delta_bytes(
    const std::vector<std::uint8_t>& bytes) {
  Impl& im = *impl_;
  snapshot::RunFrame f(bytes);
  f.require(snapshot::FrameKind::kDelta, meta());
  im.load_tenants(f.body);
  im.driver->apply_delta_sections(f.body);
  im.load_injector(f.body);
  f.finish();
  im.finished = false;
}

snapshot::SectionGens MultiEnclaveRun::section_gens() const {
  return impl_->driver->section_gens();
}

void MultiEnclaveRun::clear_dirty() { impl_->driver->clear_dirty(); }

std::size_t MultiEnclaveRun::enclave_count() const noexcept {
  return impl_->apps.size();
}

Metrics MultiEnclaveRun::tenant_metrics(std::size_t enclave) const {
  SGXPL_CHECK_MSG(enclave < impl_->state.size(),
                  "no enclave " << enclave << " in this co-run");
  return impl_->state[enclave].metrics;
}

const dfp::DfpEngine* MultiEnclaveRun::tenant_engine(
    std::size_t enclave) const {
  SGXPL_CHECK_MSG(enclave < impl_->state.size(),
                  "no enclave " << enclave << " in this co-run");
  return impl_->policy->engine(enclave);
}

sgxsim::Driver& MultiEnclaveRun::driver() noexcept { return *impl_->driver; }

std::uint64_t MultiEnclaveRun::tenant_cursor(std::size_t enclave) const {
  SGXPL_CHECK_MSG(enclave < impl_->state.size(),
                  "no enclave " << enclave << " in this co-run");
  return impl_->state[enclave].cursor;
}

Cycles MultiEnclaveRun::tenant_clock(std::size_t enclave) const {
  SGXPL_CHECK_MSG(enclave < impl_->state.size(),
                  "no enclave " << enclave << " in this co-run");
  return impl_->state[enclave].now;
}

snapshot::TenantGeometry MultiEnclaveRun::tenant_geometry(
    std::size_t enclave) const {
  const Impl& im = *impl_;
  SGXPL_CHECK_MSG(enclave < im.apps.size(),
                  "no enclave " << enclave << " in this co-run");
  return snapshot::TenantGeometry{
      .lo = im.offset[enclave],
      .pages = im.apps[enclave].trace->elrange_pages(),
      .trace_accesses = im.apps[enclave].trace->size()};
}

void MultiEnclaveRun::set_tenant_paused(std::size_t enclave, bool paused) {
  SGXPL_CHECK_MSG(enclave < impl_->state.size(),
                  "no enclave " << enclave << " in this co-run");
  impl_->state[enclave].paused = paused;
}

bool MultiEnclaveRun::tenant_paused(std::size_t enclave) const {
  SGXPL_CHECK_MSG(enclave < impl_->state.size(),
                  "no enclave " << enclave << " in this co-run");
  return impl_->state[enclave].paused;
}

bool MultiEnclaveRun::steppable() const noexcept {
  for (const auto& st : impl_->state) {
    if (!st.done && !st.paused) {
      return true;
    }
  }
  return false;
}

void MultiEnclaveRun::begin_tenant_drain(std::size_t enclave) {
  SGXPL_CHECK_MSG(enclave < impl_->state.size(),
                  "no enclave " << enclave << " in this co-run");
  impl_->driver->begin_drain(ProcessId{static_cast<std::uint32_t>(enclave)});
}

void MultiEnclaveRun::end_tenant_drain(std::size_t enclave) {
  SGXPL_CHECK_MSG(enclave < impl_->state.size(),
                  "no enclave " << enclave << " in this co-run");
  impl_->driver->end_drain(ProcessId{static_cast<std::uint32_t>(enclave)});
}

void MultiEnclaveRun::retire_tenant(std::size_t enclave) {
  Impl& im = *impl_;
  SGXPL_CHECK_MSG(enclave < im.state.size(),
                  "no enclave " << enclave << " in this co-run");
  AppState& st = im.state[enclave];
  SGXPL_CHECK_MSG(st.paused,
                  "retire_tenant() requires the tenant to be paused (the "
                  "stop-and-copy must have frozen its clock)");
  if (!st.done) {
    st.done = true;
    st.metrics.total_cycles = st.now;
  }
}

MultiEnclaveSimulator::MultiEnclaveSimulator(const SimConfig& config)
    : config_(config) {}

MultiEnclaveResult MultiEnclaveSimulator::run(
    const std::vector<EnclaveApp>& apps) {
  MultiEnclaveRun run(config_, apps);
  const CheckpointOptions& ck = config_.checkpoint;
  // Same latency accounting as EnclaveSimulator::run: steady-clock
  // nanoseconds (~cycles at 1 GHz) of real checkpoint I/O.
  const auto ns_since = [](std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  if (!ck.resume_path.empty()) {
    // Meta-gated, same contract as EnclaveSimulator::run: a snapshot of a
    // different configuration is skipped; corrupt snapshots or broken
    // chains still throw. `.delta-N` files beside the base are replayed.
    obs::ScopedSpan span(config_.profiler, obs::Phase::kSnapshotLoad);
    const auto t0 = std::chrono::steady_clock::now();
    if (snapshot::restore_chain_from_files(run, ck.resume_path) &&
        config_.registry != nullptr) {
      config_.registry->histogram("snapshot.load_cycles").record(ns_since(t0));
    }
  }
  const bool checkpointing = ck.every_accesses > 0 && !ck.path.empty();
  snapshot::Snapshotter<MultiEnclaveRun> snap(ck.full_every);
  while (!run.done()) {
    run.step();
    if (checkpointing && run.steps() % ck.every_accesses == 0) {
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

}  // namespace sgxpl::core
