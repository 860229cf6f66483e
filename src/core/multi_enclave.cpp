#include "core/multi_enclave.h"

#include <algorithm>

#include "common/check.h"
#include "dfp/dfp_engine.h"
#include "obs/metrics.h"
#include "sgxsim/driver.h"
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

  void on_preloads_shed(const std::vector<PageNum>& pages,
                        Cycles now) override {
    for (const PageNum p : pages) {
      if (auto* s = owner(p); s != nullptr && s->engine != nullptr) {
        s->engine->on_preloads_shed({p}, now);
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

/// A tenant's control-plane state beside its replay. `done` is set when the
/// replay ends or the tenant retires after a migration; `paused` freezes its
/// clock for a migration stop-and-copy and is never serialized (a carved
/// tenant resumes unpaused on its destination, and the frozen host frame
/// format cannot grow a field).
struct TenantFlags {
  bool done = false;
  bool paused = false;
};

/// Disjoint offsets of the enclaves' ELRANGEs in the combined page space.
std::vector<PageNum> elrange_offsets(const std::vector<EnclaveApp>& apps) {
  SGXPL_CHECK_MSG(!apps.empty(), "no enclaves to run");
  std::vector<PageNum> offset(apps.size());
  PageNum total_pages = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    SGXPL_CHECK(apps[i].trace != nullptr && !apps[i].trace->empty());
    offset[i] = total_pages;
    total_pages += apps[i].trace->elrange_pages();
  }
  return offset;
}

/// Per-enclave scheme state: each tenant's DFP engine over its own range.
std::unique_ptr<PerEnclavePolicy> make_policy(
    const SimConfig& cfg, const std::vector<EnclaveApp>& apps,
    const std::vector<PageNum>& offset) {
  std::vector<PerEnclavePolicy::Slot> slots;
  slots.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    PerEnclavePolicy::Slot slot;
    slot.lo = offset[i];
    slot.hi = offset[i] + apps[i].trace->elrange_pages();
    slot.engine = make_dfp_engine(cfg, apps[i].scheme);
    if (uses_sip(apps[i].scheme)) {
      SGXPL_CHECK_MSG(apps[i].plan != nullptr,
                      "SIP scheme needs a plan (enclave " << i << ")");
      SGXPL_CHECK_MSG(cfg.sip_lookahead == 0,
                      "sip_lookahead " << cfg.sip_lookahead << " given, but a "
                      "co-run's SIP checks are conservative only (enclave "
                                       << i << " runs SIP); use 0");
    }
    slots.push_back(std::move(slot));
  }
  return std::make_unique<PerEnclavePolicy>(std::move(slots));
}

/// One replay per tenant, each at its ELRANGE offset and keyed by its
/// index as ProcessId.
std::vector<Replay> tenant_replays(const std::vector<EnclaveApp>& apps,
                                   const std::vector<PageNum>& offset) {
  std::vector<Replay> streams(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    streams[i].trace = apps[i].trace;
    streams[i].plan = uses_sip(apps[i].scheme) ? apps[i].plan : nullptr;
    streams[i].offset = offset[i];
    streams[i].pid = ProcessId{static_cast<std::uint32_t>(i)};
  }
  return streams;
}

}  // namespace

struct MultiEnclaveRun::Impl {
  Impl(const SimConfig& config, const std::vector<EnclaveApp>& the_apps)
      : cfg(config),
        apps(the_apps),
        offset(elrange_offsets(apps)),
        combined_pages(offset.back() + apps.back().trace->elrange_pages()),
        policy(make_policy(cfg, apps, offset)),
        streams(tenant_replays(apps, offset)),
        flags(apps.size()) {}

  /// Throws for an enclave this co-run does not hold.
  void check_tenant(std::size_t enclave) const {
    SGXPL_CHECK_MSG(enclave < streams.size(),
                    "no enclave " << enclave << " in this co-run");
  }
  const Replay& stream(std::size_t enclave) const {
    check_tenant(enclave);
    return streams[enclave];
  }
  TenantFlags& tenant(std::size_t enclave) {
    check_tenant(enclave);
    return flags[enclave];
  }

  SimConfig cfg;
  std::vector<EnclaveApp> apps;
  std::vector<PageNum> offset;
  PageNum combined_pages = 0;
  std::unique_ptr<PerEnclavePolicy> policy;
  std::vector<Replay> streams;
  std::vector<TenantFlags> flags;
};

// Only the shared driver gets live sinks: the per-enclave DFP engines would
// all write the same "dfp.depth" gauge, so their counters are published
// (additively) at finish() instead.
MultiEnclaveRun::MultiEnclaveRun(const SimConfig& config,
                                 const std::vector<EnclaveApp>& apps)
    : impl_(std::make_unique<Impl>(config, apps)),
      stack_(impl_->cfg, impl_->combined_pages, impl_->policy.get()) {
  // Elastic EPC engages only here: the controller needs the tenant layout,
  // which single-enclave runs do not have. Engagement is deterministic from
  // config + apps, so both sides of a save/load agree on whether the DRVR
  // section carries elastic fields.
  if (config.enclave.elastic.enabled) {
    std::vector<std::pair<PageNum, PageNum>> geometry;
    geometry.reserve(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      geometry.emplace_back(impl_->offset[i], apps[i].trace->elrange_pages());
    }
    stack_.driver().set_elastic_geometry(geometry);
  }
}

MultiEnclaveRun::~MultiEnclaveRun() = default;

bool MultiEnclaveRun::done() const noexcept {
  for (const TenantFlags& f : impl_->flags) {
    if (!f.done) {
      return false;
    }
  }
  return true;
}

std::uint64_t MultiEnclaveRun::steps() const noexcept {
  std::uint64_t sum = 0;
  for (const Replay& r : impl_->streams) {
    sum += r.cursor;
  }
  return sum;
}

void MultiEnclaveRun::step() {
  Impl& im = *impl_;
  // Co-simulation: each enclave has its own clock and cursor; always step
  // the one furthest behind.
  const std::size_t next = min_clock_stream(im.streams, [&im](std::size_t i) {
    return im.flags[i].done || im.flags[i].paused;
  });
  SGXPL_CHECK_MSG(next != im.streams.size(),
                  "stepping a finished (or fully paused) multi-enclave run");
  Replay& r = im.streams[next];
  r.step(stack_.driver(), im.cfg.profiler);
  if (r.done()) {
    im.flags[next].done = true;
    r.metrics.total_cycles = r.now;
  }
}

MultiEnclaveResult MultiEnclaveRun::finish() {
  Impl& im = *impl_;
  SGXPL_CHECK_MSG(done(), "finishing an unfinished multi-enclave run");
  begin_finish();
  sgxsim::Driver& driver = stack_.driver();
  stack_.settle();

  MultiEnclaveResult result;
  result.per_enclave.reserve(im.apps.size());
  result.degrade_levels.reserve(im.apps.size());
  for (std::size_t i = 0; i < im.apps.size(); ++i) {
    Metrics m = im.streams[i].metrics;
    if (const auto* engine = im.policy->engine(i)) {
      fill_dfp_metrics(*engine, m);
    }
    result.makespan = std::max(result.makespan, m.total_cycles);
    result.per_enclave.push_back(std::move(m));
    result.degrade_levels.push_back(
        driver.degrade_level(ProcessId{static_cast<std::uint32_t>(i)}));
  }
  stack_.collect(result.driver, result.inject);
  if (driver.elastic_engaged()) {
    const auto& el = driver.elastic();
    result.elastic = el.stats();
    result.elastic_quotas.reserve(el.tenant_count());
    for (std::size_t t = 0; t < el.tenant_count(); ++t) {
      result.elastic_quotas.push_back(el.quota(t));
    }
  }
  if (im.cfg.registry != nullptr) {
    auto& reg = *im.cfg.registry;
    if (driver.elastic_engaged()) {
      driver.elastic().publish(reg);
    }
    for (std::size_t i = 0; i < im.apps.size(); ++i) {
      if (const auto* engine = im.policy->engine(i)) {
        engine->publish(reg);  // counters add across enclaves
      }
    }
  }
  return result;
}

snapshot::RunMeta MultiEnclaveRun::meta() const {
  const Impl& im = *impl_;
  snapshot::RunMeta meta = stack_.meta();
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
  meta.cursor = steps();
  return meta;
}

/// Per-tenant snapshot groups: ENCM identity, APPS clock/metrics, DFPE
/// engine when the tenant's scheme runs one. Written identically by full
/// and delta frames (tenant state is small and moves every step).
void MultiEnclaveRun::save_head(snapshot::Writer& w) const {
  const Impl& im = *impl_;
  for (std::size_t i = 0; i < im.apps.size(); ++i) {
    const bool has_dfp = im.policy->engine(i) != nullptr;
    w.begin_section("ENCM");
    w.u64("enc.index", i);
    w.str("enc.scheme", to_string(im.apps[i].scheme));
    w.str("enc.trace", im.apps[i].trace->name());
    w.boolean("enc.has_dfp", has_dfp);
    w.end_section();
    const Replay& st = im.streams[i];
    w.begin_section("APPS");
    w.u64("app.cursor", st.cursor);
    w.u64("app.now", st.now);
    w.boolean("app.done", im.flags[i].done);
    st.metrics.save(w);
    w.end_section();
    if (has_dfp) {
      w.begin_section("DFPE");
      im.policy->engine(i)->save(w);
      w.end_section();
    }
  }
}

void MultiEnclaveRun::load_head(snapshot::Reader& r) {
  Impl& im = *impl_;
  for (std::size_t i = 0; i < im.apps.size(); ++i) {
    r.enter_section("ENCM");
    const std::uint64_t index = r.u64("enc.index");
    SGXPL_CHECK_MSG(index == i, "snapshot tenant group " << index
                                    << " arrived at position " << i);
    const std::string scheme = r.str("enc.scheme");
    SGXPL_CHECK_MSG(scheme == to_string(im.apps[i].scheme),
                    "snapshot enclave " << i << " ran scheme '" << scheme
                                        << "' but this run expects '"
                                        << to_string(im.apps[i].scheme) << "'");
    const std::string trace_name = r.str("enc.trace");
    SGXPL_CHECK_MSG(trace_name == im.apps[i].trace->name(),
                    "snapshot enclave " << i << " ran trace '" << trace_name
                                        << "' but this run expects '"
                                        << im.apps[i].trace->name() << "'");
    const bool has_dfp = r.boolean("enc.has_dfp");
    SGXPL_CHECK_MSG(has_dfp == (im.policy->engine(i) != nullptr),
                    "snapshot enclave "
                        << i << (has_dfp ? " carries" : " lacks")
                        << " a DFP engine but this run "
                        << (has_dfp ? "lacks" : "carries") << " one");
    r.leave_section();
    Replay& st = im.streams[i];
    r.enter_section("APPS");
    st.cursor = r.u64("app.cursor");
    SGXPL_CHECK_MSG(st.cursor <= im.apps[i].trace->size(),
                    "snapshot cursor " << st.cursor << " exceeds enclave "
                                       << i << "'s trace of "
                                       << im.apps[i].trace->size()
                                       << " accesses");
    st.now = r.u64("app.now");
    im.flags[i].done = r.boolean("app.done");
    st.metrics.load(r);
    r.leave_section();
    if (has_dfp) {
      r.enter_section("DFPE");
      im.policy->mutable_engine(i)->load(r, im.combined_pages);
      r.leave_section();
    }
  }
}

std::size_t MultiEnclaveRun::enclave_count() const noexcept {
  return impl_->apps.size();
}

Metrics MultiEnclaveRun::tenant_metrics(std::size_t enclave) const {
  return impl_->stream(enclave).metrics;
}

const dfp::DfpEngine* MultiEnclaveRun::tenant_engine(
    std::size_t enclave) const {
  impl_->check_tenant(enclave);
  return impl_->policy->engine(enclave);
}

std::uint64_t MultiEnclaveRun::tenant_cursor(std::size_t enclave) const {
  return impl_->stream(enclave).cursor;
}

Cycles MultiEnclaveRun::tenant_clock(std::size_t enclave) const {
  return impl_->stream(enclave).now;
}

snapshot::TenantGeometry MultiEnclaveRun::tenant_geometry(
    std::size_t enclave) const {
  const Impl& im = *impl_;
  im.check_tenant(enclave);
  return snapshot::TenantGeometry{
      .lo = im.offset[enclave],
      .pages = im.apps[enclave].trace->elrange_pages(),
      .trace_accesses = im.apps[enclave].trace->size()};
}

void MultiEnclaveRun::set_tenant_paused(std::size_t enclave, bool paused) {
  impl_->tenant(enclave).paused = paused;
}

bool MultiEnclaveRun::tenant_paused(std::size_t enclave) const {
  impl_->check_tenant(enclave);
  return impl_->flags[enclave].paused;
}

bool MultiEnclaveRun::steppable() const noexcept {
  for (const TenantFlags& f : impl_->flags) {
    if (!f.done && !f.paused) {
      return true;
    }
  }
  return false;
}

void MultiEnclaveRun::begin_tenant_drain(std::size_t enclave) {
  impl_->check_tenant(enclave);
  stack_.driver().begin_drain(ProcessId{static_cast<std::uint32_t>(enclave)});
}

void MultiEnclaveRun::end_tenant_drain(std::size_t enclave) {
  impl_->check_tenant(enclave);
  stack_.driver().end_drain(ProcessId{static_cast<std::uint32_t>(enclave)});
}

void MultiEnclaveRun::retire_tenant(std::size_t enclave) {
  TenantFlags& f = impl_->tenant(enclave);
  SGXPL_CHECK_MSG(f.paused,
                  "retire_tenant() requires the tenant to be paused (the "
                  "stop-and-copy must have frozen its clock)");
  if (!f.done) {
    f.done = true;
    Replay& r = impl_->streams[enclave];
    r.metrics.total_cycles = r.now;
  }
}

MultiEnclaveSimulator::MultiEnclaveSimulator(const SimConfig& config)
    : config_(config) {}

MultiEnclaveResult MultiEnclaveSimulator::run(
    const std::vector<EnclaveApp>& apps) {
  MultiEnclaveRun run(config_, apps);
  return run_checkpointed(run, config_);
}

}  // namespace sgxpl::core
