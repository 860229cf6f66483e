#include "core/run_stack.h"

#include <chrono>

#include "common/check.h"
#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "dfp/dfp_engine.h"
#include "inject/fault_injector.h"
#include "sgxsim/driver.h"
#include "snapshot/chain.h"

namespace sgxpl::core {

std::unique_ptr<dfp::DfpEngine> make_dfp_engine(const SimConfig& cfg,
                                                Scheme scheme) {
  if (!uses_dfp(scheme)) {
    return nullptr;
  }
  dfp::DfpParams params = cfg.dfp;
  if (dfp_stop_forced(scheme)) {
    params.stop_enabled = true;
  }
  auto engine = std::make_unique<dfp::DfpEngine>(params);
  engine->set_profiler(cfg.profiler);
  return engine;
}

void fill_dfp_metrics(const dfp::DfpEngine& engine, Metrics& m) {
  m.dfp_stopped = engine.stopped();
  m.dfp_stopped_at = engine.stopped_at();
  m.dfp_preload_counter = engine.preloaded_pages().preload_counter();
  m.dfp_acc_preload_counter = engine.preloaded_pages().acc_preload_counter();
  m.dfp_predictor_hits = engine.predictor().hits();
  m.dfp_predictor_misses = engine.predictor().misses();
}

RunStack::RunStack(const SimConfig& cfg, PageNum elrange_pages,
                   sgxsim::PreloadPolicy* policy)
    : settle_(cfg.validate || cfg.enclave.channel.max_retries > 0),
      registry_(cfg.registry) {
  meta_.epc_pages = cfg.enclave.epc_pages;
  meta_.chaos_spec = cfg.chaos.any_enabled() ? cfg.chaos.spec() : "";
  meta_.chaos_seed = cfg.chaos.seed;
  meta_.hardening_spec = sgxsim::overload_spec(cfg.enclave);
  sgxsim::EnclaveConfig ecfg = cfg.enclave;
  ecfg.elrange_pages = elrange_pages;
  // Chaos attach: the injector perturbs the untrusted stack through the
  // driver's ChaosHooks boundary; a plan with nothing enabled costs nothing.
  if (cfg.chaos.any_enabled()) {
    injector_ = std::make_unique<inject::FaultInjector>(cfg.chaos);
    if (ecfg.watchdog_scan_interval == 0) {
      ecfg.watchdog_scan_interval = 64;
    }
  }
  driver_ = std::make_unique<sgxsim::Driver>(ecfg, cfg.costs, policy);
  if (injector_ != nullptr) {
    driver_->set_chaos(injector_.get());
  }
  // Observability attach: each sink is independent and null means off.
  if (cfg.event_log != nullptr) {
    cfg.event_log->clear();
    driver_->set_event_log(cfg.event_log);
    if (injector_ != nullptr) {
      injector_->set_event_log(cfg.event_log);
    }
  }
  if (cfg.registry != nullptr) {
    driver_->set_metrics(cfg.registry);
  }
  if (cfg.timeseries != nullptr) {
    cfg.timeseries->clear();
    driver_->set_time_series(cfg.timeseries);
  }
  if (cfg.profiler != nullptr) {
    driver_->set_profiler(cfg.profiler);
  }
}

void RunStack::settle() {
  if (settle_) {
    driver_->drain();
    driver_->check_invariants();
  }
}

void RunStack::collect(sgxsim::DriverStats& driver,
                       inject::InjectStats& inject) const {
  driver = driver_->stats();
  if (injector_ != nullptr) {
    inject = injector_->stats();
  }
  if (registry_ != nullptr) {
    driver.publish(*registry_);
    if (injector_ != nullptr) {
      inject.publish(*registry_);
    }
  }
}

void RunStack::save_injector(snapshot::Writer& w) const {
  if (injector_ != nullptr) {
    w.begin_section("INJC");
    injector_->save(w);
    w.end_section();
  }
}

void RunStack::load_injector(snapshot::Reader& r) {
  if (injector_ != nullptr) {
    r.enter_section("INJC");
    injector_->load(r);
    r.leave_section();
  }
}

template <class Run>
auto run_checkpointed(Run& run, const SimConfig& cfg)
    -> decltype(run.finish()) {
  const CheckpointOptions& ck = cfg.checkpoint;
  const auto ns_since = [](std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  if (!ck.resume_path.empty()) {
    obs::ScopedSpan span(cfg.profiler, obs::Phase::kSnapshotLoad);
    const auto t0 = std::chrono::steady_clock::now();
    if (snapshot::restore_chain_from_files(run, ck.resume_path) &&
        cfg.registry != nullptr) {
      cfg.registry->histogram("snapshot.load_cycles").record(ns_since(t0));
    }
  }
  const bool checkpointing = ck.every_accesses > 0 && !ck.path.empty();
  snapshot::Snapshotter<Run> snap(ck.full_every);
  while (!run.done()) {
    // Up to the next checkpoint, which falls after every step that makes
    // steps() a multiple of every_accesses.
    run.advance(checkpointing
                    ? (run.steps() / ck.every_accesses + 1) * ck.every_accesses
                    : Run::kAllSteps);
    if (checkpointing && run.steps() % ck.every_accesses == 0) {
      obs::ScopedSpan span(cfg.profiler, obs::Phase::kSnapshotSave);
      const auto t0 = std::chrono::steady_clock::now();
      const snapshot::ChainFrame frame = snap.checkpoint(run);
      snapshot::write_chain_file(ck.path, frame.header.seq, frame.bytes);
      if (cfg.registry != nullptr) {
        cfg.registry->histogram("snapshot.save_cycles").record(ns_since(t0));
        cfg.registry->histogram("snapshot.bytes_written")
            .record(frame.bytes.size());
      }
    }
  }
  return run.finish();
}

template auto run_checkpointed(SimulationRun& run, const SimConfig& cfg)
    -> decltype(run.finish());
template auto run_checkpointed(MultiEnclaveRun& run, const SimConfig& cfg)
    -> decltype(run.finish());

}  // namespace sgxpl::core
