// Perf trajectory suite: pinned benchmark cells whose results are
// committed at the repo root as BENCH_<pr>.json, one point per PR, and
// gated by scripts/bench_gate.py in CI.
//
// Two metric domains, split by name prefix:
//   cycles.*  simulated-cycle scalars — deterministic (same code + seed =
//             byte-identical values on any machine). These are the gated
//             regression surface.
//   wall.*    host wall-clock throughput — machine-dependent, reported for
//             trend-watching but never gated.
//
// Noise controls: every wall-clock cell runs kReps repetitions and reports
// the median; every cell pins its own scale and seeds, ignoring SGXPL_SCALE,
// so a committed baseline is comparable across environments. Single-part
// hot loops (resident lookup, predictor update, bitmap check) are timed by
// micro_ops, which reports repetitions and a spread; the cells here need a
// whole simulation.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/sharding.h"
#include "core/simulator.h"
#include "fleet/supervisor.h"
#include "inject/chaos_plan.h"
#include "inject/fleet_chaos.h"
#include "trace/generators.h"
#include "sgxsim/driver.h"
#include "trace/workloads.h"

using namespace sgxpl;

namespace {

/// Cell scale, pinned independently of SGXPL_SCALE: the committed baseline
/// must not depend on the environment the run happened in.
constexpr double kCellScale = 0.05;
constexpr int kReps = 3;

/// Keep the compiler from deleting a measured loop.
volatile std::uint64_t g_sink = 0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// paper_platform with the EPC scaled to the pinned cell scale (same ratio
/// rule as bench_platform, but immune to SGXPL_SCALE), plus the harness
/// profiler when --profile asked for one.
core::SimConfig cell_platform(core::Scheme scheme) {
  core::SimConfig cfg = core::paper_platform(scheme);
  cfg.enclave.epc_pages = static_cast<PageNum>(
      static_cast<double>(sgxsim::kDefaultEpcPages) * kCellScale);
  if (bench::profiler().enabled()) {
    cfg.profiler = &bench::profiler();
  }
  return cfg;
}

/// Cell A: resident warm-up. Fault a small enclave in completely — the
/// page-table-lookup path every scheme shares then serves every access.
/// Cycle domain: the warmup's fault/eviction counts. The resident rate
/// itself is micro_ops' BM_DriverResidentPath, which reports repetitions
/// and a spread.
void cell_resident_fast_path(TextTable& tbl) {
  constexpr PageNum kPages = 4096;
  sgxsim::EnclaveConfig ecfg;
  ecfg.elrange_pages = kPages;
  ecfg.epc_pages = kPages;
  const sgxsim::CostModel costs;
  sgxsim::Driver driver(ecfg, costs);
  if (bench::profiler().enabled()) {
    driver.set_profiler(&bench::profiler());
  }
  Cycles now = 0;
  for (PageNum p = 0; p < kPages; ++p) {
    now = driver.access(p, now).completion + 1;
  }
  bench::add_scalar("cycles.micro.warm_faults",
                    static_cast<double>(driver.stats().faults));
  bench::add_scalar("cycles.micro.warm_evictions",
                    static_cast<double>(driver.stats().evictions));
  tbl.add_row({"resident warm-up", "-",
               std::to_string(driver.stats().faults) + " warm faults"});
}

/// Cell B (fig8): baseline vs DFP-stop on one regular (lbm) and one
/// irregular (deepsjeng) workload at pinned scale/seed. Cycle domain:
/// total cycles, faults, preload accounting. Wall domain: simulation
/// throughput (accesses simulated per second), median of kReps.
void cell_fig8(TextTable& tbl) {
  for (const char* name : {"lbm", "deepsjeng"}) {
    const auto* w = trace::find_workload(name);
    const auto t = w->make(trace::WorkloadParams{.scale = kCellScale,
                                                 .seed = 42});
    const auto base = core::simulate(t, cell_platform(core::Scheme::kBaseline));
    const auto stop = core::simulate(t, cell_platform(core::Scheme::kDfpStop));
    const std::string p = std::string("cycles.fig8.") + name;
    bench::add_scalar(p + ".baseline_total_cycles",
                      static_cast<double>(base.total_cycles));
    bench::add_scalar(p + ".dfpstop_total_cycles",
                      static_cast<double>(stop.total_cycles));
    bench::add_scalar(p + ".dfpstop_faults",
                      static_cast<double>(stop.driver.faults));
    bench::add_scalar(p + ".dfpstop_preloads_used",
                      static_cast<double>(stop.driver.preloads_used));
    std::vector<double> rates;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto m = core::simulate(t, cell_platform(core::Scheme::kDfpStop));
      const double secs = seconds_since(t0);
      g_sink = m.total_cycles;
      rates.push_back(static_cast<double>(t.size()) / secs);
    }
    bench::add_scalar(std::string("wall.fig8.") + name +
                          ".sim_accesses_per_sec",
                      median(rates));
    tbl.add_row({std::string("fig8 ") + name,
                 TextTable::fmt(median(rates) / 1e6, 2) + " M/s",
                 std::to_string(stop.total_cycles) + " cycles (dfp-stop)"});
  }
}

/// Cell C: the hardened paging path under completion-fault chaos — the
/// retry sweep, duplicate suppression, and admission ladder all active.
/// Entirely cycle-domain (chaos schedules are seeded).
void cell_overload(TextTable& tbl) {
  const auto* w = trace::find_workload("mcf");
  const auto t = w->make(trace::WorkloadParams{.scale = 0.04, .seed = 7});
  core::SimConfig cfg = cell_platform(core::Scheme::kDfp);
  cfg.enclave.channel.max_queued = 64;
  cfg.enclave.channel.preload_high_water = 48;
  cfg.enclave.channel.max_retries = 3;
  cfg.enclave.admission.enabled = true;
  std::string err;
  const auto plan =
      inject::ChaosPlan::parse("drop-completion:0.2,dup-completion:0.1", &err);
  SGXPL_CHECK_MSG(plan.has_value(), "chaos spec: " << err);
  cfg.chaos = *plan;
  cfg.chaos.seed = 0x5eed;
  const auto m = core::simulate(t, cfg);
  bench::add_scalar("cycles.overload.total_cycles",
                    static_cast<double>(m.total_cycles));
  bench::add_scalar("cycles.overload.lost_completions",
                    static_cast<double>(m.driver.lost_completions));
  bench::add_scalar("cycles.overload.retries",
                    static_cast<double>(m.driver.retries));
  bench::add_scalar("cycles.overload.permanent_faults",
                    static_cast<double>(m.driver.permanent_faults));
  bench::add_scalar("cycles.overload.preloads_shed",
                    static_cast<double>(m.driver.preloads_shed));
  tbl.add_row({"overload (mcf, chaos)",
               std::to_string(m.total_cycles) + " cycles",
               std::to_string(m.driver.retries) + " retries, " +
                   std::to_string(m.driver.preloads_shed) + " shed"});
}

/// Cell E: elastic EPC rebalance on a skewed multi-tenant co-run — the
/// quota-aware eviction path plus the AIMD rebalance tick, both on the
/// hot path when elasticity is engaged. Entirely cycle-domain (pinned
/// geometry and seeds).
void cell_elastic(TextTable& tbl) {
  const struct {
    const char* workload;
    double weight;
  } tenants[] = {{"mcf", 1.0}, {"microbenchmark", 0.4},
                 {"microbenchmark", 0.3}};
  std::vector<trace::Trace> traces;
  PageNum total_elrange = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const trace::WorkloadParams p{.scale = kCellScale * tenants[i].weight,
                                  .seed = 42 + i};
    traces.push_back(trace::find_workload(tenants[i].workload)->make(p));
    total_elrange += traces.back().elrange_pages();
  }
  core::SimConfig cfg = cell_platform(core::Scheme::kBaseline);
  cfg.enclave.epc_pages = std::max<PageNum>(total_elrange / 2, 64);
  cfg.enclave.elastic.enabled = true;
  std::vector<core::EnclaveApp> apps;
  apps.reserve(traces.size());
  for (const auto& t : traces) {
    apps.push_back(core::EnclaveApp{&t, core::Scheme::kDfpStop, nullptr});
  }
  core::MultiEnclaveSimulator multi(cfg);
  const auto r = multi.run(apps);
  bench::add_scalar("cycles.elastic.makespan",
                    static_cast<double>(r.makespan));
  bench::add_scalar("cycles.elastic.hot_total_cycles",
                    static_cast<double>(r.per_enclave[0].total_cycles));
  bench::add_scalar("cycles.elastic.rebalance_ticks",
                    static_cast<double>(r.elastic.rebalance_ticks));
  bench::add_scalar("cycles.elastic.grows",
                    static_cast<double>(r.elastic.grows));
  bench::add_scalar("cycles.elastic.shrinks",
                    static_cast<double>(r.elastic.shrinks));
  bench::add_scalar("cycles.elastic.quota_evictions",
                    static_cast<double>(r.elastic.quota_evictions));
  tbl.add_row({"elastic rebalance (3 tenants)",
               std::to_string(r.makespan) + " cycles makespan",
               std::to_string(r.elastic.grows) + " grows, " +
                   std::to_string(r.elastic.shrinks) + " shrinks, " +
                   std::to_string(r.elastic.quota_evictions) +
                   " quota evictions"});
}

/// Cell F: a bounded fleet soak — supervised service mode with host-crash
/// chaos, checkpoint cadence, salvage-recovery, and evacuation all on the
/// measured path. Entirely cycle-domain: the supervisor is simulated time
/// end to end, so the incident history and every RPO/RTO figure is
/// deterministic at pinned seeds.
void cell_soak(TextTable& tbl) {
  constexpr std::size_t kHosts = 2;
  constexpr std::size_t kTenantsPerHost = 2;
  static std::vector<trace::Trace> traces;  // outlives the supervisor
  traces.clear();
  for (std::size_t i = 0; i < kHosts * kTenantsPerHost; ++i) {
    trace::Trace t("soak-cell-" + std::to_string(i), 512);
    Rng rng(300 + i);
    const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0.25};
    trace::seq_scan(t, rng, trace::Region{0, 256}, 1, gap);
    trace::random_access(t, rng, trace::Region{256, 200}, 600, 10, 4, gap);
    traces.push_back(std::move(t));
  }
  core::SimConfig cfg;
  cfg.enclave.epc_pages = 96;
  cfg.validate = true;
  cfg.chaos = inject::ChaosPlan::all(0x5eed);

  fleet::SupervisorPolicy policy;
  policy.epoch_steps = 128;
  policy.checkpoint.fixed_every = 512;
  policy.checkpoint.full_every = 8;
  policy.crash_threshold = 3;
  policy.crash_window_epochs = 16;
  policy.migration.warm_rounds = 2;
  policy.migration.round_steps = 32;
  policy.seed = 0x5eed;
  inject::HostCrashPlan chaos;
  chaos.enabled = true;
  chaos.crash_per_epoch = 0.25;
  chaos.torn_frac = 0.4;
  chaos.seed = 0x5eed;

  fleet::FleetSupervisor sup(policy, chaos);
  if (bench::profiler().enabled()) {
    sup.set_profiler(&bench::profiler());
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    std::vector<core::EnclaveApp> apps;
    for (std::size_t t = 0; t < kTenantsPerHost; ++t) {
      apps.push_back({.trace = &traces[h * kTenantsPerHost + t],
                      .scheme = t == 0 ? core::Scheme::kDfpStop
                                       : core::Scheme::kBaseline});
    }
    sup.add_host(cfg, apps);
  }
  const fleet::FleetReport r = sup.run_to_completion(20'000);
  SGXPL_CHECK_MSG(r.ledger.balanced() && r.ledger.running == 0,
                  "soak cell: fleet did not drain conservatively");
  std::uint64_t rpo_sum = 0, rto_sum = 0;
  for (const fleet::CrashIncident& inc : r.crash_incidents) {
    rpo_sum += inc.rpo_cycles;
    rto_sum += inc.rto_cycles;
  }
  bench::add_scalar("cycles.soak.makespan", static_cast<double>(r.makespan));
  bench::add_scalar("cycles.soak.crashes",
                    static_cast<double>(r.ledger.crashes));
  bench::add_scalar("cycles.soak.checkpoints",
                    static_cast<double>(r.ledger.checkpoints));
  bench::add_scalar("cycles.soak.evacuations",
                    static_cast<double>(r.ledger.evacuations_completed));
  bench::add_scalar("cycles.soak.finished",
                    static_cast<double>(r.ledger.finished));
  bench::add_scalar("cycles.soak.rpo_cycles_total",
                    static_cast<double>(rpo_sum));
  bench::add_scalar("cycles.soak.rto_cycles_total",
                    static_cast<double>(rto_sum));
  tbl.add_row({"fleet soak (2 hosts, chaos)",
               std::to_string(r.makespan) + " cycles makespan",
               std::to_string(r.ledger.crashes) + " crashes, " +
                   std::to_string(r.ledger.evacuations_completed) +
                   " evacuations, " + std::to_string(r.ledger.finished) +
                   "/" + std::to_string(r.ledger.tenants_total) +
                   " finished"});
}

/// Cell G: sharded fleet execution — 64 independent tenant lanes under the
/// full driver fault plan, coupled through the barrier contention
/// controller and the shared elastic pool. The cycle domain comes from one
/// K=1 run (every K is bit-identical by the sharding invariance contract,
/// so gating K=1 gates them all); wall.shard.k{1,2,4,8} reports the
/// wall-clock scaling of the same fleet across worker counts.
void cell_shard(TextTable& tbl) {
  constexpr std::size_t kLanes = 64;
  static std::vector<trace::Trace> traces;  // outlives the runs
  traces.clear();
  for (std::size_t i = 0; i < kLanes; ++i) {
    trace::Trace t("shard-cell-" + std::to_string(i), 512);
    Rng rng(700 + i);
    const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0.25};
    trace::seq_scan(t, rng, trace::Region{0, 512}, 1, gap);
    trace::random_access(t, rng, trace::Region{256, 200}, 3'500, 10, 4, gap);
    traces.push_back(std::move(t));
  }
  core::SimConfig cfg;
  cfg.enclave.epc_pages = 96;
  cfg.validate = true;
  cfg.chaos = inject::ChaosPlan::all(0x5eed);
  constexpr core::Scheme kMix[] = {core::Scheme::kBaseline,
                                   core::Scheme::kDfpStop, core::Scheme::kDfp};
  std::vector<core::ShardLane> lanes;
  lanes.reserve(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    lanes.push_back(core::ShardLane{&traces[i], kMix[i % 3], nullptr});
  }
  core::ShardingSpec spec;
  // Lane virtual time is fault-stall dominated (hundreds of millions of
  // cycles over a few thousand accesses), so the epoch must be wide enough
  // that each lane does real work between barriers.
  spec.epoch_cycles = 25'000'000;
  spec.contention_gain_milli = 400;
  spec.pool_pages = 24 * kLanes;  // floor 16 + pressure-weighted spare
  spec.quota_floor = 16;

  const auto run_fleet = [&](std::size_t k) {
    core::ShardingSpec s = spec;
    s.threads = k;
    core::ShardedFleetRun run(cfg, lanes, s);
    auto out = run.run_to_end();
    return std::make_pair(std::move(out), run.epochs_run());
  };

  // Cycle domain (gated): the sequential reference.
  const auto [metrics, epochs] = run_fleet(1);
  std::uint64_t cycles_sum = 0, faults_sum = 0, fired_sum = 0;
  Cycles makespan = 0;
  for (const core::Metrics& m : metrics) {
    cycles_sum += m.total_cycles;
    faults_sum += m.enclave_faults;
    fired_sum += m.inject.total_fired();
    makespan = std::max<Cycles>(makespan, m.total_cycles);
  }
  bench::add_scalar("cycles.shard.epochs", static_cast<double>(epochs));
  bench::add_scalar("cycles.shard.makespan", static_cast<double>(makespan));
  bench::add_scalar("cycles.shard.total_cycles_sum",
                    static_cast<double>(cycles_sum));
  bench::add_scalar("cycles.shard.faults_sum",
                    static_cast<double>(faults_sum));
  bench::add_scalar("cycles.shard.chaos_fired_sum",
                    static_cast<double>(fired_sum));

  // Wall domain (reported only): the same fleet across worker counts.
  double k1_secs = 0.0;
  double k4_speedup = 0.0;
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    std::vector<double> secs;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto out = run_fleet(k);
      g_sink = out.second;
      secs.push_back(seconds_since(t0));
    }
    const double med = median(secs);
    bench::add_scalar("wall.shard.k" + std::to_string(k) + "_secs", med);
    if (k == 1) {
      k1_secs = med;
    } else if (k == 4) {
      k4_speedup = k1_secs / med;
    }
  }
  tbl.add_row({"sharded fleet (64 lanes)",
               TextTable::fmt(k4_speedup, 2) + "x @ K=4",
               std::to_string(makespan) + " cycles makespan, " +
                   std::to_string(epochs) + " epochs"});
}

/// Cell H: the cost of running under chaos. The same DFP-stop run of the
/// microbenchmark (its large ELRANGE is where a per-sweep O(ELRANGE)
/// watchdog hurts most) with the full driver fault plan on and off. Chaos
/// turns the online watchdog on, so the cycle domain pins the chaos run's
/// behaviour and its sweep count; wall.chaos.on_off_ratio is the host-time
/// price of chaos plus watchdog, the median of 3 paired repetitions.
void cell_chaos(TextTable& tbl) {
  const auto t = trace::find_workload("microbenchmark")
                     ->make(trace::WorkloadParams{.scale = kCellScale,
                                                  .seed = 42});
  const core::SimConfig off = cell_platform(core::Scheme::kDfpStop);
  core::SimConfig on = off;
  on.chaos = inject::ChaosPlan::all(0x5eed);
  const auto m = core::simulate(t, on);
  bench::add_scalar("cycles.chaos.total_cycles",
                    static_cast<double>(m.total_cycles));
  bench::add_scalar("cycles.chaos.watchdog_checks",
                    static_cast<double>(m.driver.watchdog_checks));
  bench::add_scalar("cycles.chaos.inject_fired",
                    static_cast<double>(m.inject.total_fired()));
  std::vector<double> ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    g_sink = core::simulate(t, on).total_cycles;
    const double on_secs = seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    g_sink = core::simulate(t, off).total_cycles;
    ratios.push_back(on_secs / seconds_since(t0));
  }
  const double ratio = median(ratios);
  bench::add_scalar("wall.chaos.on_off_ratio", ratio);
  tbl.add_row({"chaos on/off (microbenchmark)",
               TextTable::fmt(ratio, 2) + "x wall",
               std::to_string(m.driver.watchdog_checks) + " sweeps, " +
                   std::to_string(m.inject.total_fired()) + " faults fired"});
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "perf_suite",
              "Perf trajectory cells (pinned scale/seed; cycles.* gated by "
              "scripts/bench_gate.py)");
  bench::add_note("perf_schema", "sgxpl-perf-cells/v1");
  bench::add_note(
      "domains",
      "cycles.* scalars are deterministic and gated; wall.* scalars are "
      "machine-dependent and reported only");

  TextTable tbl({"cell", "rate", "detail"});
  cell_resident_fast_path(tbl);
  cell_fig8(tbl);
  cell_overload(tbl);
  cell_elastic(tbl);
  cell_soak(tbl);
  cell_shard(tbl);
  cell_chaos(tbl);
  bench::print_table("cells", tbl);

  std::cout << "\nCommit the --json output as BENCH_<pr>.json at the repo "
               "root; scripts/bench_gate.py compares cycles.* against the "
               "last committed baseline.\n";
  return bench::finish();
}
