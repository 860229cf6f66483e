// Randomized stress: hammer the full stack with random configurations and
// random traces, checking structural invariants after every run. Seeds are
// fixed, so failures reproduce.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "sgxsim/driver.h"
#include "trace/generators.h"

namespace sgxpl {
namespace {

/// A random trace mixing every generator, sized for fast iteration.
trace::Trace random_trace(Rng& rng, PageNum elrange) {
  trace::Trace t("stress", elrange);
  const trace::GapModel gap{.mean = 500 + rng.bounded(20'000),
                            .jitter_pct = 0.3};
  const trace::Region whole{0, elrange - 1};
  const int segments = 2 + static_cast<int>(rng.bounded(5));
  for (int s = 0; s < segments; ++s) {
    const PageNum lo = rng.bounded(elrange / 2);
    const PageNum pages = 2 + rng.bounded(elrange / 2 - 1);
    const trace::Region r{lo, std::min<PageNum>(pages, elrange - lo - 1)};
    switch (rng.bounded(6)) {
      case 0:
        trace::seq_scan(t, rng, r, static_cast<SiteId>(s), gap);
        break;
      case 1:
        trace::random_access(t, rng, r, 200 + rng.bounded(800),
                             static_cast<SiteId>(100 + s), 4, gap);
        break;
      case 2:
        trace::multi_stream_scan(
            t, rng, r, 1 + rng.bounded(std::min<PageNum>(4, r.pages)),
            static_cast<SiteId>(10 + s), gap, 1 + rng.bounded(4),
            rng.real() * 0.3);
        break;
      case 3:
        trace::strided_sweep(t, rng, r, 1 + rng.bounded(8),
                             static_cast<SiteId>(20 + s), gap);
        break;
      case 4:
        trace::paired_random_access(t, rng, whole, 100 + rng.bounded(500),
                                    rng.real(), static_cast<SiteId>(200 + s),
                                    8, gap);
        break;
      default:
        trace::short_sequential_runs(t, rng, whole, 50 + rng.bounded(200),
                                     2 + rng.bounded(4),
                                     static_cast<SiteId>(300 + s), 6, gap);
        break;
    }
  }
  return t;
}

core::SimConfig random_config(Rng& rng) {
  core::SimConfig cfg;
  cfg.enclave.epc_pages = 4 + rng.bounded(200);
  cfg.enclave.serial_channel = rng.chance(0.8);
  cfg.enclave.demand_policy = static_cast<sgxsim::DemandPolicy>(
      rng.bounded(3));
  cfg.enclave.eviction = static_cast<sgxsim::EvictionKind>(rng.bounded(4));
  cfg.dfp.kind = static_cast<dfp::PredictorKind>(rng.bounded(5));
  cfg.dfp.predictor.stream_list_len = 1 + rng.bounded(40);
  cfg.dfp.predictor.load_length = 1 + rng.bounded(12);
  cfg.dfp.predictor.detect_backward = rng.chance(0.5);
  cfg.dfp.stop_slack = rng.bounded(500);
  cfg.sip_lookahead = static_cast<std::uint32_t>(rng.bounded(20));
  const core::Scheme schemes[] = {core::Scheme::kBaseline, core::Scheme::kDfp,
                                  core::Scheme::kDfpStop, core::Scheme::kSip,
                                  core::Scheme::kHybrid};
  cfg.scheme = schemes[rng.bounded(5)];
  return cfg;
}

TEST(Stress, RandomConfigsAndTracesKeepInvariants) {
  Rng rng(20260707);
  for (int round = 0; round < 60; ++round) {
    const PageNum elrange = 16 + rng.bounded(600);
    const auto t = random_trace(rng, elrange);
    auto cfg = random_config(rng);
    cfg.validate = true;
    sip::InstrumentationPlan plan;
    // Random plan: a handful of the sites the generators use.
    for (int i = 0; i < 8; ++i) {
      plan.add_site(static_cast<SiteId>(rng.bounded(320)));
    }
    const auto m = core::simulate(t, cfg, &plan);
    ASSERT_EQ(m.accesses, t.size()) << "round " << round;
    ASSERT_GE(m.total_cycles, m.compute_cycles) << "round " << round;
    // Retried faults (a page evicted between load and first use faults
    // again inside one access) make the driver's count an upper bound.
    ASSERT_GE(m.driver.faults, m.enclave_faults) << "round " << round;
  }
}

TEST(Stress, DriverSurvivesAdversarialInterleavings) {
  Rng rng(777);
  for (int round = 0; round < 20; ++round) {
    sgxsim::EnclaveConfig cfg;
    cfg.elrange_pages = 48;
    cfg.epc_pages = 2 + rng.bounded(12);
    cfg.demand_policy =
        static_cast<sgxsim::DemandPolicy>(rng.bounded(3));
    cfg.eviction = static_cast<sgxsim::EvictionKind>(rng.bounded(4));
    sgxsim::CostModel costs;
    costs.scan_period = 10'000 + rng.bounded(200'000);
    dfp::DfpParams params;
    params.kind = static_cast<dfp::PredictorKind>(rng.bounded(5));
    params.stop_enabled = rng.chance(0.5);
    dfp::DfpEngine engine(params);
    sgxsim::Driver d(cfg, costs, &engine);

    Cycles now = 0;
    for (int i = 0; i < 1500; ++i) {
      const PageNum page = rng.bounded(48);
      switch (rng.bounded(4)) {
        case 0:
          now = d.access(page, now + rng.bounded(5'000)).completion;
          break;
        case 1:
          now = std::max(now, d.sip_load(page, now + rng.bounded(5'000)));
          break;
        case 2:
          d.sip_prefetch(page, now);
          break;
        default:
          d.advance_to(now + rng.bounded(100'000));
          now += rng.bounded(100'000);
          break;
      }
    }
    d.drain();
    d.check_invariants();
  }
}

TEST(Stress, MultiEnclaveRandomTenants) {
  Rng rng(31337);
  for (int round = 0; round < 10; ++round) {
    const int n = 2 + static_cast<int>(rng.bounded(3));
    std::vector<trace::Trace> traces;
    traces.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      traces.push_back(random_trace(rng, 16 + rng.bounded(200)));
    }
    core::SimConfig cfg;
    cfg.enclave.epc_pages = 8 + rng.bounded(100);
    core::MultiEnclaveSimulator multi(cfg);
    std::vector<core::EnclaveApp> apps;
    for (int i = 0; i < n; ++i) {
      apps.push_back(core::EnclaveApp{
          &traces[static_cast<std::size_t>(i)],
          rng.chance(0.5) ? core::Scheme::kDfpStop : core::Scheme::kBaseline,
          nullptr});
    }
    const auto r = multi.run(apps);
    ASSERT_EQ(r.per_enclave.size(), static_cast<std::size_t>(n));
    std::uint64_t fault_sum = 0;
    for (int i = 0; i < n; ++i) {
      const auto& m = r.per_enclave[static_cast<std::size_t>(i)];
      ASSERT_EQ(m.accesses, traces[static_cast<std::size_t>(i)].size());
      ASSERT_LE(m.total_cycles, r.makespan);
      fault_sum += m.enclave_faults;
    }
    ASSERT_GE(r.driver.faults, fault_sum);
  }
}

}  // namespace
}  // namespace sgxpl
