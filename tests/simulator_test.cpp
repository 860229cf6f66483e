#include "core/simulator.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "trace/generators.h"

namespace sgxpl::core {
namespace {

/// A trace of `n` page-sequential accesses with fixed gap.
trace::Trace seq_trace(PageNum pages, Cycles gap, PageNum elrange = 0) {
  trace::Trace t("seq", elrange == 0 ? pages + 8 : elrange);
  Rng rng(1);
  trace::seq_scan(t, rng, trace::Region{0, pages}, 1,
                  trace::GapModel{.mean = gap, .jitter_pct = 0});
  return t;
}

trace::Trace random_trace(PageNum region, std::uint64_t count, Cycles gap) {
  trace::Trace t("rand", region + 8);
  Rng rng(2);
  trace::random_access(t, rng, trace::Region{0, region}, count, 1, 4,
                       trace::GapModel{.mean = gap, .jitter_pct = 0});
  return t;
}

SimConfig test_config(Scheme scheme, PageNum epc = 64) {
  SimConfig cfg;
  cfg.scheme = scheme;
  cfg.enclave.epc_pages = epc;
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 4;
  return cfg;
}

TEST(Simulator, BaselineColdFaultsEveryPageOnce) {
  const auto t = seq_trace(32, 1'000);
  const auto m = simulate(t, test_config(Scheme::kBaseline, /*epc=*/64));
  EXPECT_EQ(m.accesses, 32u);
  EXPECT_EQ(m.enclave_faults, 32u);  // every page cold-faults once
  EXPECT_EQ(m.driver.evictions, 0u);
  // Exact cost: 32 * (gap + aex + load + eresume).
  const auto& c = SimConfig{}.costs;
  EXPECT_EQ(m.total_cycles, 32u * (1'000 + c.aex + c.epc_load + c.eresume));
}

TEST(Simulator, BaselineCapacityFaultsWhenFootprintExceedsEpc) {
  // Two passes over 64 pages with a 32-page EPC: every access faults.
  trace::Trace t("2pass", 128);
  Rng rng(1);
  const trace::GapModel gap{.mean = 500, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 64}, 1, gap);
  trace::seq_scan(t, rng, trace::Region{0, 64}, 1, gap);
  const auto m = simulate(t, test_config(Scheme::kBaseline, 32));
  EXPECT_EQ(m.enclave_faults, 128u);
  EXPECT_GT(m.driver.evictions, 0u);
}

TEST(Simulator, SmallWorkingSetHitsAfterWarmup) {
  trace::Trace t("warm", 64);
  Rng rng(1);
  const trace::GapModel gap{.mean = 500, .jitter_pct = 0};
  for (int pass = 0; pass < 5; ++pass) {
    trace::seq_scan(t, rng, trace::Region{0, 16}, 1, gap);
  }
  const auto m = simulate(t, test_config(Scheme::kBaseline, 64));
  EXPECT_EQ(m.enclave_faults, 16u);  // only the cold pass faults
}

TEST(Simulator, NativeFaultsOncePerDistinctPage) {
  const auto t = seq_trace(32, 1'000);
  const auto m = simulate(t, test_config(Scheme::kNative));
  EXPECT_EQ(m.enclave_faults, 32u);
  const auto& c = SimConfig{}.costs;
  EXPECT_EQ(m.total_cycles, 32u * 1'000 + 32u * c.native_fault);
}

TEST(Simulator, EnclaveVsNativeMotivationGap) {
  // The motivation study's shape: a sequential scan larger than the EPC is
  // an order of magnitude slower inside the enclave.
  const auto t = seq_trace(256, 2'000);
  const auto native = simulate(t, test_config(Scheme::kNative));
  const auto enclave = simulate(t, test_config(Scheme::kBaseline, 128));
  EXPECT_GT(enclave.total_cycles, 10 * native.total_cycles);
}

TEST(Simulator, DfpSpeedsUpSequentialScan) {
  const auto t = seq_trace(512, 2'000);
  const auto base = simulate(t, test_config(Scheme::kBaseline, 128));
  const auto dfp = simulate(t, test_config(Scheme::kDfp, 128));
  EXPECT_LT(dfp.total_cycles, base.total_cycles);
  EXPECT_GT(dfp.dfp_preload_counter, 0u);
  // Most preloads are consumed by the scan.
  EXPECT_GT(dfp.driver.preloads_used, dfp.dfp_preload_counter / 2);
}

TEST(Simulator, DfpNeutralOnPureRandom) {
  // Uniform random pages over a wide region: streams never form, so DFP
  // predicts (and costs) nearly nothing.
  const auto t = random_trace(100'000, 2'000, 2'000);
  const auto base = simulate(t, test_config(Scheme::kBaseline, 64));
  const auto dfp = simulate(t, test_config(Scheme::kDfp, 64));
  EXPECT_EQ(dfp.dfp_predictor_hits, 0u);
  EXPECT_EQ(dfp.total_cycles, base.total_cycles);
}

TEST(Simulator, DfpStopCutsMispredictionOverhead) {
  // Short runs bait the stream detector into wasted preloads.
  trace::Trace t("bait", 100'008);
  Rng rng(3);
  trace::short_sequential_runs(t, rng, trace::Region{0, 100'000},
                               /*runs=*/3'000, /*max_run=*/3, 1, 4,
                               trace::GapModel{.mean = 2'000, .jitter_pct = 0});
  auto cfg = test_config(Scheme::kDfp, 64);
  cfg.dfp.stop_slack = 50;
  const auto base = simulate(t, test_config(Scheme::kBaseline, 64));
  const auto dfp = simulate(t, cfg);
  cfg.scheme = Scheme::kDfpStop;
  const auto stop = simulate(t, cfg);
  EXPECT_GT(dfp.total_cycles, base.total_cycles);  // misprediction overhead
  EXPECT_TRUE(stop.dfp_stopped);
  EXPECT_LT(stop.total_cycles, dfp.total_cycles);  // valve recovers most
}

TEST(Simulator, SipAvoidsAexOnInstrumentedFaults) {
  const auto t = random_trace(100'000, 1'000, 2'000);
  sip::InstrumentationPlan plan;
  for (SiteId s = 1; s <= 4; ++s) {
    plan.add_site(s);
  }
  const auto base = simulate(t, test_config(Scheme::kBaseline, 64));
  const auto sip = simulate(t, test_config(Scheme::kSip, 64), &plan);
  EXPECT_LT(sip.total_cycles, base.total_cycles);
  EXPECT_EQ(sip.sip_checks, 1'000u);
  // Nearly every access misses the tiny EPC: notifications replace faults.
  EXPECT_GT(sip.sip_requests, 900u);
  EXPECT_LT(sip.enclave_faults, base.enclave_faults / 10);
}

TEST(Simulator, SipExactSavingPerConvertedFault) {
  // One instrumented irregular access: baseline pays AEX+load+ERESUME,
  // SIP pays check+load+notification.
  trace::Trace t("one", 64);
  t.append({.page = 5, .site = 1, .gap = 1'000});
  sip::InstrumentationPlan plan;
  plan.add_site(1);
  const auto cfg = test_config(Scheme::kSip);
  const auto base = simulate(t, test_config(Scheme::kBaseline));
  const auto sip = simulate(t, cfg, &plan);
  const auto& c = cfg.costs;
  EXPECT_EQ(base.total_cycles - sip.total_cycles,
            c.aex + c.eresume - c.bitmap_check - c.sip_notification);
}

TEST(Simulator, SipChecksCostOnResidentPages) {
  // Instrumented site hammering one resident page: SIP pays one bitmap
  // check per access and gains nothing.
  trace::Trace t("hot", 64);
  for (int i = 0; i < 100; ++i) {
    t.append({.page = 3, .site = 1, .gap = 500});
  }
  sip::InstrumentationPlan plan;
  plan.add_site(1);
  const auto cfg = test_config(Scheme::kSip);
  const auto base = simulate(t, test_config(Scheme::kBaseline));
  const auto sip = simulate(t, cfg, &plan);
  EXPECT_EQ(sip.sip_requests, 1u);  // only the cold first access
  EXPECT_GT(sip.total_cycles, base.total_cycles);
  EXPECT_EQ(sip.sip_checks, 100u);
}

TEST(Simulator, SipWithoutPlanThrows) {
  const auto t = seq_trace(8, 100);
  EnclaveSimulator sim(test_config(Scheme::kSip));
  EXPECT_THROW(sim.run(t, nullptr), CheckFailure);
}

TEST(Simulator, EmptyPlanBehavesLikeBaseline) {
  const auto t = seq_trace(64, 1'000);
  sip::InstrumentationPlan empty;
  const auto base = simulate(t, test_config(Scheme::kBaseline, 32));
  const auto sip = simulate(t, test_config(Scheme::kSip, 32), &empty);
  EXPECT_EQ(sip.total_cycles, base.total_cycles);
  EXPECT_EQ(sip.sip_checks, 0u);
}

TEST(Simulator, HybridCombinesBothSchemes) {
  // Sequential phase (DFP's half) followed by irregular instrumented phase
  // (SIP's half): the hybrid beats the baseline on both halves.
  trace::Trace t("mixed", 200'000);
  Rng rng(4);
  const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 512}, 1, gap);
  trace::random_access(t, rng, trace::Region{1'000, 150'000}, 1'000, 10, 4,
                       gap);
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 14; ++s) {
    plan.add_site(s);
  }
  const auto base = simulate(t, test_config(Scheme::kBaseline, 128));
  const auto dfp = simulate(t, test_config(Scheme::kDfpStop, 128));
  const auto sip = simulate(t, test_config(Scheme::kSip, 128), &plan);
  const auto hybrid = simulate(t, test_config(Scheme::kHybrid, 128), &plan);
  EXPECT_LT(hybrid.total_cycles, base.total_cycles);
  EXPECT_LT(hybrid.total_cycles, dfp.total_cycles);
  EXPECT_LT(hybrid.total_cycles, sip.total_cycles);
}

TEST(Simulator, EmptyTraceThrows) {
  trace::Trace t("empty", 10);
  EnclaveSimulator sim(test_config(Scheme::kBaseline));
  EXPECT_THROW(sim.run(t), CheckFailure);
}

TEST(Simulator, TraceWithoutElrangeThrows) {
  trace::Trace t;
  t.append({.page = 0, .site = 0, .gap = 1});
  EnclaveSimulator sim(test_config(Scheme::kBaseline));
  EXPECT_THROW(sim.run(t), CheckFailure);
}

TEST(Metrics, ImprovementArithmetic) {
  Metrics base;
  base.total_cycles = 1'000;
  Metrics fast;
  fast.total_cycles = 886;
  EXPECT_NEAR(fast.improvement_over(base), 0.114, 1e-9);
  EXPECT_NEAR(fast.normalized_to(base), 0.886, 1e-9);
  Metrics zero;
  EXPECT_DOUBLE_EQ(fast.improvement_over(zero), 0.0);
}

TEST(Scheme, Names) {
  EXPECT_STREQ(to_string(Scheme::kDfp), "DFP");
  EXPECT_STREQ(to_string(Scheme::kDfpStop), "DFP-stop");
  EXPECT_STREQ(to_string(Scheme::kHybrid), "SIP+DFP");
}

TEST(Scheme, ConfigPredicates) {
  SimConfig cfg;
  cfg.scheme = Scheme::kHybrid;
  EXPECT_TRUE(cfg.uses_dfp());
  EXPECT_TRUE(cfg.uses_sip());
  EXPECT_TRUE(cfg.dfp_stop_forced());
  cfg.scheme = Scheme::kDfp;
  EXPECT_TRUE(cfg.uses_dfp());
  EXPECT_FALSE(cfg.dfp_stop_forced());
  EXPECT_FALSE(cfg.uses_sip());
  cfg.scheme = Scheme::kBaseline;
  EXPECT_FALSE(cfg.uses_dfp());
}

}  // namespace
}  // namespace sgxpl::core
