#include "core/multi_enclave.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/simulator.h"
#include "inject/chaos_plan.h"
#include "obs/profiler.h"
#include "trace/generators.h"

namespace sgxpl::core {
namespace {

trace::Trace seq_trace(PageNum pages, Cycles gap, std::uint64_t seed = 1) {
  trace::Trace t("seq", pages + 8);
  Rng rng(seed);
  trace::seq_scan(t, rng, trace::Region{0, pages}, 1,
                  trace::GapModel{.mean = gap, .jitter_pct = 0});
  return t;
}

SimConfig shared_config(PageNum epc) {
  SimConfig cfg;
  cfg.enclave.epc_pages = epc;
  cfg.dfp.predictor.stream_list_len = 8;
  return cfg;
}

TEST(MultiEnclave, SingleEnclaveMatchesPlainSimulator) {
  const auto t = seq_trace(64, 2'000);
  const auto cfg = shared_config(128);
  const auto solo = simulate(t, cfg);

  MultiEnclaveSimulator multi(cfg);
  const auto result = multi.run({EnclaveApp{&t, Scheme::kBaseline, nullptr}});
  ASSERT_EQ(result.per_enclave.size(), 1u);
  EXPECT_EQ(result.per_enclave[0].total_cycles, solo.total_cycles);
  EXPECT_EQ(result.per_enclave[0].enclave_faults, solo.enclave_faults);
  EXPECT_EQ(result.makespan, solo.total_cycles);
}

TEST(MultiEnclave, CoRunSipChecksGoThroughTheChaosHook) {
  // A co-run SIP tenant's BIT_MAP_CHECK is the driver's sip_bitmap_check,
  // as in a single-enclave run: flip-bit lies reach it, and its profile
  // carries the bitmap-check phase inside the SIP-check span.
  const auto a = seq_trace(128, 2'000, 1);
  const auto b = seq_trace(128, 2'000, 2);
  sip::InstrumentationPlan plan;
  plan.add_site(1);  // seq_trace's one site: every access is checked
  obs::Profiler prof;
  prof.set_enabled(true);
  auto cfg = shared_config(128);
  cfg.chaos = *inject::ChaosPlan::parse("flip-bit:0.5");
  cfg.profiler = &prof;
  MultiEnclaveSimulator multi(cfg);
  const auto r = multi.run({EnclaveApp{&a, Scheme::kSip, &plan},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_GT(r.per_enclave[0].sip_checks, 0u);
  EXPECT_GT(r.driver.bitmap_lies, 0u);
  EXPECT_NE(prof.profile().find({obs::Phase::kStep, obs::Phase::kSipCheck,
                                 obs::Phase::kBitmapCheck}),
            nullptr);
}

TEST(MultiEnclave, RejectsEmptyInput) {
  MultiEnclaveSimulator multi(shared_config(64));
  EXPECT_THROW(multi.run({}), CheckFailure);
}

TEST(MultiEnclave, SipSchemeRequiresPlan) {
  const auto t = seq_trace(32, 1'000);
  MultiEnclaveSimulator multi(shared_config(64));
  EXPECT_THROW(multi.run({EnclaveApp{&t, Scheme::kSip, nullptr}}),
               CheckFailure);
}

TEST(MultiEnclave, RejectsSipLookahead) {
  // A co-run's SIP checks are conservative only; a lookahead it would
  // silently ignore is refused by name.
  const auto t = seq_trace(32, 1'000);
  sip::InstrumentationPlan plan;
  plan.add_site(1);
  auto cfg = shared_config(64);
  cfg.sip_lookahead = 4;
  try {
    MultiEnclaveRun run(cfg, {EnclaveApp{&t, Scheme::kSip, &plan}});
    ADD_FAILURE() << "a co-run accepted sip_lookahead 4";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("sip_lookahead"), std::string::npos)
        << e.what();
  }
  // Without a SIP tenant the field has nothing to act on.
  EXPECT_NO_THROW(MultiEnclaveRun(cfg, {EnclaveApp{&t, Scheme::kDfp}}));
}

TEST(MultiEnclave, ContentionSlowsBothEnclaves) {
  // Two scans whose combined footprint exceeds the shared EPC: each must
  // finish later than it would alone on the full EPC.
  const auto a = seq_trace(96, 2'000, 1);
  const auto b = seq_trace(96, 2'000, 2);
  const auto cfg = shared_config(128);

  const auto solo_a = simulate(a, cfg);
  const auto solo_b = simulate(b, cfg);

  MultiEnclaveSimulator multi(cfg);
  const auto shared = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                                 EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_GE(shared.per_enclave[0].total_cycles, solo_a.total_cycles);
  EXPECT_GE(shared.per_enclave[1].total_cycles, solo_b.total_cycles);
  EXPECT_GT(shared.driver.evictions, 0u);
}

TEST(MultiEnclave, AddressSpacesAreDisjoint) {
  // Same page numbers in both traces must not collide: each enclave's
  // faults equal its solo cold-fault count when the EPC fits both.
  const auto a = seq_trace(32, 1'000, 1);
  const auto b = seq_trace(32, 1'000, 2);
  MultiEnclaveSimulator multi(shared_config(128));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_EQ(r.per_enclave[0].enclave_faults, 32u);
  EXPECT_EQ(r.per_enclave[1].enclave_faults, 32u);
}

TEST(MultiEnclave, PerEnclaveDfpWorksUnderSharing) {
  // Compute-heavy scans: each enclave's preloads overlap its own compute
  // rather than fighting the other's demand loads for the saturated
  // channel (with memory-bound gaps, cross-enclave channel interference
  // can wash out the per-enclave gain — see bench/multi_enclave).
  const auto a = seq_trace(512, 70'000, 1);
  const auto b = seq_trace(512, 70'000, 2);
  const auto cfg = shared_config(256);

  MultiEnclaveSimulator multi(cfg);
  const auto base = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                               EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  const auto dfp = multi.run({EnclaveApp{&a, Scheme::kDfpStop, nullptr},
                              EnclaveApp{&b, Scheme::kDfpStop, nullptr}});
  // Preloading still helps each enclave (the paper's §5.6 claim).
  EXPECT_LT(dfp.per_enclave[0].total_cycles,
            base.per_enclave[0].total_cycles);
  EXPECT_LT(dfp.per_enclave[1].total_cycles,
            base.per_enclave[1].total_cycles);
  EXPECT_GT(dfp.per_enclave[0].dfp_preload_counter, 0u);
  EXPECT_GT(dfp.per_enclave[1].dfp_preload_counter, 0u);
}

TEST(MultiEnclave, MixedSchemesPerEnclave) {
  // One enclave on DFP, one on baseline: only the first preloads.
  const auto a = seq_trace(256, 2'000, 1);
  const auto b = seq_trace(256, 2'000, 2);
  MultiEnclaveSimulator multi(shared_config(256));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kDfpStop, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_GT(r.per_enclave[0].dfp_preload_counter, 0u);
  EXPECT_EQ(r.per_enclave[1].dfp_preload_counter, 0u);
}

TEST(MultiEnclave, MakespanIsMaxOfFinishTimes) {
  const auto a = seq_trace(16, 1'000, 1);
  const auto b = seq_trace(64, 1'000, 2);
  MultiEnclaveSimulator multi(shared_config(128));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_EQ(r.makespan, std::max(r.per_enclave[0].total_cycles,
                                 r.per_enclave[1].total_cycles));
  EXPECT_LT(r.per_enclave[0].total_cycles, r.per_enclave[1].total_cycles);
}

TEST(MultiEnclave, ThreeEnclavesShareChannel) {
  const auto a = seq_trace(128, 1'000, 1);
  const auto b = seq_trace(128, 1'000, 2);
  const auto c = seq_trace(128, 1'000, 3);
  MultiEnclaveSimulator multi(shared_config(512));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr},
                            EnclaveApp{&c, Scheme::kBaseline, nullptr}});
  ASSERT_EQ(r.per_enclave.size(), 3u);
  // All share one serialized channel: 384 cold faults serialize on it, so
  // every enclave finishes later than its channel-free lower bound.
  for (const auto& m : r.per_enclave) {
    EXPECT_EQ(m.enclave_faults, 128u);
  }
}

}  // namespace
}  // namespace sgxpl::core
