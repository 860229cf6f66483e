// One oracle for the one replay step (core::Replay). A single run, a
// one-tenant co-run and a one-thread run_threads replay a trace through the
// same step, so on random seeded traces they must agree on every Metrics
// field, on every DriverStats field and on the DFP engine's counters, shed
// preloads included. Every scheme runs clean and hardened (a bounded
// channel, retries and admission, so the driver sheds preloads); the
// threaded arm also runs under every chaos class. The co-run stays out of
// the chaos cases: its preload router draws predictor wipes that a single
// run without DFP never draws, and does not pass them on to its engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/multi_thread.h"
#include "core/simulator.h"
#include "inject/chaos_plan.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "snapshot/snapshotter.h"
#include "trace/generators.h"

namespace sgxpl {
namespace {

using core::Metrics;
using core::Scheme;
using core::SimConfig;

/// Scans DFP follows, hot-set reuse with cold misses that evict, and Zipf
/// reuse, over an ELRANGE far larger than the EPC; sites 10..13 recur in
/// every region.
trace::Trace random_trace(std::uint64_t seed) {
  trace::Trace t("replay-" + std::to_string(seed), 4'096);
  Rng rng(seed);
  const trace::GapModel gap{.mean = 1'200, .jitter_pct = 1.0};
  trace::seq_scan(t, rng, trace::Region{2'000, 400}, 10, gap, 1, 0.02);
  trace::hot_cold_mixed_sites(t, rng, trace::Region{0, 48},
                              trace::Region{200, 1'500}, 1'500, 0.8, 10, 6,
                              gap);
  trace::seq_scan(t, rng, trace::Region{3'000, 500}, 12, gap, 1, 0.05);
  trace::zipf_access(t, rng, trace::Region{0, 700}, 1'500, 1.1, 9, 6, gap);
  return t;
}

sip::InstrumentationPlan plan_for_test() {
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 14; ++s) {
    plan.add_site(s);
  }
  return plan;
}

enum class Variant { kClean, kHardened, kChaosAll };

struct Case {
  const char* name;
  Scheme scheme;
  Variant variant;
};

constexpr Case kCases[] = {
    {"baseline_clean", Scheme::kBaseline, Variant::kClean},
    {"baseline_hardened", Scheme::kBaseline, Variant::kHardened},
    {"baseline_chaos", Scheme::kBaseline, Variant::kChaosAll},
    {"dfp_clean", Scheme::kDfp, Variant::kClean},
    {"dfp_hardened", Scheme::kDfp, Variant::kHardened},
    {"dfp_chaos", Scheme::kDfp, Variant::kChaosAll},
    {"dfp_stop_clean", Scheme::kDfpStop, Variant::kClean},
    {"dfp_stop_hardened", Scheme::kDfpStop, Variant::kHardened},
    {"dfp_stop_chaos", Scheme::kDfpStop, Variant::kChaosAll},
    {"sip_clean", Scheme::kSip, Variant::kClean},
    {"sip_hardened", Scheme::kSip, Variant::kHardened},
    {"hybrid_clean", Scheme::kHybrid, Variant::kClean},
    {"hybrid_hardened", Scheme::kHybrid, Variant::kHardened},
};

SimConfig config_for(const Case& c, std::uint64_t seed,
                     obs::MetricsRegistry* registry) {
  SimConfig cfg;
  cfg.scheme = c.scheme;
  cfg.enclave.epc_pages = 96;
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 4;
  cfg.validate = true;
  cfg.registry = registry;
  switch (c.variant) {
    case Variant::kClean:
      break;
    case Variant::kHardened:
      cfg.enclave.channel.max_queued = 8;
      cfg.enclave.channel.max_retries = 3;
      cfg.enclave.admission.enabled = true;
      break;
    case Variant::kChaosAll:
      cfg.chaos = inject::ChaosPlan::all(seed);
      break;
  }
  return cfg;
}

/// The DFP engine's counters as its publish() writes them at finish.
std::map<std::string, std::uint64_t> engine_counters(
    obs::MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  for (const char* name :
       {"dfp.preload_counter", "dfp.acc_preload_counter", "dfp.aborted",
        "dfp.shed", "dfp.predictor.hits", "dfp.predictor.misses"}) {
    out[name] = reg.counter(name).value();
  }
  return out;
}

void expect_same_metrics(const Metrics& want, const Metrics& got,
                         const std::string& ctx) {
  const auto d = snapshot::diff_metrics(want, got);
  EXPECT_TRUE(d.identical) << ctx << ": " << d.first_divergence;
}

class OneStep : public ::testing::TestWithParam<Case> {};

TEST_P(OneStep, SingleCoRunAndThreadedRunAgree) {
  const Case& c = GetParam();
  const sip::InstrumentationPlan plan = plan_for_test();
  const bool dfp = core::uses_dfp(c.scheme);
  const bool threaded_arm = !core::uses_sip(c.scheme);
  const bool co_run_arm = c.variant != Variant::kChaosAll;
  std::uint64_t shed = 0;
  for (const std::uint64_t seed : {3u, 17u, 41u}) {
    const std::string ctx = std::string(c.name) + " seed " +
                            std::to_string(seed);
    const trace::Trace t = random_trace(seed);

    obs::MetricsRegistry single_reg;
    const Metrics want =
        core::simulate(t, config_for(c, seed, &single_reg), &plan);
    const auto want_engine = engine_counters(single_reg);
    shed += want_engine.at("dfp.shed");

    if (co_run_arm) {
      obs::MetricsRegistry reg;
      core::MultiEnclaveSimulator multi(config_for(c, seed, &reg));
      const core::MultiEnclaveResult r =
          multi.run({core::EnclaveApp{&t, c.scheme, &plan}});
      ASSERT_EQ(r.per_enclave.size(), 1u);
      Metrics got = r.per_enclave[0];
      got.driver = r.driver;
      got.inject = r.inject;
      expect_same_metrics(want, got, ctx + " co-run");
      EXPECT_EQ(r.makespan, want.total_cycles) << ctx << " co-run";
      EXPECT_EQ(engine_counters(reg), want_engine) << ctx << " co-run";
    }

    if (threaded_arm) {
      obs::MetricsRegistry reg;
      const core::ThreadedRunResult r =
          core::run_threads(config_for(c, seed, &reg), {&t});
      ASSERT_EQ(r.per_thread.size(), 1u);
      // run_threads reports its one engine's outcome as dfp_stopped and
      // through the registry, not per thread: take the per-thread DFP
      // fields from the single run and compare the engine's counters.
      Metrics got = r.per_thread[0];
      got.driver = r.driver;
      got.inject = r.inject;
      got.dfp_stopped = want.dfp_stopped;
      got.dfp_stopped_at = want.dfp_stopped_at;
      got.dfp_preload_counter = want.dfp_preload_counter;
      got.dfp_acc_preload_counter = want.dfp_acc_preload_counter;
      got.dfp_predictor_hits = want.dfp_predictor_hits;
      got.dfp_predictor_misses = want.dfp_predictor_misses;
      expect_same_metrics(want, got, ctx + " threaded");
      EXPECT_EQ(r.makespan, want.total_cycles) << ctx << " threaded";
      EXPECT_EQ(r.dfp_stopped, want.dfp_stopped) << ctx << " threaded";
      EXPECT_EQ(engine_counters(reg), want_engine) << ctx << " threaded";
    }
  }
  if (dfp && c.variant == Variant::kHardened) {
    // The bounded channel and admission really shed predictions, so the
    // shed counters were compared on values that are not all 0.
    EXPECT_GT(shed, 0u) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(SchemesAndVariants, OneStep,
                         ::testing::ValuesIn(kCases),
                         [](const auto& tp) { return tp.param.name; });

/// kStep spans `prof` has closed.
std::uint64_t closed_steps(const obs::Profiler& prof) {
  const obs::PhaseProfile profile = prof.profile();
  const obs::PhaseProfile::Node* step = profile.find({obs::Phase::kStep});
  return step != nullptr ? step->count : 0;
}

TEST(OneStep, ProfiledMultiStreamRunsCloseOneStepSpanPerAccess) {
  const trace::Trace a = random_trace(5);
  const trace::Trace b = random_trace(6);
  const sip::InstrumentationPlan plan = plan_for_test();
  {
    obs::Profiler prof;
    prof.set_enabled(true);
    SimConfig cfg = config_for(kCases[0], 5, nullptr);
    cfg.profiler = &prof;
    core::MultiEnclaveSimulator multi(cfg);
    multi.run({core::EnclaveApp{&a, Scheme::kHybrid, &plan},
               core::EnclaveApp{&b, Scheme::kDfpStop, nullptr}});
    EXPECT_EQ(closed_steps(prof), a.size() + b.size()) << "co-run";
  }
  {
    obs::Profiler prof;
    prof.set_enabled(true);
    SimConfig cfg = config_for(kCases[3], 5, nullptr);
    cfg.profiler = &prof;
    core::run_threads(cfg, {&a, &b});
    EXPECT_EQ(closed_steps(prof), a.size() + b.size()) << "threaded";
  }
}

}  // namespace
}  // namespace sgxpl
