#include "core/multi_thread.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/simulator.h"
#include "inject/chaos_plan.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "trace/generators.h"

namespace sgxpl::core {
namespace {

trace::Trace seq(PageNum lo, PageNum pages, PageNum elrange, Cycles gap,
                 std::uint64_t seed) {
  trace::Trace t("thr", elrange);
  Rng rng(seed);
  trace::seq_scan(t, rng, trace::Region{lo, pages}, 1,
                  trace::GapModel{.mean = gap, .jitter_pct = 0});
  return t;
}

SimConfig cfg(Scheme scheme, PageNum epc = 64) {
  SimConfig c;
  c.scheme = scheme;
  c.enclave.epc_pages = epc;
  c.dfp.predictor.stream_list_len = 8;
  return c;
}

TEST(RunThreads, SingleThreadMatchesPlainSimulator) {
  const auto t = seq(0, 48, 64, 2'000, 1);
  const auto solo = simulate(t, cfg(Scheme::kBaseline));
  const auto threaded = run_threads(cfg(Scheme::kBaseline), {&t});
  ASSERT_EQ(threaded.per_thread.size(), 1u);
  EXPECT_EQ(threaded.per_thread[0].total_cycles, solo.total_cycles);
  EXPECT_EQ(threaded.per_thread[0].enclave_faults, solo.enclave_faults);
}

TEST(RunThreads, RejectsEmptyAndSip) {
  EXPECT_THROW(run_threads(cfg(Scheme::kBaseline), {}), CheckFailure);
  const auto t = seq(0, 8, 16, 100, 1);
  EXPECT_THROW(run_threads(cfg(Scheme::kSip), {&t}), CheckFailure);
}

TEST(RunThreads, ThreadsShareTheElrange) {
  // Two threads touching the SAME pages: the second thread's accesses hit
  // pages the first already faulted in (unlike multi-enclave isolation).
  const auto a = seq(0, 32, 64, 1'000, 1);
  const auto b = seq(0, 32, 64, 50'000, 2);  // slower thread, same pages
  const auto r = run_threads(cfg(Scheme::kBaseline, 64), {&a, &b});
  // Thread a (fast) takes most cold faults; thread b mostly hits.
  EXPECT_LT(r.per_thread[1].enclave_faults, 32u);
  EXPECT_EQ(r.driver.faults,
            r.per_thread[0].enclave_faults + r.per_thread[1].enclave_faults);
}

TEST(RunThreads, PerThreadStreamsSurviveNoisyNeighbour) {
  // One compute-heavy scan + one fault-happy random prober, with a stream
  // list too short to survive pooled churn.
  // With a single-entry stream list, one prober fault landing between a
  // stream's seed and its extension is enough to evict the tail — so the
  // pooled history loses most of the scan's streams while per-thread
  // keying is immune.
  const PageNum elrange = 4'096;
  const auto scan = seq(0, 512, elrange, 60'000, 1);
  trace::Trace noise("noise", elrange);
  Rng rng(9);
  trace::random_access(noise, rng, trace::Region{512, 3'500}, 2'048, 9, 2,
                       trace::GapModel{.mean = 2'000, .jitter_pct = 0});

  auto c = cfg(Scheme::kDfpStop, 256);
  c.dfp.predictor.stream_list_len = 1;

  const auto base = run_threads(cfg(Scheme::kBaseline, 256), {&scan, &noise});
  const auto per_thread = run_threads(c, {&scan, &noise}, true);
  const auto pooled = run_threads(c, {&scan, &noise}, false);

  const auto scan_gain = [&](const ThreadedRunResult& r) {
    return static_cast<double>(base.per_thread[0].total_cycles) -
           static_cast<double>(r.per_thread[0].total_cycles);
  };
  // Per-thread keying preloads for the scan despite the noisy neighbour;
  // pooled keying loses the stream to churn.
  EXPECT_GT(scan_gain(per_thread), scan_gain(pooled));
  EXPECT_GT(per_thread.driver.preloads_used, pooled.driver.preloads_used);
}

TEST(RunThreads, ChaosAndSinksReachTheThreadedStack) {
  // run_threads builds its driver through the same stack as every other
  // simulation: the chaos plan arms the injector and the online watchdog,
  // and the registry and profiler see the threaded run.
  const auto a = seq(0, 48, 64, 2'000, 1);
  const auto b = seq(16, 48, 64, 2'000, 2);
  obs::MetricsRegistry reg;
  obs::Profiler prof;
  prof.set_enabled(true);
  auto c = cfg(Scheme::kDfpStop, 32);
  c.chaos = inject::ChaosPlan::all(7);
  c.registry = &reg;
  c.profiler = &prof;
  const auto r = run_threads(c, {&a, &b});
  EXPECT_GT(r.driver.watchdog_checks, 0u);
  EXPECT_GT(r.inject.total_fired(), 0u);
  EXPECT_EQ(reg.counter("inject.fired").value(), r.inject.total_fired());
  EXPECT_FALSE(prof.profile().empty());
}

TEST(RunThreads, MakespanIsMaxThreadTime) {
  const auto a = seq(0, 16, 64, 1'000, 1);
  const auto b = seq(16, 48, 64, 1'000, 2);
  const auto r = run_threads(cfg(Scheme::kBaseline), {&a, &b});
  EXPECT_EQ(r.makespan, std::max(r.per_thread[0].total_cycles,
                                 r.per_thread[1].total_cycles));
}

}  // namespace
}  // namespace sgxpl::core
