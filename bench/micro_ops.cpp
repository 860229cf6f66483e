// google-benchmark micro-benchmarks of the building blocks on the hot
// paths: Algorithm 1's predictor update, the presence-bitmap check
// (BIT_MAP_CHECK's cost on our side of the simulation), the two set-up
// phases (SIP profiling and trace generation), the driver's resident and
// fault paths, the run loop over resident accesses, and end-to-end
// simulator throughput. Pass --benchmark_repetitions=N for a
// median and spread per case.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "core/simulator.h"
#include "dfp/stream_predictor.h"
#include "sgxsim/bitmap.h"
#include "sgxsim/driver.h"
#include "sip/profiler.h"
#include "sip/site_classifier.h"
#include "trace/workloads.h"

namespace sgxpl {
namespace {

void BM_PredictorSequentialFaults(benchmark::State& state) {
  dfp::StreamPredictor sp(dfp::StreamPredictorParams{
      .stream_list_len = static_cast<std::size_t>(state.range(0))});
  PageNum page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.on_fault(ProcessId{0}, page++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorSequentialFaults)->Arg(8)->Arg(30)->Arg(128);

void BM_PredictorRandomFaults(benchmark::State& state) {
  dfp::StreamPredictor sp(dfp::StreamPredictorParams{
      .stream_list_len = static_cast<std::size_t>(state.range(0))});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.on_fault(ProcessId{0}, rng.bounded(1 << 20)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorRandomFaults)->Arg(8)->Arg(30)->Arg(128);

void BM_BitmapCheck(benchmark::State& state) {
  sgxsim::PresenceBitmap bm(1 << 18);
  Rng rng(2);
  for (PageNum p = 0; p < (1 << 18); p += 3) {
    bm.set(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.test(rng.bounded(1 << 18)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapCheck);

void BM_SiteClassifier(benchmark::State& state) {
  sip::SiteClassifier classifier;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classifier.classify(ProcessId{0}, rng.bounded(1 << 16)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SiteClassifier);

void BM_SipProfileTrace(benchmark::State& state) {
  // SIP's profiling pass (§4.4) over mcf's train input at scale 0.105, the
  // train scale of simbench's irregular_hybrid: every access is classified
  // and counted against its site.
  const trace::Trace t =
      trace::find_workload("mcf")->make(trace::train_params(0.105));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sip::profile_trace(t));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_SipProfileTrace)->Unit(benchmark::kMillisecond);

void BM_WorkloadMake(benchmark::State& state) {
  // Trace generation: mcf's ref input at scale 0.3.
  const trace::Workload* w = trace::find_workload("mcf");
  std::int64_t accesses = 0;
  for (auto _ : state) {
    const trace::Trace t = w->make(trace::ref_params(0.3));
    accesses = static_cast<std::int64_t>(t.size());
    benchmark::DoNotOptimize(t.accesses().data());
  }
  state.SetItemsProcessed(state.iterations() * accesses);
}
BENCHMARK(BM_WorkloadMake)->Unit(benchmark::kMillisecond);

void BM_DriverFaultPath(benchmark::State& state) {
  sgxsim::EnclaveConfig cfg;
  cfg.elrange_pages = 1 << 20;
  cfg.epc_pages = 1 << 12;
  sgxsim::CostModel costs;
  sgxsim::Driver driver(cfg, costs);
  Rng rng(4);
  Cycles now = 0;
  for (auto _ : state) {
    now = driver.access(rng.bounded(1 << 20), now).completion + 1'000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DriverFaultPath);

void BM_DriverResidentPath(benchmark::State& state) {
  // A small enclave faulted in completely: every timed access is a
  // resident hit, the page-table-lookup path every scheme shares.
  constexpr PageNum kPages = 4096;
  sgxsim::EnclaveConfig cfg;
  cfg.elrange_pages = kPages;
  cfg.epc_pages = kPages;
  sgxsim::CostModel costs;
  sgxsim::Driver driver(cfg, costs);
  Cycles now = 0;
  for (PageNum p = 0; p < kPages; ++p) {
    now = driver.access(p, now).completion + 1;
  }
  PageNum page = 0;
  for (auto _ : state) {
    now = driver.access(page, now).completion + 1;
    benchmark::DoNotOptimize(now);
    page = page + 1 == kPages ? 0 : page + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DriverResidentPath);

void BM_SimulationRunResidentLoop(benchmark::State& state) {
  // The same all-resident enclave replayed as a trace: a first lap faults
  // every page in (untimed), then run_to_end() replays 63 resident laps with
  // a 100-cycle gap, so a scan tick falls every 5,000 accesses. Reports ns
  // per access of the run loop (SimulationRun, not the driver alone).
  constexpr PageNum kPages = 4096;
  constexpr std::uint64_t kLaps = 64;
  trace::Trace t("resident-loop", kPages);
  t.reserve(kPages * kLaps);
  for (std::uint64_t lap = 0; lap < kLaps; ++lap) {
    for (PageNum p = 0; p < kPages; ++p) {
      t.append({.page = p, .site = 0, .gap = 100});
    }
  }
  core::SimConfig cfg = core::paper_platform(core::Scheme::kBaseline);
  cfg.enclave.epc_pages = kPages;
  for (auto _ : state) {
    state.PauseTiming();
    auto run = std::make_unique<core::SimulationRun>(cfg, t);
    while (run->cursor() < kPages) {
      run->step();
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(run->run_to_end());
    state.PauseTiming();
    run.reset();
    state.ResumeTiming();
  }
  constexpr auto kTimed = static_cast<std::int64_t>(kPages * (kLaps - 1));
  state.SetItemsProcessed(state.iterations() * kTimed);
  state.counters["s_per_access"] = benchmark::Counter(
      static_cast<double>(kTimed),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulationRunResidentLoop);

void BM_SimulatorThroughput(benchmark::State& state) {
  const auto* w = trace::find_workload("deepsjeng");
  const auto t = w->make(trace::WorkloadParams{.scale = 0.05, .seed = 9});
  auto cfg = core::paper_platform(core::Scheme::kHybrid);
  cfg.enclave.epc_pages = 1'200;
  sip::InstrumentationPlan plan;
  for (SiteId s = 100; s < 135; ++s) {
    plan.add_site(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simulate(t, cfg, &plan));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_SimulatorThroughput);

}  // namespace
}  // namespace sgxpl

BENCHMARK_MAIN();
