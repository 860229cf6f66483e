// Equivalence battery for the quiet loop (SimulationRun::advance): a run
// driven through run_to_end(), advance() and run_until() must end every
// access in exactly the state a bare `while (!done()) step();` loop reaches.
// Random seeded traces run under every scheme and under every condition the
// loop declines for (chaos, a profiler, the parallel channel) or works
// around (a hardened bounded channel, FIFO demand, EPC contention), and the
// runs must
// agree on every Metrics and DriverStats field, on save_bytes() at random
// cuts, on the delta chain a checkpointed run writes and on its resume, and
// on every lane of a sharded fleet at K in {1, 4}.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sharding.h"
#include "core/simulator.h"
#include "inject/chaos_plan.h"
#include "obs/profiler.h"
#include "sgxsim/driver.h"
#include "snapshot/chain.h"
#include "snapshot/snapshotter.h"
#include "trace/generators.h"

namespace sgxpl {
namespace {

using core::Scheme;
using core::SimConfig;
using core::SimulationRun;

/// A sequential scan with hot-set hits between its pages (so preloads
/// complete inside resident stretches), a stretch of hot-set hits alone (so
/// scan ticks fall inside it), hot hits mixed with cold misses that evict, a
/// plain scan DFP follows and Zipf reuse, with gaps from 0 to about 2x the
/// mean so that scans and completions land between accesses.
trace::Trace random_trace(std::uint64_t seed) {
  trace::Trace t("quiet-" + std::to_string(seed), 4'096);
  Rng rng(seed);
  const trace::GapModel gap{.mean = 1'500, .jitter_pct = 1.0};
  for (PageNum p = 2'500; p < 2'800; ++p) {
    t.append({.page = p, .site = 2, .gap = gap.sample(rng)});
    for (std::uint64_t k = rng.bounded(6); k > 0; --k) {
      t.append({.page = rng.bounded(32),
                .site = static_cast<SiteId>(10 + rng.bounded(6)),
                .gap = gap.sample(rng)});
    }
  }
  for (int i = 0; i < 800; ++i) {
    t.append({.page = rng.bounded(32),
              .site = static_cast<SiteId>(8 + rng.bounded(8)),
              .gap = gap.sample(rng)});
  }
  trace::hot_cold_mixed_sites(t, rng, trace::Region{0, 48},
                              trace::Region{200, 1'800}, 900, 0.85, 10, 6,
                              gap);
  trace::seq_scan(t, rng, trace::Region{2'100, 300}, 1, gap, 1, 0.02);
  trace::zipf_access(t, rng, trace::Region{0, 600}, 900, 1.1, 12, 4, gap);
  trace::hot_cold_mixed_sites(t, rng, trace::Region{3'000, 40},
                              trace::Region{3'100, 900}, 600, 0.9, 8, 6, gap);
  return t;
}

/// Sites 10..13 are instrumented: part of every region above.
sip::InstrumentationPlan plan_for_test() {
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 14; ++s) {
    plan.add_site(s);
  }
  return plan;
}

struct SchemeCase {
  const char* name;
  Scheme scheme;
  std::uint32_t lookahead;
};

constexpr SchemeCase kSchemes[] = {
    {"baseline", Scheme::kBaseline, 0}, {"dfp", Scheme::kDfp, 0},
    {"dfp-stop", Scheme::kDfpStop, 0},  {"sip", Scheme::kSip, 0},
    {"hybrid", Scheme::kHybrid, 0},     {"hybrid-la8", Scheme::kHybrid, 8},
};

enum class Variant {
  kClean,
  kChaosAll,
  kHardened,
  kContention,
  kProfiler,
  kFifo,
  kParallel,
};

constexpr Variant kVariants[] = {
    Variant::kClean,    Variant::kChaosAll, Variant::kHardened,
    Variant::kContention, Variant::kProfiler, Variant::kFifo,
    Variant::kParallel,
};

const char* to_string(Variant v) {
  switch (v) {
    case Variant::kClean:
      return "clean";
    case Variant::kChaosAll:
      return "chaos-all";
    case Variant::kHardened:
      return "hardened";
    case Variant::kContention:
      return "contention";
    case Variant::kProfiler:
      return "profiler";
    case Variant::kFifo:
      return "fifo";
    case Variant::kParallel:
      return "parallel";
  }
  return "?";
}

/// The profiler variant's sink, shared by every run that attaches it.
obs::Profiler& test_profiler() {
  static obs::Profiler p;
  p.set_enabled(true);
  return p;
}

/// kStep spans test_profiler() has closed so far.
std::uint64_t profiled_steps() {
  const obs::PhaseProfile prof = test_profiler().profile();
  const obs::PhaseProfile::Node* step = prof.find({obs::Phase::kStep});
  return step != nullptr ? step->count : 0;
}

SimConfig config_for(const SchemeCase& s, Variant v, std::uint64_t seed) {
  SimConfig cfg;
  cfg.scheme = s.scheme;
  cfg.sip_lookahead = s.lookahead;
  cfg.enclave.epc_pages = 96;
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 4;
  cfg.validate = true;
  switch (v) {
    case Variant::kClean:
      break;
    case Variant::kChaosAll:
      cfg.chaos = inject::ChaosPlan::all(seed);
      break;
    case Variant::kHardened:
      cfg.enclave.channel.max_queued = 16;
      cfg.enclave.channel.max_retries = 3;
      break;
    case Variant::kContention:
      // EPC contention: a quarter of the EPC, smaller than the hot sets, so
      // the loop keeps meeting pages evicted since it last ran.
      cfg.enclave.epc_pages = 24;
      break;
    case Variant::kProfiler:
      cfg.profiler = &test_profiler();
      break;
    case Variant::kFifo:
      cfg.enclave.demand_policy = sgxsim::DemandPolicy::kFifo;
      break;
    case Variant::kParallel:
      cfg.enclave.serial_channel = false;
      break;
  }
  return cfg;
}

void expect_identical(const core::Metrics& want, const core::Metrics& got,
                      const std::string& context) {
  const auto d = snapshot::diff_metrics(want, got);
  EXPECT_TRUE(d.identical) << context << ": " << d.first_divergence;
  EXPECT_EQ(want.total_cycles, got.total_cycles) << context;
}

/// A cut of the reference stepping: up to an access count, or while the
/// clock is below a bound (run_until's contract).
struct Cut {
  bool by_clock = false;
  std::uint64_t bound = 0;
};

void step_to(SimulationRun& run, const Cut& c) {
  if (c.by_clock) {
    while (!run.done() && run.now() < c.bound) {
      run.step();
    }
  } else {
    while (!run.done() && run.cursor() < c.bound) {
      run.step();
    }
  }
}

void advance_to(SimulationRun& run, const Cut& c) {
  if (c.by_clock) {
    run.run_until(c.bound);
  } else {
    run.advance(c.bound);
  }
}

/// Ascending random cuts over the trace, alternating access-count and clock
/// bounds (the clock bounds from the reference's average pace).
std::vector<Cut> random_cuts(std::uint64_t seed, std::uint64_t accesses,
                             Cycles total_cycles) {
  Rng rng(seed ^ 0xc075);
  std::vector<Cut> cuts;
  std::uint64_t at = 0;
  while (true) {
    at += 1 + rng.bounded(accesses / 20);
    if (at >= accesses) {
      break;
    }
    const bool by_clock = rng.bounded(2) == 0;
    const Cycles clock = total_cycles / accesses * at;
    cuts.push_back({by_clock, by_clock ? clock : at});
  }
  return cuts;
}

class QuietPath
    : public ::testing::TestWithParam<std::tuple<std::size_t, Variant>> {};

TEST_P(QuietPath, MatchesBareStepLoopAtEveryCutAndAtTheEnd) {
  const SchemeCase& s = kSchemes[std::get<0>(GetParam())];
  const Variant v = std::get<1>(GetParam());
  const std::uint64_t seed = 11 + std::get<0>(GetParam()) * 7 +
                             static_cast<std::uint64_t>(v);
  const std::string ctx = std::string(s.name) + "/" + to_string(v);
  const trace::Trace t = random_trace(seed);
  const sip::InstrumentationPlan plan = plan_for_test();
  const SimConfig cfg = config_for(s, v, seed);

  // The reference: every access through step().
  core::Metrics want;
  Cycles total = 0;
  {
    SimulationRun ref(cfg, t, &plan);
    while (!ref.done()) {
      ref.step();
    }
    total = ref.now();
    want = ref.finish();
  }

  // run_to_end() from scratch.
  {
    const std::uint64_t steps_before = profiled_steps();
    SimulationRun run(cfg, t, &plan);
    expect_identical(want, run.run_to_end(), ctx + " run_to_end");
    if (v == Variant::kProfiler) {
      // A profiled run steps every access, so its kStep count stays exact.
      EXPECT_EQ(profiled_steps() - steps_before, t.size()) << ctx;
    }
  }

  // advance()/run_until() in segments: the same bytes at every cut.
  const std::vector<Cut> cuts = random_cuts(seed, t.size(), total);
  ASSERT_FALSE(cuts.empty());
  SimulationRun ref(cfg, t, &plan);
  SimulationRun run(cfg, t, &plan);
  bool quiet_seen = false;
  for (const Cut& c : cuts) {
    step_to(ref, c);
    advance_to(run, c);
    ASSERT_EQ(ref.cursor(), run.cursor()) << ctx << " cut " << c.bound;
    ASSERT_EQ(ref.now(), run.now()) << ctx << " cut " << c.bound;
    ASSERT_EQ(ref.save_bytes(), run.save_bytes())
        << ctx << " frame at cut " << c.bound
        << (c.by_clock ? " (clock)" : " (accesses)");
    quiet_seen = quiet_seen || run.driver().quiet_horizon() > run.now();
  }
  while (!ref.done()) {
    ref.step();
  }
  expect_identical(ref.finish(), run.run_to_end(), ctx + " after the cuts");
  if (v == Variant::kClean || v == Variant::kHardened ||
      v == Variant::kFifo) {
    // Conditions the loop runs under: it must have had room somewhere.
    EXPECT_TRUE(quiet_seen) << ctx << ": the horizon never opened";
  }
}

TEST_P(QuietPath, CheckpointedDeltaChainMatchesAndResumes) {
  const SchemeCase& s = kSchemes[std::get<0>(GetParam())];
  const Variant v = std::get<1>(GetParam());
  const std::uint64_t seed = 5 + std::get<0>(GetParam()) * 3 +
                             static_cast<std::uint64_t>(v);
  const std::string ctx = std::string(s.name) + "/" + to_string(v);
  const trace::Trace t = random_trace(seed);
  const sip::InstrumentationPlan plan = plan_for_test();
  const SimConfig cfg = config_for(s, v, seed);
  // Eleven frames: bases at 0, 4 and 8, so the final chain is a base and
  // two deltas.
  const std::uint64_t kEvery = t.size() / 11;
  constexpr std::uint64_t kFullEvery = 4;

  // The reference chain: step by step, a frame at every kEvery-th access.
  std::vector<std::vector<std::uint8_t>> want_chain;
  core::Metrics want;
  {
    SimulationRun ref(cfg, t, &plan);
    snapshot::Snapshotter<SimulationRun> snap(kFullEvery);
    while (!ref.done()) {
      ref.step();
      if (ref.steps() % kEvery == 0) {
        const snapshot::ChainFrame f = snap.checkpoint(ref);
        if (f.header.kind == snapshot::FrameKind::kFull) {
          want_chain.clear();
        }
        want_chain.push_back(f.bytes);
      }
    }
    want = ref.finish();
  }
  ASSERT_EQ(want_chain.size(), 3u) << ctx;

  const std::string path = testing::TempDir() + "sgxpl-quiet-" + s.name +
                           "-" + to_string(v) + ".snap";
  std::remove(path.c_str());
  SimConfig writing = cfg;
  writing.checkpoint.path = path;
  writing.checkpoint.every_accesses = kEvery;
  writing.checkpoint.full_every = kFullEvery;
  expect_identical(want, core::simulate(t, writing, &plan),
                   ctx + " checkpointed run");
  EXPECT_EQ(snapshot::read_chain_files(path), want_chain)
      << ctx << ": the on-disk chain differs from the stepped one";

  SimConfig resuming = cfg;
  resuming.checkpoint.resume_path = path;
  expect_identical(want, core::simulate(t, resuming, &plan),
                   ctx + " resumed from the chain");
  for (std::uint64_t seq = 0; seq < want_chain.size(); ++seq) {
    std::remove((seq == 0 ? path : snapshot::delta_path(path, seq)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndVariants, QuietPath,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kSchemes)),
                       ::testing::ValuesIn(kVariants)),
    [](const auto& tp) {
      std::string name = std::string(kSchemes[std::get<0>(tp.param)].name) +
                         "_" + to_string(std::get<1>(tp.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(QuietPathShards, LanesMatchTheSteppedFleetAtOneAndFourShards) {
  // Lanes advance through run_until(), the quiet loop's clock bound. The
  // reference attaches a profiler, which sends every access of every lane
  // through step(); frames carry no profiler state, so every barrier frame
  // and every lane's final metrics must match at K = 1 and K = 4.
  std::vector<trace::Trace> traces;
  for (std::uint64_t i = 0; i < 4; ++i) {
    traces.push_back(random_trace(300 + i));
  }
  const sip::InstrumentationPlan plan = plan_for_test();
  const Scheme schemes[] = {Scheme::kBaseline, Scheme::kDfpStop, Scheme::kSip,
                            Scheme::kHybrid};
  std::vector<core::ShardLane> lanes;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    lanes.push_back({.trace = &traces[i], .scheme = schemes[i],
                     .plan = &plan});
  }
  SimConfig base;
  base.enclave.epc_pages = 96;
  base.dfp.predictor.stream_list_len = 8;
  base.validate = true;
  core::ShardingSpec spec;
  spec.epoch_cycles = 600'000;
  spec.contention_gain_milli = 400;
  spec.pool_pages = 400;
  spec.quota_floor = 24;

  obs::Profiler prof;
  prof.set_enabled(true);
  SimConfig stepped = base;
  stepped.profiler = &prof;
  spec.threads = 1;
  core::ShardedFleetRun ref(stepped, lanes, spec);
  std::vector<std::unique_ptr<core::ShardedFleetRun>> runs;
  for (const std::size_t k : {1u, 4u}) {
    spec.threads = k;
    runs.push_back(std::make_unique<core::ShardedFleetRun>(base, lanes, spec));
  }
  while (!ref.done()) {
    ref.run_epoch();
    const std::vector<std::uint8_t> want = ref.save_bytes();
    for (std::size_t r = 0; r < runs.size(); ++r) {
      ASSERT_FALSE(runs[r]->done()) << "run " << r;
      runs[r]->run_epoch();
      ASSERT_EQ(runs[r]->save_bytes(), want)
          << "K=" << (r == 0 ? 1 : 4) << " at epoch " << ref.epochs_run();
    }
  }
  const std::vector<core::Metrics> want = ref.run_to_end();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    ASSERT_TRUE(runs[r]->done());
    const std::vector<core::Metrics> got = runs[r]->run_to_end();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_identical(want[i], got[i],
                       "K=" + std::to_string(r == 0 ? 1 : 4) + " lane " +
                           std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace sgxpl
