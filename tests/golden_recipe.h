// The golden-corpus recipe: the exact traces, configurations, and cut
// points from which every checked-in snapshot under tests/golden/ was
// produced. The golden test (tests/golden_test.cpp) and the regeneration
// tool (tests/golden_gen.cpp) share this header, so "regenerate and
// compare" is well-defined.
//
// DO NOT change anything here without regenerating the corpus
// (tests/golden/README.md), and review the regenerated files like any other
// format change: a change that alters the simulated state at the cut points
// changes every golden.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/scheme.h"
#include "core/simulator.h"
#include "sip/instrumenter.h"
#include "snapshot/chain.h"
#include "trace/generators.h"

namespace sgxpl::golden {

/// Names of the single-enclave golden cases (one snapshot file per name:
/// tests/golden/v2/single-<name>.snap).
inline std::vector<std::string> single_case_names() {
  return {"baseline", "dfpstop", "hybrid", "chaos"};
}

/// One small trace shared by all single-enclave cases: a sequential scan
/// that forms DFP streams, then irregular accesses that overflow the EPC.
inline trace::Trace single_trace() {
  trace::Trace t("golden-single", 512);
  Rng rng(21);
  const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 200}, 1, gap);
  trace::random_access(t, rng, trace::Region{200, 280}, 400, 10, 4, gap);
  return t;
}

/// Instrumentation plan for SIP-using cases (sites used by single_trace's
/// irregular phase).
inline sip::InstrumentationPlan single_plan() {
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 14; ++s) {
    plan.add_site(s);
  }
  return plan;
}

inline core::SimConfig single_config(const std::string& name) {
  core::SimConfig cfg;
  cfg.enclave.epc_pages = 48;
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 4;
  cfg.validate = true;
  if (name == "baseline") {
    cfg.scheme = core::Scheme::kBaseline;
  } else if (name == "dfpstop") {
    cfg.scheme = core::Scheme::kDfpStop;
  } else if (name == "hybrid") {
    cfg.scheme = core::Scheme::kHybrid;
  } else if (name == "chaos") {
    cfg.scheme = core::Scheme::kDfpStop;
    cfg.chaos = inject::ChaosPlan::all(7);
  } else {
    SGXPL_CHECK_MSG(false, "unknown golden case '" << name << "'");
  }
  return cfg;
}

/// Access boundary at which every single-enclave golden was snapshotted.
inline constexpr std::uint64_t kSingleCut = 300;

/// Serialize the state of single case `name` at the cut point.
inline std::vector<std::uint8_t> make_single(const std::string& name) {
  const trace::Trace t = single_trace();
  const sip::InstrumentationPlan plan = single_plan();
  core::SimulationRun run(single_config(name), t, &plan);
  while (!run.done() && run.cursor() < kSingleCut) {
    run.step();
  }
  return run.save_bytes();
}

// --- delta-chain case -----------------------------------------------------

/// Cut points of the chain golden: the dfpstop case checkpointed three
/// times with full_every = kChainFullEvery, yielding a full base followed
/// by two delta frames (tests/golden/v2/chain-dfpstop.*).
inline constexpr std::uint64_t kChainCuts[] = {300, 340, 380};
inline constexpr std::uint64_t kChainFullEvery = 8;

/// Serialize the chain golden's three frames, base first.
inline std::vector<std::vector<std::uint8_t>> make_chain() {
  const trace::Trace t = single_trace();
  const sip::InstrumentationPlan plan = single_plan();
  core::SimulationRun run(single_config("dfpstop"), t, &plan);
  snapshot::Snapshotter<core::SimulationRun> snap(kChainFullEvery);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const std::uint64_t cut : kChainCuts) {
    while (!run.done() && run.cursor() < cut) {
      run.step();
    }
    frames.push_back(snap.checkpoint(run).bytes);
  }
  return frames;
}

// --- multi-enclave case -----------------------------------------------------

inline trace::Trace multi_trace(std::uint64_t seed) {
  trace::Trace t(seed == 11 ? "golden-a" : "golden-b", 256);
  Rng rng(seed);
  const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 128}, 1, gap);
  trace::random_access(t, rng, trace::Region{128, 122}, 250, 10, 4, gap);
  return t;
}

inline core::SimConfig multi_config() {
  core::SimConfig cfg;
  cfg.enclave.epc_pages = 64;  // shared physical EPC
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 4;
  cfg.validate = true;
  return cfg;
}

/// Combined-step boundary at which the multi-enclave golden was snapshotted.
inline constexpr std::uint64_t kMultiCut = 400;

/// Apps for the multi case: `a` and `b` must be multi_trace(11) and
/// multi_trace(12) and must outlive the run.
inline std::vector<core::EnclaveApp> multi_apps(const trace::Trace& a,
                                                const trace::Trace& b) {
  return {
      {.trace = &a, .scheme = core::Scheme::kDfpStop},
      {.trace = &b, .scheme = core::Scheme::kBaseline},
  };
}

inline std::vector<std::uint8_t> make_multi() {
  const trace::Trace a = multi_trace(11);
  const trace::Trace b = multi_trace(12);
  core::MultiEnclaveRun run(multi_config(), multi_apps(a, b));
  while (!run.done() && run.steps() < kMultiCut) {
    run.step();
  }
  return run.save_bytes();
}

}  // namespace sgxpl::golden
