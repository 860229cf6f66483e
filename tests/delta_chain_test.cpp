// DeltaRestoreEquivalence: the delta-chain correctness story, as a property
// over a grid of (scheme x chaos class x checkpoint cadence x full_every).
// For every cell, the run is checkpointed through a delta-emitting
// Snapshotter, and at every cut the live chain must restore into a fresh
// run whose reserialization is bit-identical to both the victim and a
// restore-from-full — then a mid-trace chain restore must finish the trace
// with Metrics bit-identical to the uninterrupted run (the same
// differential the kill-restore harness in bench/recovery_suite.cpp runs
// at bench scale).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/scheme.h"
#include "core/simulator.h"
#include "inject/chaos_plan.h"
#include "sip/instrumenter.h"
#include "snapshot/chain.h"
#include "snapshot/snapshotter.h"
#include "trace/generators.h"

using namespace sgxpl;

namespace {

trace::Trace grid_trace() {
  trace::Trace t("delta-grid", 512);
  Rng rng(33);
  const trace::GapModel gap{.mean = 1'500, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 256}, 1, gap);
  trace::random_access(t, rng, trace::Region{256, 250}, 350, 10, 4, gap);
  return t;
}

sip::InstrumentationPlan grid_plan() {
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 14; ++s) {
    plan.add_site(s);
  }
  return plan;
}

core::SimConfig grid_config(core::Scheme scheme,
                            const inject::ChaosPlan& chaos) {
  core::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.enclave.epc_pages = 48;  // overcommitted: constant paging churn
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 4;
  cfg.chaos = chaos;
  cfg.validate = true;
  return cfg;
}

struct Cell {
  core::Scheme scheme;
  const char* scheme_name;
  bool chaos;
  std::uint64_t cadence;
  std::uint64_t full_every;
};

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  const std::pair<core::Scheme, const char*> schemes[] = {
      {core::Scheme::kBaseline, "baseline"},
      {core::Scheme::kDfpStop, "dfpstop"},
      {core::Scheme::kHybrid, "hybrid"}};
  for (const auto& [scheme, name] : schemes) {
    for (const bool chaos : {false, true}) {
      for (const std::uint64_t cadence : {std::uint64_t{17},
                                          std::uint64_t{64}}) {
        for (const std::uint64_t full_every : {std::uint64_t{1},
                                               std::uint64_t{3},
                                               std::uint64_t{5}}) {
          cells.push_back({scheme, name, chaos, cadence, full_every});
        }
      }
    }
  }
  return cells;
}

inject::ChaosPlan cell_chaos(const Cell& c) {
  return c.chaos ? inject::ChaosPlan::all(5) : inject::ChaosPlan{};
}

std::string cell_name(const Cell& c) {
  return std::string(c.scheme_name) + (c.chaos ? "/chaos" : "/clean") +
         "/cadence=" + std::to_string(c.cadence) +
         "/full_every=" + std::to_string(c.full_every);
}

}  // namespace

TEST(DeltaRestoreEquivalence, ChainEqualsFullAtEveryCut) {
  const trace::Trace t = grid_trace();
  const sip::InstrumentationPlan plan = grid_plan();
  for (const Cell& cell : grid()) {
    SCOPED_TRACE(cell_name(cell));
    const core::SimConfig cfg = grid_config(cell.scheme, cell_chaos(cell));
    core::SimulationRun victim(cfg, t, &plan);
    snapshot::Snapshotter<core::SimulationRun> snap(cell.full_every);
    std::vector<std::vector<std::uint8_t>> chain;
    while (!victim.done()) {
      victim.step();
      if (victim.cursor() % cell.cadence != 0) {
        continue;
      }
      const snapshot::ChainFrame frame = snap.checkpoint(victim);
      if (frame.header.kind == snapshot::FrameKind::kFull) {
        chain.clear();
      }
      chain.push_back(frame.bytes);
      const std::vector<std::uint8_t> full = victim.save_bytes();

      core::SimulationRun from_chain(cfg, t, &plan);
      snapshot::restore_chain(from_chain, chain);
      ASSERT_EQ(from_chain.save_bytes(), full)
          << "chain restore diverged at cut " << victim.cursor();

      core::SimulationRun from_full(cfg, t, &plan);
      from_full.load_bytes(full);
      ASSERT_EQ(from_full.save_bytes(), full)
          << "full restore diverged at cut " << victim.cursor();
    }
    EXPECT_GT(snap.frames(), 0u);
    if (cell.full_every > 1) {
      EXPECT_GT(snap.delta_frames(), 0u) << "grid cell emitted no deltas";
    }
  }
}

TEST(DeltaRestoreEquivalence, MidTraceChainResumeFinishesIdentically) {
  const trace::Trace t = grid_trace();
  const sip::InstrumentationPlan plan = grid_plan();
  for (const Cell& cell : grid()) {
    SCOPED_TRACE(cell_name(cell));
    const core::SimConfig cfg = grid_config(cell.scheme, cell_chaos(cell));

    // Uninterrupted reference.
    core::SimulationRun ref(cfg, t, &plan);
    const core::Metrics want = ref.run_to_end();

    // Victim checkpointed to just past the trace midpoint, then killed.
    std::vector<std::vector<std::uint8_t>> chain;
    {
      core::SimulationRun victim(cfg, t, &plan);
      snapshot::Snapshotter<core::SimulationRun> snap(cell.full_every);
      while (!victim.done() && victim.cursor() < t.size() / 2) {
        victim.step();
        if (victim.cursor() % cell.cadence == 0) {
          const snapshot::ChainFrame frame = snap.checkpoint(victim);
          if (frame.header.kind == snapshot::FrameKind::kFull) {
            chain.clear();
          }
          chain.push_back(frame.bytes);
        }
      }
    }
    ASSERT_FALSE(chain.empty());

    core::SimulationRun resumed(cfg, t, &plan);
    snapshot::restore_chain(resumed, chain);
    const core::Metrics got = resumed.run_to_end();
    const snapshot::Diff d = snapshot::diff_metrics(want, got);
    EXPECT_TRUE(d.identical) << d.first_divergence;
  }
}

namespace {

/// The driver-structure sections (PGTD/EPCD/BMPD/BSTD) a delta frame
/// carries, in frame order.
std::vector<std::string> structure_sections(
    const std::vector<std::uint8_t>& frame) {
  snapshot::Reader r(frame);
  std::vector<std::string> tags;
  for (std::uint32_t s = 0; s < r.section_count(); ++s) {
    const std::string tag = r.enter_any_section();
    while (r.more_fields()) {
      r.next_field();
    }
    r.leave_section();
    if (tag == "PGTD" || tag == "EPCD" || tag == "BMPD" || tag == "BSTD") {
      tags.push_back(tag);
    }
  }
  return tags;
}

}  // namespace

// A delta frame carries a structure's section exactly when that structure
// changed since the previous checkpoint. Two EPC slots, pages 0, 1, 2: the
// third access's CLOCK sweep clears both access bits and evicts page 0, so
// page 1 stays resident with its access bit clear.
TEST(DeltaSections, ADeltaCarriesExactlyTheStructuresThatChanged) {
  trace::Trace t("delta-sections", 8);
  for (const PageNum page : std::vector<PageNum>{0, 1, 2, 1, 3}) {
    t.append(trace::Access{.page = page, .gap = 10});
  }
  core::SimConfig cfg;
  cfg.enclave.epc_pages = 2;
  core::SimulationRun run(cfg, t);
  snapshot::Snapshotter<core::SimulationRun> snap(/*full_every=*/100);
  for (int i = 0; i < 3; ++i) {
    run.step();
  }
  ASSERT_EQ(snap.checkpoint(run).header.kind, snapshot::FrameKind::kFull);
  ASSERT_TRUE(run.driver().page_table().present(1));

  // No step since the base: only the driver scalars travel.
  EXPECT_EQ(structure_sections(snap.checkpoint(run).bytes),
            std::vector<std::string>{});

  // The first touch of resident page 1 sets its access bit and nothing else.
  run.step();
  EXPECT_EQ(run.driver().stats().faults, 3u);
  EXPECT_EQ(structure_sections(snap.checkpoint(run).bytes),
            std::vector<std::string>{"PGTD"});

  // A fault on page 3 evicts page 1: every structure moves.
  run.step();
  EXPECT_EQ(run.driver().stats().evictions, 2u);
  EXPECT_EQ(structure_sections(snap.checkpoint(run).bytes),
            (std::vector<std::string>{"PGTD", "EPCD", "BMPD", "BSTD"}));
}
