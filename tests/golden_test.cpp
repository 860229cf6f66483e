// Golden-corpus battery: pins the on-disk snapshot format against silent
// drift (tests/golden/README.md). SGXPL_GOLDEN_DIR points at the corpus.
//
//   - acceptance: every checked-in file still loads and restores the exact
//     state the recipe's fresh run holds at the cut point, while the same
//     bytes stamped with another format version are refused;
//   - writer determinism: a fresh capture of the recipe state equals the
//     golden byte for byte (two invocations of the writer);
//   - chain golden: the base+2-delta chain restores bit-identically to the
//     full-snapshot restore at the final cut.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_recipe.h"
#include "snapshot/chain.h"
#include "snapshot/codec.h"
#include "snapshot/snapshotter.h"

using namespace sgxpl;

namespace {

std::string golden_path(const std::string& rel) {
  return std::string(SGXPL_GOLDEN_DIR) + "/" + rel;
}

std::vector<std::uint8_t> read_golden(const std::string& rel) {
  const std::string path = golden_path(rel);
  EXPECT_TRUE(snapshot::file_readable(path)) << path << " missing";
  return snapshot::read_file(path);
}

/// `frame` with its format version field overwritten.
std::vector<std::uint8_t> restamped(std::vector<std::uint8_t> frame,
                                    std::uint8_t version) {
  frame[snapshot::kMagic.size()] = version;  // version u32 LSB
  return frame;
}

class GoldenSingle : public ::testing::TestWithParam<std::string> {};

// --- acceptance -------------------------------------------------------------

TEST_P(GoldenSingle, LoadsWithIdenticalStateAndRefusesOtherVersions) {
  const std::string name = GetParam();
  const trace::Trace t = golden::single_trace();
  const sip::InstrumentationPlan plan = golden::single_plan();
  core::SimulationRun restored(golden::single_config(name), t, &plan);
  const auto golden = read_golden("v2/single-" + name + ".snap");
  try {
    restored.load_bytes(restamped(golden, 1));
    FAIL() << "a version-1 frame loaded";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
  restored.load_bytes(golden);
  // The restored state must serialize to exactly what a fresh run of the
  // recipe holds at the cut — same cursor, same driver, same engine.
  EXPECT_EQ(restored.save_bytes(), golden::make_single(name));
  EXPECT_EQ(restored.cursor(), golden::kSingleCut);
}

TEST_P(GoldenSingle, V2LoadsDirectly) {
  const std::string name = GetParam();
  const trace::Trace t = golden::single_trace();
  const sip::InstrumentationPlan plan = golden::single_plan();
  core::SimulationRun restored(golden::single_config(name), t, &plan);
  restored.load_bytes(read_golden("v2/single-" + name + ".snap"));
  EXPECT_EQ(restored.cursor(), golden::kSingleCut);
  // And the run must be resumable: finish it without error.
  restored.run_to_end();
}

TEST_P(GoldenSingle, V2GoldenIsByteStable) {
  // Two independent writer invocations of the same recipe state — here and
  // when the corpus was generated — must agree byte for byte.
  const std::string name = GetParam();
  EXPECT_EQ(golden::make_single(name),
            read_golden("v2/single-" + name + ".snap"));
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenSingle,
                         ::testing::ValuesIn(golden::single_case_names()));

// --- multi-enclave ----------------------------------------------------------

TEST(GoldenMulti, LoadsWithIdenticalState) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  core::MultiEnclaveRun restored(golden::multi_config(),
                                 golden::multi_apps(a, b));
  restored.load_bytes(read_golden("v2/multi.snap"));
  EXPECT_EQ(restored.save_bytes(), golden::make_multi());
  EXPECT_EQ(restored.steps(), golden::kMultiCut);
}

TEST(GoldenMulti, V2GoldenIsByteStable) {
  EXPECT_EQ(golden::make_multi(), read_golden("v2/multi.snap"));
}

TEST(GoldenMulti, V2LoadsAndFinishes) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  core::MultiEnclaveRun restored(golden::multi_config(),
                                 golden::multi_apps(a, b));
  restored.load_bytes(read_golden("v2/multi.snap"));
  EXPECT_EQ(restored.steps(), golden::kMultiCut);
  restored.run_to_end();
}

TEST(GoldenMulti, ExtractionWorksOnTheGoldenAndRefusesOtherVersions) {
  const auto golden = read_golden("v2/multi.snap");
  try {
    snapshot::extract_enclave(restamped(golden, 1), 0);
    FAIL() << "extraction from a version-1 frame accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
  const snapshot::ExtractedEnclave e =
      snapshot::read_extracted(snapshot::extract_enclave(golden, 0));
  EXPECT_EQ(e.index, 0u);
  EXPECT_EQ(e.scheme, "DFP-stop");
  EXPECT_EQ(e.trace, "golden-a");
  EXPECT_TRUE(e.has_dfp);
}

// --- chain golden -----------------------------------------------------------

TEST(GoldenChain, ChainGoldenIsByteStable) {
  const auto frames = golden::make_chain();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], read_golden("v2/chain-dfpstop.snap"));
  EXPECT_EQ(frames[1], read_golden("v2/chain-dfpstop.snap.delta-1"));
  EXPECT_EQ(frames[2], read_golden("v2/chain-dfpstop.snap.delta-2"));
}

TEST(GoldenChain, RestoresBitIdenticallyToFullSnapshot) {
  const trace::Trace t = golden::single_trace();
  const sip::InstrumentationPlan plan = golden::single_plan();

  // Restore the checked-in chain...
  core::SimulationRun from_chain(golden::single_config("dfpstop"), t, &plan);
  std::vector<std::vector<std::uint8_t>> frames = {
      read_golden("v2/chain-dfpstop.snap"),
      read_golden("v2/chain-dfpstop.snap.delta-1"),
      read_golden("v2/chain-dfpstop.snap.delta-2")};
  snapshot::restore_chain(from_chain, frames);

  // ...and independently step a fresh run to the chain's last cut.
  core::SimulationRun reference(golden::single_config("dfpstop"), t, &plan);
  const std::uint64_t last_cut =
      golden::kChainCuts[std::size(golden::kChainCuts) - 1];
  while (!reference.done() && reference.cursor() < last_cut) {
    reference.step();
  }
  EXPECT_EQ(from_chain.save_bytes(), reference.save_bytes());

  // Both must finish identically too.
  EXPECT_EQ(from_chain.run_to_end().total_cycles,
            reference.run_to_end().total_cycles);
}

TEST(GoldenChain, RestoreChainFromFilesFindsTheDeltas) {
  const trace::Trace t = golden::single_trace();
  const sip::InstrumentationPlan plan = golden::single_plan();
  core::SimulationRun run(golden::single_config("dfpstop"), t, &plan);
  ASSERT_TRUE(snapshot::restore_chain_from_files(
      run, golden_path("v2/chain-dfpstop.snap")));
  EXPECT_EQ(run.cursor(), golden::kChainCuts[std::size(golden::kChainCuts) - 1]);
}

}  // namespace
