// snapshot_tool black-box tests: every subcommand must exit nonzero with a
// typed one-line error on bad inputs (missing file, garbage bytes, bad
// index, torn chain), verify-chain must name the first bad frame's seq and
// byte offset, and the migrate/salvage subcommands must round-trip real
// frames. Drives the installed binary via a shell, exactly as CI does.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "golden_recipe.h"
#include "snapshot/codec.h"

namespace sgxpl {
namespace {

struct ToolResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Run the snapshot_tool binary with `args`, capturing both streams.
ToolResult run_tool(const std::string& args) {
  const std::string cmd = std::string(SGXPL_TOOL_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  ToolResult res;
  if (pipe == nullptr) return res;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    res.output += buf;
  }
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "tool-" + name;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  snapshot::write_file_atomic(path, bytes);
}

void write_garbage(const std::string& path) {
  const std::string junk = "this is not a snapshot frame at all";
  write_bytes(path, std::vector<std::uint8_t>(junk.begin(), junk.end()));
}

/// The typed-failure contract: nonzero exit and a one-line `error:`
/// diagnostic as the final line of output.
void expect_typed_failure(const ToolResult& res, const std::string& context) {
  EXPECT_NE(res.exit_code, 0) << context << ":\n" << res.output;
  ASSERT_FALSE(res.output.empty()) << context;
  std::string last = res.output;
  if (!last.empty() && last.back() == '\n') last.pop_back();
  const auto nl = last.rfind('\n');
  if (nl != std::string::npos) last = last.substr(nl + 1);
  EXPECT_EQ(last.rfind("error:", 0), 0u)
      << context << ": last line is not a typed error:\n"
      << res.output;
}

TEST(Tool, NoArgsPrintsUsage) {
  const ToolResult res = run_tool("");
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.output.find("usage:"), std::string::npos);
}

TEST(Tool, UnknownSubcommandPrintsUsage) {
  const ToolResult res = run_tool("frobnicate x.snap");
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.output.find("usage:"), std::string::npos);
}

TEST(Tool, EverySubcommandRejectsAMissingFileTyped) {
  const std::string ghost = tmp_path("ghost.snap");
  std::remove(ghost.c_str());
  for (const std::string& cmd :
       {"info " + ghost, "extract 0 " + ghost + " " + tmp_path("out.snap"),
        "migrate " + ghost + " 0 " + tmp_path("out.snap"),
        "diff " + ghost + " " + ghost, "verify-chain " + ghost}) {
    expect_typed_failure(run_tool(cmd), cmd);
  }
}

TEST(Tool, EverySubcommandRejectsGarbageBytesTyped) {
  const std::string junk = tmp_path("junk.snap");
  write_garbage(junk);
  // A real frame stamped with a format version this build does not read.
  const std::string v1 = tmp_path("v1.snap");
  std::vector<std::uint8_t> stamped = golden::make_multi();
  stamped[snapshot::kMagic.size()] = 1;  // version u32 LSB
  write_bytes(v1, stamped);
  for (const std::string& bad : {junk, v1}) {
    for (const std::string& cmd :
         {"info " + bad, "extract 0 " + bad + " " + tmp_path("out.snap"),
          "migrate " + bad + " 0 " + tmp_path("out.snap"),
          "diff " + bad + " " + bad, "verify-chain " + bad}) {
      expect_typed_failure(run_tool(cmd), cmd);
    }
  }
}

TEST(Tool, ExtractAndMigrateRejectBadIndicesTyped) {
  const std::string multi = tmp_path("multi.snap");
  write_bytes(multi, golden::make_multi());
  expect_typed_failure(
      run_tool("extract abc " + multi + " " + tmp_path("out.snap")),
      "non-numeric index");
  expect_typed_failure(
      run_tool("extract 99 " + multi + " " + tmp_path("out.snap")),
      "out-of-range index");
  expect_typed_failure(
      run_tool("migrate " + multi + " abc " + tmp_path("out.snap")),
      "migrate non-numeric index");
  expect_typed_failure(
      run_tool("migrate " + multi + " 99 " + tmp_path("out.snap")),
      "migrate out-of-range index");
  expect_typed_failure(
      run_tool("migrate " + multi + " 0 " + tmp_path("out.snap") +
               " 0 250 999999999999999999999999"),
      "overflowing geometry");
}

TEST(Tool, MigrateCarvesAResumableTenant) {
  const std::string multi = tmp_path("mig-multi.snap");
  write_bytes(multi, golden::make_multi());
  // Tenant 1's real placement (Baseline at lo > 0): the rebasing carve.
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  core::MultiEnclaveRun run(golden::multi_config(), golden::multi_apps(a, b));
  const snapshot::TenantGeometry geo = run.tenant_geometry(1);

  const std::string out = tmp_path("mig-out.snap");
  const ToolResult res = run_tool(
      "migrate " + multi + " 1 " + out + " " + std::to_string(geo.lo) + " " +
      std::to_string(geo.pages) + " " + std::to_string(geo.trace_accesses));
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("resumable enclave 1"), std::string::npos)
      << res.output;
  // The carved frame is a well-formed standalone frame.
  EXPECT_EQ(run_tool("info " + out).exit_code, 0);
}

TEST(Tool, MigrateRefusesADfpTenantAboveOffsetZeroTyped) {
  const std::string multi = tmp_path("mig-refuse.snap");
  write_bytes(multi, golden::make_multi());
  // Tenant 0 of the golden multi runs DFP; carving it as if it were placed
  // above offset 0 must be refused typed (its engine state is keyed to
  // combined page numbers).
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  core::MultiEnclaveRun run(golden::multi_config(), golden::multi_apps(a, b));
  const snapshot::TenantGeometry geo = run.tenant_geometry(1);
  expect_typed_failure(
      run_tool("migrate " + multi + " 0 " + tmp_path("out.snap") + " " +
               std::to_string(geo.lo) + " " + std::to_string(geo.pages) +
               " " + std::to_string(geo.trace_accesses)),
      "DFP tenant carved at lo > 0");
}

TEST(Tool, VerifyChainReportsSeqAndByteOffsetOfTheFirstBadFrame) {
  const auto frames = golden::make_chain();
  const std::string base = tmp_path("chain.snap");
  write_bytes(base, frames[0]);
  write_bytes(snapshot::delta_path(base, 1), frames[1]);
  std::vector<std::uint8_t> torn = frames[2];
  torn.resize(torn.size() / 2);
  write_bytes(snapshot::delta_path(base, 2), torn);

  const ToolResult res = run_tool("verify-chain " + base);
  EXPECT_NE(res.exit_code, 0);
  EXPECT_NE(res.output.find("error:"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("frame 2 (seq 2)"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("byte offset"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("corrupt-frame"), std::string::npos)
      << res.output;

  // Intact chain: exit 0 and a per-frame linkage report.
  write_bytes(snapshot::delta_path(base, 2), frames[2]);
  const ToolResult ok = run_tool("verify-chain " + base);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("chain OK"), std::string::npos) << ok.output;
}

TEST(Tool, SalvageCopiesTheValidPrefixOfATornChain) {
  const auto frames = golden::make_chain();
  const std::string base = tmp_path("salvage.snap");
  write_bytes(base, frames[0]);
  write_bytes(snapshot::delta_path(base, 1), frames[1]);
  std::vector<std::uint8_t> torn = frames[2];
  torn.resize(torn.size() / 3);
  write_bytes(snapshot::delta_path(base, 2), torn);

  const std::string out = tmp_path("salvaged.snap");
  std::remove(out.c_str());
  std::remove(snapshot::delta_path(out, 1).c_str());
  std::remove(snapshot::delta_path(out, 2).c_str());

  const ToolResult res = run_tool("salvage " + base + " " + out);
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("salvage: 2/3 frame(s) valid"), std::string::npos)
      << res.output;
  // The salvaged prefix verifies clean and the torn tail was not copied.
  EXPECT_EQ(run_tool("verify-chain " + out).exit_code, 0);
  EXPECT_EQ(snapshot::read_file(out), frames[0]);
  EXPECT_EQ(snapshot::read_file(snapshot::delta_path(out, 1)), frames[1]);
  FILE* tail = std::fopen(snapshot::delta_path(out, 2).c_str(), "rb");
  EXPECT_EQ(tail, nullptr);
  if (tail != nullptr) std::fclose(tail);
}

TEST(Tool, SalvageWithNothingRestorableFailsTyped) {
  const std::string base = tmp_path("salvage-junk.snap");
  write_garbage(base);
  const ToolResult res =
      run_tool("salvage " + base + " " + tmp_path("salvaged-junk.snap"));
  EXPECT_NE(res.exit_code, 0);
  EXPECT_NE(res.output.find("error: nothing restorable"), std::string::npos)
      << res.output;
}

TEST(Tool, InfoAndExtractStillWorkOnRealFrames) {
  const std::string multi = tmp_path("pos-multi.snap");
  write_bytes(multi, golden::make_multi());
  EXPECT_EQ(run_tool("info " + multi).exit_code, 0);
  const std::string out = tmp_path("pos-extract.snap");
  EXPECT_EQ(run_tool("extract 0 " + multi + " " + out).exit_code, 0);
  EXPECT_EQ(run_tool("info " + out).exit_code, 0);
}

/// A fresh empty directory under TempDir for the fleet-info cases.
std::string fleet_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "tool-fleet-" + name;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                            .c_str()),
            0);
  return dir;
}

TEST(Tool, FleetInfoRejectsADirectoryWithoutChainsTyped) {
  const std::string empty = fleet_dir("empty");
  expect_typed_failure(run_tool("fleet-info " + empty),
                       "fleet-info on an empty dir");
  const std::string ghost = testing::TempDir() + "tool-fleet-ghost-missing";
  std::system(("rm -rf '" + ghost + "'").c_str());
  expect_typed_failure(run_tool("fleet-info " + ghost),
                       "fleet-info on a missing dir");
}

TEST(Tool, FleetInfoFlagsAnUnrecoverableHostTyped) {
  const std::string dir = fleet_dir("garbage");
  write_garbage(dir + "/host-0.snap");
  const ToolResult res = run_tool("fleet-info " + dir);
  expect_typed_failure(res, "fleet-info with a garbage host chain");
  EXPECT_NE(res.output.find("UNRECOVERABLE"), std::string::npos)
      << res.output;
}

TEST(Tool, FleetInfoReportsHealthyAndTornHostsAndStopsAtTheGap) {
  const std::string dir = fleet_dir("mixed");
  const auto frames = golden::make_chain();
  // Host 0: a clean base + 2 deltas. Host 1: clean base with a torn delta
  // tail (salvageable). Host 3 exists but host 2 does not, so the
  // consecutive scan must stop at 2 and never report host 3.
  write_bytes(dir + "/host-0.snap", frames[0]);
  write_bytes(snapshot::delta_path(dir + "/host-0.snap", 1), frames[1]);
  write_bytes(snapshot::delta_path(dir + "/host-0.snap", 2), frames[2]);
  write_bytes(dir + "/host-1.snap", frames[0]);
  std::vector<std::uint8_t> torn = frames[1];
  torn.resize(torn.size() / 3);
  write_bytes(snapshot::delta_path(dir + "/host-1.snap", 1), torn);
  write_bytes(dir + "/host-3.snap", frames[0]);

  const ToolResult res = run_tool("fleet-info " + dir);
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("host 0: 3/3 frame(s) valid"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("host 1: 1/2 frame(s) valid"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("torn: dropped at"), std::string::npos)
      << res.output;
  EXPECT_NE(
      res.output.find("fleet: 2 host(s), 1 healthy, 1 torn (salvageable), "
                      "0 unrecoverable"),
      std::string::npos)
      << res.output;
  EXPECT_EQ(res.output.find("host 3"), std::string::npos) << res.output;
}

}  // namespace
}  // namespace sgxpl
