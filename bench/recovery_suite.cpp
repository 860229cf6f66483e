// Recovery suite: the kill-restore differential harness at bench scale
// (docs/ROBUSTNESS.md, "Checkpoint & recovery").
//
// For every scheme x fault class the suite runs a reference simulation to
// completion, then replays it three times with a kill at an adversarial
// access boundary (first access, midpoint, last access): the victim run is
// snapshotted, destroyed, and restored into a fresh run that finishes the
// trace. The resulting Metrics — every counter, including the nested driver
// and injection statistics — must be bit-identical to the reference; any
// divergence is localized to its first differing field and fails the suite
// (non-zero exit). A corruption drill rides along: systematically truncated
// and bit-flipped snapshots must all be rejected with a diagnostic error,
// never applied or crash.
//
// A delta-chain grid rides along (snapshot format v2): the same schemes are
// checkpointed through a Snapshotter with full_every > 1, every chain is
// restored at every cut and must reserialize bit-identically to the victim,
// and the bytes written by the delta policy are compared against writing a
// full snapshot at every checkpoint ("delta_bytes_reduction" in --json).
// A chain whose restore diverges is dumped frame-by-frame into --fail-dir
// for CI artifact upload.
//
// --checkpoint/--resume exercise the same machinery through the file-based
// SimConfig::checkpoint path.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "inject/chaos_plan.h"
#include "sip/pipeline.h"
#include "snapshot/chain.h"
#include "snapshot/snapshotter.h"
#include "trace/generators.h"
#include "trace/workloads.h"

using namespace sgxpl;

namespace {

constexpr const char* kWorkload = "mcf";

struct Verdict {
  bool pass = true;
  std::string detail;  // first divergence when failing
};

/// Step a victim run to `cut`, snapshot it, destroy it (the "kill"), then
/// restore the snapshot into a fresh run and finish that one.
core::Metrics run_killed_at(const core::SimConfig& cfg, const trace::Trace& t,
                            const sip::InstrumentationPlan* plan,
                            std::uint64_t cut) {
  std::vector<std::uint8_t> snap;
  {
    core::SimulationRun victim(cfg, t, plan);
    while (!victim.done() && victim.cursor() < cut) {
      victim.step();
    }
    snap = victim.save_bytes();
  }
  core::SimulationRun resumed(cfg, t, plan);
  resumed.load_bytes(snap);
  return resumed.run_to_end();
}

Verdict differential(const core::SimConfig& cfg, const trace::Trace& t,
                     const sip::InstrumentationPlan* plan) {
  core::SimulationRun ref(cfg, t, plan);
  const auto want = ref.run_to_end();
  const std::uint64_t n = t.size();
  for (const std::uint64_t cut : {std::uint64_t{1}, n / 2, n - 1}) {
    const auto got = run_killed_at(cfg, t, plan, cut);
    const auto d = snapshot::diff_metrics(want, got);
    if (!d.identical) {
      return {false,
              "cut " + std::to_string(cut) + ": " + d.first_divergence};
    }
  }
  return {};
}

core::SimConfig scheme_cfg(core::Scheme scheme,
                           const inject::ChaosPlan& plan) {
  core::SimConfig cfg = bench::bench_platform(scheme);
  cfg.chaos = plan;
  cfg.validate = true;
  cfg.checkpoint = core::CheckpointOptions{};  // the harness snapshots itself
  return cfg;
}

struct DeltaVerdict {
  bool pass = true;
  std::string detail;
  std::uint64_t full_bytes = 0;   // full snapshot at every checkpoint
  std::uint64_t delta_bytes = 0;  // what the delta policy actually wrote
};

/// Checkpoint a run through a delta-emitting Snapshotter; at every cut,
/// restore the live chain into a fresh run and require the restored state
/// to reserialize bit-identically to the victim. Accounts bytes written by
/// the delta policy against a full-snapshot-every-checkpoint policy. On
/// divergence, dumps the chain's frames into --fail-dir (when given).
DeltaVerdict delta_differential(const core::SimConfig& cfg,
                                const trace::Trace& t,
                                const sip::InstrumentationPlan* plan,
                                std::uint64_t full_every,
                                std::uint64_t cadence,
                                const std::string& tag) {
  DeltaVerdict v;
  core::SimulationRun victim(cfg, t, plan);
  snapshot::Snapshotter<core::SimulationRun> snap(full_every);
  std::vector<std::vector<std::uint8_t>> chain;
  while (!victim.done()) {
    victim.step();
    if (victim.cursor() % cadence != 0) {
      continue;
    }
    const snapshot::ChainFrame frame = snap.checkpoint(victim);
    if (frame.header.kind == snapshot::FrameKind::kFull) {
      chain.clear();
    }
    chain.push_back(frame.bytes);
    v.delta_bytes += frame.bytes.size();
    const std::vector<std::uint8_t> reference = victim.save_bytes();
    v.full_bytes += reference.size();
    core::SimulationRun restored(cfg, t, plan);
    try {
      snapshot::restore_chain(restored, chain);
    } catch (const CheckFailure& e) {
      v.pass = false;
      v.detail = "cut " + std::to_string(victim.cursor()) +
                 ": chain restore threw: " + e.what();
    }
    if (v.pass && restored.save_bytes() != reference) {
      const auto d = snapshot::diff(restored.save_bytes(), reference);
      v.pass = false;
      v.detail = "cut " + std::to_string(victim.cursor()) + ": " +
                 (d.identical ? "restored state reserialized differently"
                              : d.first_divergence);
    }
    if (!v.pass) {
      if (!bench::fail_dir().empty()) {
        for (std::size_t i = 0; i < chain.size(); ++i) {
          std::ostringstream name;
          name << bench::fail_dir() << "/" << tag << "."
               << (i == 0 ? "base" : "delta-" + std::to_string(i)) << ".snap";
          snapshot::write_file_atomic(name.str(), chain[i]);
        }
      }
      return v;
    }
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv,
      "recovery_suite",
      "Robustness: kill-restore differential per scheme and fault class");

  const auto opts = bench::bench_options();
  const std::uint64_t seed = bench::chaos_plan().seed;
  const auto* w = trace::find_workload(kWorkload);
  SGXPL_CHECK(w != nullptr);
  const trace::Trace t = w->make(trace::ref_params(opts.scale));

  sip::InstrumentationPlan sip_plan;
  if (w->info.sip_supported) {
    sip_plan = sip::compile_workload(*w, bench::bench_platform().sip,
                                     trace::train_params(opts.train_scale))
                   .plan;
  }

  const std::vector<std::pair<std::string, core::Scheme>> schemes = {
      {"baseline", core::Scheme::kBaseline},
      {"DFP-stop", core::Scheme::kDfpStop},
      {"SIP+DFP", core::Scheme::kHybrid}};

  std::vector<std::pair<std::string, inject::ChaosPlan>> plans;
  plans.emplace_back("(none)", inject::ChaosPlan{});
  for (const inject::FaultKind k : inject::all_fault_kinds()) {
    inject::ChaosPlan plan;
    plan.seed = seed;
    plan.enable(k);
    plans.emplace_back(inject::to_string(k), plan);
  }
  plans.emplace_back("all", inject::ChaosPlan::all(seed));

  std::uint64_t failures = 0;
  std::vector<std::string> divergences;
  TextTable tbl({"fault class", "baseline", "DFP-stop", "SIP+DFP"});
  for (const auto& [plan_name, plan] : plans) {
    std::vector<std::string> row{plan_name};
    for (const auto& [scheme_name, scheme] : schemes) {
      const Verdict v =
          differential(scheme_cfg(scheme, plan), t, &sip_plan);
      row.push_back(v.pass ? "PASS" : "FAIL");
      if (!v.pass) {
        ++failures;
        divergences.push_back(plan_name + " / " + scheme_name + ": " +
                              v.detail);
      }
    }
    tbl.add_row(row);
  }
  std::cout << "Kill-restore differential on " << kWorkload << " ("
            << t.size() << " accesses; cuts at first/mid/last):\n";
  bench::print_table("kill_restore", tbl);
  for (const auto& d : divergences) {
    std::cout << "DIVERGENCE: " << d << "\n";
  }
  bench::add_scalar("kill_restore_failures",
                    static_cast<double>(failures));

  // Delta-chain grid: scheme x fault class x full_every, every chain
  // restored at every cut and byte-accounted against full-every-checkpoint.
  {
    const std::vector<std::pair<std::string, inject::ChaosPlan>> delta_plans =
        {{"(none)", inject::ChaosPlan{}},
         {"all", inject::ChaosPlan::all(seed)}};
    std::uint64_t full_bytes = 0;
    std::uint64_t delta_bytes = 0;
    std::uint64_t chain_failures = 0;
    std::vector<std::string> chain_divergences;
    TextTable dtbl({"scheme", "fault class", "full-every", "full bytes",
                    "delta bytes", "reduction", "verdict"});
    for (const auto& [scheme_name, scheme] : schemes) {
      for (const auto& [plan_name, plan] : delta_plans) {
        for (const std::uint64_t full_every : {std::uint64_t{4},
                                               std::uint64_t{8}}) {
          std::string tag = scheme_name + "-" + plan_name + "-fe" +
                            std::to_string(full_every);
          std::replace(tag.begin(), tag.end(), '/', '_');
          const DeltaVerdict v = delta_differential(
              scheme_cfg(scheme, plan), t, &sip_plan, full_every,
              std::max<std::uint64_t>(1, t.size() / 24), tag);
          full_bytes += v.full_bytes;
          delta_bytes += v.delta_bytes;
          if (!v.pass) {
            ++chain_failures;
            chain_divergences.push_back(tag + ": " + v.detail);
          }
          std::ostringstream reduction;
          reduction.precision(2);
          reduction << std::fixed
                    << (v.delta_bytes > 0
                            ? static_cast<double>(v.full_bytes) /
                                  static_cast<double>(v.delta_bytes)
                            : 0.0)
                    << "x";
          dtbl.add_row({scheme_name, plan_name, std::to_string(full_every),
                        std::to_string(v.full_bytes),
                        std::to_string(v.delta_bytes), reduction.str(),
                        v.pass ? "PASS" : "FAIL"});
        }
      }
    }
    std::cout << "\nDelta-chain differential (every chain restored at every "
                 "cut, bit-identical reserialization required):\n";
    bench::print_table("delta_chain", dtbl);
    for (const auto& d : chain_divergences) {
      std::cout << "CHAIN DIVERGENCE: " << d << "\n";
    }
    const double reduction =
        delta_bytes > 0 ? static_cast<double>(full_bytes) /
                              static_cast<double>(delta_bytes)
                        : 0.0;
    std::cout << "Delta policy wrote " << (delta_bytes / 1024)
              << " KiB where full-every-checkpoint writes "
              << (full_bytes / 1024) << " KiB (" << reduction
              << "x reduction)\n";
    bench::add_scalar("delta_chain_failures",
                      static_cast<double>(chain_failures));
    bench::add_scalar("delta_grid_bytes_reduction", reduction);
    failures += chain_failures;
  }

  // Long-trace delta economics — the regime delta chains exist for: a
  // footprint far beyond the EPC, scanned repeatedly over a long trace and
  // checkpointed every 1024 accesses. Full snapshots carry the whole page
  // table and backing store every tick; deltas carry one window's churn.
  // Restore-equivalence is still enforced at every cut. (Deliberately not
  // scaled by SGXPL_SCALE: the ratio is a format property, not a
  // workload-size property.)
  {
    constexpr PageNum kLongPages = 32768;
    trace::Trace lt("delta-longtrace", kLongPages);
    Rng rng(1);
    const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0};
    for (int pass = 0; pass < 4; ++pass) {
      trace::seq_scan(lt, rng, trace::Region{0, kLongPages}, 1, gap);
    }
    core::SimConfig cfg =
        scheme_cfg(core::Scheme::kDfpStop, inject::ChaosPlan{});
    cfg.enclave.epc_pages = 4096;
    const DeltaVerdict v = delta_differential(cfg, lt, nullptr, 16, 1024,
                                              "longtrace-DFP-stop-fe16");
    const double reduction =
        v.delta_bytes > 0 ? static_cast<double>(v.full_bytes) /
                                static_cast<double>(v.delta_bytes)
                          : 0.0;
    std::cout << "\nLong-trace checkpoint_every run (" << lt.size()
              << " accesses over " << kLongPages
              << " pages, EPC 4096, checkpoint every 1024, full every 16):\n"
              << "  delta policy wrote " << (v.delta_bytes / 1024)
              << " KiB where full-every-checkpoint writes "
              << (v.full_bytes / 1024) << " KiB (" << reduction
              << "x reduction)\n";
    if (!v.pass) {
      ++failures;
      std::cout << "CHAIN DIVERGENCE: longtrace: " << v.detail << "\n";
    }
    bench::add_scalar("delta_bytes_reduction", reduction);
  }

  // Corruption drill: systematically truncated and bit-flipped snapshots
  // must every one be rejected with a diagnostic error — never applied.
  {
    const auto cfg = scheme_cfg(core::Scheme::kDfpStop, plans.back().second);
    core::SimulationRun victim(cfg, t, nullptr);
    const std::uint64_t stop = std::min<std::uint64_t>(t.size() / 2, 5'000);
    while (!victim.done() && victim.cursor() < stop) {
      victim.step();
    }
    const auto snap = victim.save_bytes();
    std::uint64_t trials = 0;
    std::uint64_t rejected = 0;
    for (std::size_t n = 0; n < snap.size(); n += 97) {  // truncations
      ++trials;
      const std::vector<std::uint8_t> cut(
          snap.begin(), snap.begin() + static_cast<std::ptrdiff_t>(n));
      core::SimulationRun fresh(cfg, t, nullptr);
      try {
        fresh.load_bytes(cut);
      } catch (const CheckFailure&) {
        ++rejected;
      }
    }
    for (std::size_t at = 0; at < snap.size(); at += 101) {  // bit flips
      ++trials;
      auto flipped = snap;
      flipped[at] ^= 0x20;
      core::SimulationRun fresh(cfg, t, nullptr);
      try {
        fresh.load_bytes(flipped);
      } catch (const CheckFailure&) {
        ++rejected;
      }
    }
    std::cout << "Corruption drill: " << rejected << "/" << trials
              << " corrupted snapshots rejected ("
              << (snap.size() / 1024) << " KiB snapshot)\n";
    bench::add_scalar("corruptions_rejected",
                      static_cast<double>(rejected));
    if (rejected != trials) {
      std::cerr << "error: " << (trials - rejected)
                << " corrupted snapshots were accepted\n";
      ++failures;
    }
  }

  // File path: when --checkpoint/--resume were given, run the one-shot
  // simulator so the flags drive real snapshot writes/restores.
  const auto& ck = bench::checkpoint_options();
  if (!ck.path.empty() || !ck.resume_path.empty()) {
    core::SimConfig cfg = bench::bench_platform(core::Scheme::kDfpStop);
    cfg.validate = true;
    const auto m = core::simulate(t, cfg);
    std::cout << "--checkpoint/--resume run finished: " << m.total_cycles
              << " cycles over " << m.accesses << " accesses\n";
  }

  const int rc = bench::finish();
  if (failures > 0) {
    std::cerr << "recovery_suite: " << failures << " check(s) FAILED\n";
    return 1;
  }
  return rc;
}
