// The O(changes) PreloadedPageList against the whole-set walk it replaced.
//
// ReferenceList is that walk, kept here as a test-only model: an
// unordered_set of outstanding preloads that every scan tick walks in
// full. OracleTap sits between a real run's driver and its preload policy.
// It forwards every hook unchanged, feeds the reference the same
// completions and evictions, and after every scan tick compares the
// reference with the run's real list: PreloadCounter, AccPreloadCounter,
// the evicted-unused count, the tracked count and the sorted page set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "dfp/dfp_engine.h"
#include "dfp/preloaded_page_list.h"
#include "inject/chaos_plan.h"
#include "sgxsim/driver.h"
#include "sgxsim/page_table.h"
#include "sgxsim/preload_policy.h"
#include "sip/instrumenter.h"
#include "trace/generators.h"

namespace sgxpl::sgxsim {

/// Test-only window into Driver (a friend of it; defined only here).
struct DriverTestPeer {
  /// Put `tap` between the driver and its policy; returns the policy.
  static PreloadPolicy* interpose(Driver& d, PreloadPolicy* tap) {
    return std::exchange(d.policy_, tap);
  }
};

}  // namespace sgxpl::sgxsim

namespace sgxpl {
namespace {

/// The whole-set walk: every tick re-checks every outstanding preload.
class ReferenceList {
 public:
  void on_loaded(PageNum page) {
    pages_.insert(page);
    ++preload_counter_;
  }

  void on_evicted(PageNum page) {
    if (pages_.erase(page) > 0) {
      ++evicted_unused_;
    }
  }

  void scan(const sgxsim::PageTable& pt) {
    for (auto it = pages_.begin(); it != pages_.end();) {
      const PageNum page = *it;
      if (page >= pt.elrange_pages() || !pt.present(page)) {
        it = pages_.erase(it);
        ++evicted_unused_;
        continue;
      }
      const auto& entry = pt.entry(page);
      if (entry.accessed || !entry.preloaded) {
        ++acc_preload_counter_;
        it = pages_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<PageNum> sorted() const {
    std::vector<PageNum> out(pages_.begin(), pages_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::uint64_t preload_counter() const { return preload_counter_; }
  std::uint64_t acc_preload_counter() const { return acc_preload_counter_; }
  std::uint64_t evicted_unused() const { return evicted_unused_; }
  std::size_t tracked() const { return pages_.size(); }

 private:
  std::unordered_set<PageNum> pages_;
  std::uint64_t preload_counter_ = 0;
  std::uint64_t acc_preload_counter_ = 0;
  std::uint64_t evicted_unused_ = 0;
};

/// How `real` differs from `ref`, or "" when they agree.
std::string mismatch(const dfp::PreloadedPageList& real,
                     const ReferenceList& ref) {
  std::ostringstream os;
  if (real.preload_counter() != ref.preload_counter()) {
    os << " preload_counter " << real.preload_counter() << " vs "
       << ref.preload_counter() << ";";
  }
  if (real.acc_preload_counter() != ref.acc_preload_counter()) {
    os << " acc_preload_counter " << real.acc_preload_counter() << " vs "
       << ref.acc_preload_counter() << ";";
  }
  if (real.evicted_unused() != ref.evicted_unused()) {
    os << " evicted_unused " << real.evicted_unused() << " vs "
       << ref.evicted_unused() << ";";
  }
  if (real.tracked() != ref.tracked()) {
    os << " tracked " << real.tracked() << " vs " << ref.tracked() << ";";
  }
  if (real.pages() != ref.sorted()) {
    os << " page sets differ;";
  }
  return os.str();
}

/// Forwards every hook to the run's policy and drives a ReferenceList
/// with the DFP engine's share of the events (pages in [lo, hi)).
class OracleTap final : public sgxsim::PreloadPolicy {
 public:
  OracleTap(sgxsim::PreloadPolicy* inner, const dfp::DfpEngine* engine,
            PageNum lo, PageNum hi, ReferenceList ref = {})
      : inner_(inner), engine_(engine), lo_(lo), hi_(hi),
        ref_(std::move(ref)) {}

  std::vector<PageNum> on_fault(ProcessId pid, PageNum page,
                                Cycles now) override {
    return inner_->on_fault(pid, page, now);
  }
  void on_preload_completed(PageNum page, Cycles now) override {
    inner_->on_preload_completed(page, now);
    if (mine(page)) {
      ref_.on_loaded(page);
    }
  }
  void on_preloads_aborted(const std::vector<PageNum>& pages,
                           Cycles now) override {
    inner_->on_preloads_aborted(pages, now);
  }
  void on_preloads_shed(const std::vector<PageNum>& pages,
                        Cycles now) override {
    inner_->on_preloads_shed(pages, now);
  }
  void on_preloaded_page_evicted(PageNum page, bool was_accessed,
                                 Cycles now) override {
    inner_->on_preloaded_page_evicted(page, was_accessed, now);
    if (mine(page)) {
      ref_.on_evicted(page);
    }
  }
  void on_preloaded_page_touched(PageNum page) override {
    inner_->on_preloaded_page_touched(page);
  }
  void on_state_lost(Cycles now) override { inner_->on_state_lost(now); }

  void on_scan(const sgxsim::PageTable& pt, Cycles now) override {
    const std::uint64_t credited_before = ref_.acc_preload_counter();
    inner_->on_scan(pt, now);
    ref_.scan(pt);
    ++ticks_;
    credits_ += ref_.acc_preload_counter() - credited_before;
    if (first_mismatch_.empty()) {
      const std::string m = mismatch(engine_->preloaded_pages(), ref_);
      if (!m.empty()) {
        first_mismatch_ = "tick " + std::to_string(ticks_) + " at cycle " +
                          std::to_string(now) + ":" + m;
      }
    }
  }

  const ReferenceList& reference() const { return ref_; }
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t credits() const { return credits_; }
  /// The first tick at which the lists disagreed, or "" if none did.
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  bool mine(PageNum page) const { return page >= lo_ && page < hi_; }

  sgxsim::PreloadPolicy* inner_;
  const dfp::DfpEngine* engine_;
  PageNum lo_;
  PageNum hi_;
  ReferenceList ref_;
  std::uint64_t ticks_ = 0;
  std::uint64_t credits_ = 0;
  std::string first_mismatch_;
};

constexpr PageNum kElrange = 640;
constexpr SiteId kSipSiteBase = 10;

/// A random mix of streams, strided sweeps, stream-baiting short runs and
/// uniform noise, so preloads are used early, used late, and wasted.
trace::Trace random_trace(std::uint64_t seed) {
  Rng rng(seed);
  trace::Trace t("oracle-" + std::to_string(seed), kElrange);
  const trace::GapModel gap{.mean = 500 + rng.bounded(3'000),
                            .jitter_pct = 0.25};
  for (int phase = 0; phase < 6; ++phase) {
    switch (rng.bounded(4)) {
      case 0:
        trace::seq_scan(t, rng,
                        trace::Region{rng.bounded(320), 64 + rng.bounded(256)},
                        1, gap, 1 + rng.bounded(2), 0.02);
        break;
      case 1:
        trace::multi_stream_scan(t, rng, trace::Region{0, 512},
                                 2 + rng.bounded(3), 20, gap,
                                 1 + rng.bounded(4), 0.01);
        break;
      case 2:
        trace::random_access(t, rng, trace::Region{0, kElrange},
                             150 + rng.bounded(250), kSipSiteBase, 4, gap);
        break;
      default:
        trace::short_sequential_runs(t, rng, trace::Region{0, kElrange},
                                     30 + rng.bounded(50), 8, 30, 4, gap);
        break;
    }
  }
  return t;
}

sip::InstrumentationPlan random_access_plan() {
  sip::InstrumentationPlan plan;
  for (SiteId s = kSipSiteBase; s < kSipSiteBase + 4; ++s) {
    plan.add_site(s);
  }
  return plan;
}

struct Variant {
  const char* name;
  core::Scheme scheme;
  bool chaos;
  bool hardened;  // bounded channel with retries
};

core::SimConfig oracle_config(const Variant& v, std::uint64_t seed) {
  Rng rng(seed ^ 0x0dfc0ffee);
  core::SimConfig cfg;
  cfg.scheme = v.scheme;
  cfg.enclave.epc_pages = 48 + rng.bounded(96);  // overcommitted
  // Short, varied periods: many ticks, and preloads that wait out several.
  cfg.costs.scan_period = 30'000 + rng.bounded(400'000);
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 2 + rng.bounded(6);
  cfg.dfp.stop_slack = 8 + rng.bounded(64);  // lets DFP-stop fire
  if (v.chaos) {
    cfg.chaos = inject::ChaosPlan::all(seed);
  }
  if (v.hardened) {
    cfg.enclave.channel.max_queued = 16;
    cfg.enclave.channel.preload_high_water = 12;
    cfg.enclave.channel.max_retries = 3;
  }
  cfg.validate = true;
  return cfg;
}

const Variant kVariants[] = {
    {"dfp", core::Scheme::kDfp, false, false},
    {"dfp/chaos", core::Scheme::kDfp, true, false},
    {"dfpstop", core::Scheme::kDfpStop, false, false},
    {"dfpstop/chaos", core::Scheme::kDfpStop, true, false},
    {"hybrid", core::Scheme::kHybrid, false, false},
    {"hybrid/chaos", core::Scheme::kHybrid, true, false},
    {"dfpstop/hardened", core::Scheme::kDfpStop, false, true},
    {"dfpstop/hardened+chaos", core::Scheme::kDfpStop, true, true},
};

constexpr std::uint64_t kSeeds[] = {3, 17, 40, 91};

/// A SimulationRun with an OracleTap in front of its DFP engine.
struct TappedRun {
  TappedRun(const core::SimConfig& cfg, const trace::Trace& t,
            const sip::InstrumentationPlan* plan, ReferenceList ref = {})
      : run(cfg, t, plan),
        tap(sgxsim::DriverTestPeer::interpose(run.driver(), &tap),
            run.engine(), 0, t.elrange_pages(), std::move(ref)) {}

  core::SimulationRun run;
  OracleTap tap;
};

TEST(PreloadOracle, SingleEnclaveRunsMatchTheWholeSetWalk) {
  const sip::InstrumentationPlan plan = random_access_plan();
  std::uint64_t ticks = 0;
  std::uint64_t credits = 0;
  std::uint64_t unused = 0;
  for (const Variant& v : kVariants) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string(v.name) + " seed " + std::to_string(seed));
      const trace::Trace t = random_trace(seed);
      TappedRun r(oracle_config(v, seed), t, &plan);
      ASSERT_NE(r.run.engine(), nullptr);
      while (!r.run.done()) {
        r.run.step();
      }
      EXPECT_EQ(r.tap.first_mismatch(), "");
      EXPECT_GT(r.tap.ticks(), 20u);
      ticks += r.tap.ticks();
      credits += r.tap.credits();
      unused += r.tap.reference().evicted_unused();
    }
  }
  // The sweep exercises every branch of the predicate.
  EXPECT_GT(credits, 1'000u);
  EXPECT_GT(unused, 100u);
  EXPECT_GT(ticks, 1'000u);
}

TEST(PreloadOracle, DfpTenantBesideBaselineCoTenantsMatches) {
  for (const bool chaos : {false, true}) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string(chaos ? "chaos" : "clean") + " seed " +
                   std::to_string(seed));
      const trace::Trace dfp_trace = random_trace(seed);
      const trace::Trace co_a = random_trace(seed + 1'000);
      const trace::Trace co_b = random_trace(seed + 2'000);
      core::SimConfig cfg = oracle_config(
          {"multi", core::Scheme::kDfpStop, chaos, false}, seed);
      cfg.enclave.epc_pages *= 2;  // shared by three tenants
      core::MultiEnclaveRun run(
          cfg, {core::EnclaveApp{&dfp_trace, core::Scheme::kDfpStop},
                core::EnclaveApp{&co_a, core::Scheme::kBaseline},
                core::EnclaveApp{&co_b, core::Scheme::kBaseline}});
      ASSERT_NE(run.tenant_engine(0), nullptr);
      ASSERT_EQ(run.tenant_engine(1), nullptr);
      OracleTap tap(sgxsim::DriverTestPeer::interpose(run.driver(), &tap),
                    run.tenant_engine(0), 0, dfp_trace.elrange_pages());
      while (!run.done()) {
        run.step();
      }
      EXPECT_EQ(tap.first_mismatch(), "");
      EXPECT_GT(tap.ticks(), 20u);
      EXPECT_GT(tap.credits(), 0u);
    }
  }
}

TEST(PreloadOracle, RestoresAtRandomCutsMatch) {
  const sip::InstrumentationPlan plan = random_access_plan();
  const Variant restored[] = {kVariants[0], kVariants[3], kVariants[4],
                              kVariants[7]};
  for (const Variant& v : restored) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string(v.name) + " seed " + std::to_string(seed));
      const trace::Trace t = random_trace(seed);
      const core::SimConfig cfg = oracle_config(v, seed);
      Rng cuts(seed * 7 + 1);
      auto live = std::make_unique<TappedRun>(cfg, t, &plan);
      std::vector<std::uint64_t> restored_at;
      while (!live->run.done()) {
        live->run.step();
        if (live->run.done() || !cuts.chance(0.004)) {
          continue;
        }
        // Hand the run over to a fresh one restored from its snapshot;
        // the reference continues from the state it had at the cut.
        ASSERT_EQ(live->tap.first_mismatch(), "");
        const std::vector<std::uint8_t> bytes = live->run.save_bytes();
        auto next =
            std::make_unique<TappedRun>(cfg, t, &plan, live->tap.reference());
        next->run.load_bytes(bytes);
        ASSERT_EQ(next->run.save_bytes(), bytes);
        restored_at.push_back(live->run.cursor());
        live = std::move(next);
      }
      EXPECT_EQ(live->tap.first_mismatch(), "")
          << "after restores at " << restored_at.size() << " cuts";
      EXPECT_GE(restored_at.size(), 2u);
    }
  }
}

// The list's own contract, without a driver: it re-checks every page loaded
// since the last scan, so a first touch needs reporting only for a page
// that was already listed at the last scan. Touches of newer pages are
// reported or not at random, as in unit tests that touch the page table
// directly.
TEST(PreloadOracle, DirectEventsMatchTheWholeSetWalk) {
  constexpr PageNum kPages = 96;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sgxsim::PageTable pt(kPages);
    dfp::PreloadedPageList real;
    ReferenceList ref;
    std::vector<bool> loaded_since_scan(kPages, false);
    SlotIndex next_slot = 0;
    for (int op = 0; op < 20'000; ++op) {
      const PageNum page = rng.bounded(kPages);
      switch (rng.bounded(6)) {
        case 0:  // a preload or a demand load lands
          if (!pt.present(page)) {
            const bool preload = rng.chance(0.7);
            pt.map(page, next_slot++, preload);
            if (preload) {
              real.on_loaded(page);
              ref.on_loaded(page);
              loaded_since_scan[page] = true;
            }
          }
          break;
        case 1:
        case 2:  // an access
          if (pt.present(page) && pt.touch(page) &&
              (!loaded_since_scan[page] || rng.chance(0.5))) {
            real.on_touched(page);
          }
          break;
        case 3:  // CLOCK consumes the access bit
          if (pt.present(page)) {
            pt.test_and_clear_accessed(page);
          }
          break;
        case 4:  // eviction
          if (pt.present(page) && pt.unmap(page).preloaded) {
            real.on_evicted(page);
            ref.on_evicted(page);
          }
          break;
        default:
          if (rng.chance(0.2)) {
            real.scan(pt);
            ref.scan(pt);
            std::fill(loaded_since_scan.begin(), loaded_since_scan.end(),
                      false);
            ASSERT_EQ(mismatch(real, ref), "") << "at op " << op;
          }
          break;
      }
    }
    EXPECT_GT(ref.acc_preload_counter(), 100u);
    EXPECT_GT(ref.evicted_unused(), 100u);
  }
}

}  // namespace
}  // namespace sgxpl
