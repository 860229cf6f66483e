// The online watchdog's detection power (EnclaveConfig::watchdog_scan_
// interval). Mid-run under chaos, one entry of each structure the sweep
// guards is corrupted: a page-table slot, an EPC slot's page, a bitmap bit
// and an elastic tenant's resident count. A corrupted page the sweep logged
// must trip the next incremental sweep; one it did not log must trip the
// count checks or the next full sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "inject/chaos_plan.h"
#include "inject/fault_injector.h"
#include "sgxsim/driver.h"

namespace sgxpl::sgxsim {

/// Test-only window into Driver (a friend of it; defined only here).
struct DriverTestPeer {
  static bool logged(const Driver& d, PageNum p) {
    return std::any_of(d.wd_changes_.begin(), d.wd_changes_.end(),
                       [p](const auto& c) { return c.page == p; });
  }

  /// A resident page the change log saw mapped, or kInvalidPage.
  static PageNum logged_resident(const Driver& d) {
    for (const auto& c : d.wd_changes_) {
      if (c.mapped && d.page_table_.present(c.page)) {
        return c.page;
      }
    }
    return kInvalidPage;
  }

  /// The first page at or after `from` that is (or is not) resident and
  /// that the change log never saw, or kInvalidPage.
  static PageNum unlogged(const Driver& d, PageNum from, bool resident) {
    for (PageNum p = from; p < d.config_.elrange_pages; ++p) {
      if (d.page_table_.present(p) == resident && !logged(d, p)) {
        return p;
      }
    }
    return kInvalidPage;
  }

  /// Would sweep_now() run an incremental (not a full) sweep?
  static bool sweep_now_is_incremental(const Driver& d) {
    return !d.full_sweep_due();
  }

  /// stats.scans / interval at the last full sweep (0 until one ran).
  static std::uint64_t full_sweep_window(const Driver& d) {
    return d.wd_full_window_;
  }

  /// The sweep a chaos-injection boundary triggers on the next scan tick,
  /// run at the current scan count.
  static void sweep_now(Driver& d) {
    d.chaos_dirty_ = true;
    d.watchdog_tick(d.bookkept_until_);
  }

  static void corrupt_page_table_slot(Driver& d, PageNum p, PageNum q) {
    const SlotIndex other = d.page_table_.entry(q).slot;
    const PageTableEntry prior = d.page_table_.unmap(p);
    d.page_table_.map(p, other, prior.preloaded);
  }

  static void corrupt_epc_slot(Driver& d, PageNum p, PageNum absent) {
    d.epc_.release(d.page_table_.entry(p).slot);
    d.epc_.allocate(absent);  // the free list is LIFO: p's old slot
  }

  static void corrupt_bitmap(Driver& d, PageNum p, PageNum absent) {
    d.bitmap_.clear(p);
    d.bitmap_.set(absent);  // the population count stays right
  }

  static void corrupt_elastic_count(Driver& d, PageNum p) {
    d.elastic_.note_unmapped(p);
  }
};

namespace {

using Peer = DriverTestPeer;

constexpr PageNum kTenantPages = 256;
constexpr std::uint64_t kInterval = 8;

EnclaveConfig chaos_enclave() {
  EnclaveConfig cfg;
  cfg.elrange_pages = 2 * kTenantPages;
  cfg.epc_pages = 96;
  cfg.watchdog_scan_interval = kInterval;
  cfg.elastic.enabled = true;
  return cfg;
}

/// Two elastic tenants under the full chaos plan, with a skewed random
/// access stream dense enough that several loads commit per scan period.
class ChaosRun {
 public:
  ChaosRun() : inj_(inject::ChaosPlan::all(11)), d_(chaos_enclave(), {}) {
    d_.set_elastic_geometry({{0, kTenantPages}, {kTenantPages, kTenantPages}});
    d_.set_chaos(&inj_);
  }

  Driver& driver() { return d_; }

  void step() {
    const std::uint64_t t = rng_.bounded(2);
    const PageNum off = rng_.chance(0.7) ? rng_.bounded(48)
                                         : rng_.bounded(kTenantPages);
    const PageNum page = t * kTenantPages + off;
    now_ = d_.access(page, now_, static_cast<ProcessId>(t)).completion + 3'000;
  }

  /// Run well into the chaos schedule, then on until the next sweep is
  /// incremental and the change log holds a still-resident page; false if
  /// that never happens.
  bool run_to_mid_point() {
    for (int i = 0; i < 4'000; ++i) {
      step();
    }
    for (int i = 0; i < 4'000; ++i) {
      if (Peer::sweep_now_is_incremental(d_) &&
          Peer::logged_resident(d_) != kInvalidPage) {
        return true;
      }
      step();
    }
    return false;
  }

  /// Advance one scan period at a time with no new accesses (so nothing is
  /// loaded or evicted) until a CheckFailure surfaces; returns the scans
  /// that took (a stalled scan slips, so a period may hold none), or -1 if
  /// none did within `max_periods`.
  int scans_until_trip(int max_periods) {
    const std::uint64_t start = d_.stats().scans;
    for (int i = 0; i < max_periods; ++i) {
      now_ += CostModel{}.scan_period;
      try {
        d_.advance_to(now_);
      } catch (const CheckFailure&) {
        return static_cast<int>(d_.stats().scans - start);
      }
    }
    return -1;
  }

 private:
  inject::FaultInjector inj_;
  Driver d_;
  Rng rng_{5};
  Cycles now_ = 0;
};

enum class Target { kPageTableSlot, kEpcSlot, kBitmapBit, kElasticCount };

/// Corrupt `p`'s entry in `target`; `other` is a resident page (slot
/// corruption) and `absent` a non-resident one, neither logged.
void corrupt(Driver& d, Target target, PageNum p, PageNum other,
             PageNum absent) {
  switch (target) {
    case Target::kPageTableSlot:
      Peer::corrupt_page_table_slot(d, p, other);
      return;
    case Target::kEpcSlot:
      Peer::corrupt_epc_slot(d, p, absent);
      return;
    case Target::kBitmapBit:
      Peer::corrupt_bitmap(d, p, absent);
      return;
    case Target::kElasticCount:
      Peer::corrupt_elastic_count(d, p);
      return;
  }
}

class WatchdogMutation : public ::testing::TestWithParam<Target> {};

TEST_P(WatchdogMutation, ALoggedCorruptionTripsTheNextIncrementalSweep) {
  ChaosRun run;
  ASSERT_TRUE(run.run_to_mid_point());
  Driver& d = run.driver();
  ASSERT_GT(d.stats().watchdog_checks, 0u);
  ASSERT_GT(d.stats().scan_stalls + d.stats().squeeze_evictions, 0u)
      << "the chaos plan never fired";
  const PageNum p = Peer::logged_resident(d);
  const PageNum other = Peer::unlogged(d, 0, /*resident=*/true);
  const PageNum absent = Peer::unlogged(d, 0, /*resident=*/false);
  ASSERT_NE(other, kInvalidPage);
  ASSERT_NE(absent, kInvalidPage);
  corrupt(d, GetParam(), p, other, absent);
  ASSERT_TRUE(Peer::sweep_now_is_incremental(d));
  try {
    Peer::sweep_now(d);
    ADD_FAILURE() << "the incremental sweep missed the corruption";
  } catch (const CheckFailure& e) {
    if (GetParam() != Target::kElasticCount) {
      EXPECT_NE(std::string(e.what()).find("page " + std::to_string(p)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_P(WatchdogMutation, AnUnloggedCorruptionTripsByTheNextFullSweep) {
  ChaosRun run;
  ASSERT_TRUE(run.run_to_mid_point());
  Driver& d = run.driver();
  const PageNum p = Peer::unlogged(d, 0, /*resident=*/true);
  ASSERT_NE(p, kInvalidPage);
  const PageNum other = Peer::unlogged(d, p + 1, /*resident=*/true);
  const PageNum absent = Peer::unlogged(d, 0, /*resident=*/false);
  ASSERT_NE(other, kInvalidPage);
  ASSERT_NE(absent, kInvalidPage);
  corrupt(d, GetParam(), p, other, absent);
  ASSERT_TRUE(Peer::sweep_now_is_incremental(d));
  if (GetParam() == Target::kElasticCount) {
    // A count moved: the O(1) count checks see it on the next sweep.
    EXPECT_THROW(Peer::sweep_now(d), CheckFailure);
    return;
  }
  // Every count still agrees, so the incremental sweep cannot see it...
  EXPECT_NO_THROW(Peer::sweep_now(d));
  // ...but the first sweep in the next interval window is full: within two
  // intervals of scans (one to reach the window, one for a sweep to fall
  // due), the run trips.
  const int scans = run.scans_until_trip(4 * static_cast<int>(kInterval));
  EXPECT_GT(scans, 0) << "no sweep caught the corruption";
  EXPECT_LE(scans, 2 * static_cast<int>(kInterval));
  // And whatever the schedule, the end-of-run check does.
  EXPECT_THROW(d.check_invariants(), CheckFailure);
}

INSTANTIATE_TEST_SUITE_P(
    Structures, WatchdogMutation,
    ::testing::Values(Target::kPageTableSlot, Target::kEpcSlot,
                      Target::kBitmapBit, Target::kElasticCount),
    [](const ::testing::TestParamInfo<Target>& param) {
      switch (param.param) {
        case Target::kPageTableSlot:
          return "PageTableSlot";
        case Target::kEpcSlot:
          return "EpcSlot";
        case Target::kBitmapBit:
          return "BitmapBit";
        case Target::kElasticCount:
          return "ElasticCount";
      }
      return "Unknown";
    });

TEST(Watchdog, AnUncorruptedChaosRunPassesEverySweep) {
  // No false alarms from either kind of sweep, and both kinds run.
  ChaosRun run;
  Driver& d = run.driver();
  int incremental = 0;
  for (int i = 0; i < 3'000; ++i) {
    run.step();
    if (i % 50 == 0 && Peer::sweep_now_is_incremental(d)) {
      ++incremental;
      ASSERT_NO_THROW(Peer::sweep_now(d));
    }
  }
  EXPECT_GT(incremental, 0);
  EXPECT_GT(Peer::full_sweep_window(d), 0u);
  EXPECT_NO_THROW(d.check_invariants());
}

}  // namespace
}  // namespace sgxpl::sgxsim
