#include "sgxsim/driver.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sgxsim/chaos_hooks.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {
namespace {

CostModel test_costs() {
  CostModel c;
  c.aex = 10'000;
  c.eresume = 10'000;
  c.epc_load = 44'000;
  c.epc_evict = 4'000;
  c.scan_period = 1'000'000'000;  // effectively off unless a test wants it
  return c;
}

EnclaveConfig small_enclave(PageNum elrange = 64, PageNum epc = 4) {
  EnclaveConfig cfg;
  cfg.elrange_pages = elrange;
  cfg.epc_pages = epc;
  return cfg;
}

/// Scripted policy: returns a fixed prediction per faulted page and records
/// every callback.
class FakePolicy final : public PreloadPolicy {
 public:
  std::map<PageNum, std::vector<PageNum>> predictions;
  std::vector<PageNum> faults_seen;
  std::vector<PageNum> completed;
  std::vector<PageNum> aborted;
  std::vector<PageNum> shed;
  std::vector<PageNum> evicted_unused;
  int scans = 0;

  std::vector<PageNum> on_fault(ProcessId, PageNum page, Cycles) override {
    faults_seen.push_back(page);
    const auto it = predictions.find(page);
    return it == predictions.end() ? std::vector<PageNum>{} : it->second;
  }
  void on_preload_completed(PageNum page, Cycles) override {
    completed.push_back(page);
  }
  void on_preloads_aborted(const std::vector<PageNum>& pages,
                           Cycles) override {
    aborted.insert(aborted.end(), pages.begin(), pages.end());
  }
  void on_preloads_shed(const std::vector<PageNum>& pages, Cycles) override {
    shed.insert(shed.end(), pages.begin(), pages.end());
  }
  void on_preloaded_page_evicted(PageNum page, bool, Cycles) override {
    evicted_unused.push_back(page);
  }
  void on_scan(const PageTable&, Cycles) override { ++scans; }
};

TEST(Driver, ColdAccessPaysFullFaultCost) {
  Driver d(small_enclave(), test_costs());
  const auto out = d.access(5, 1000);
  EXPECT_TRUE(out.faulted);
  // AEX + load + ERESUME, no eviction while the EPC has free slots.
  EXPECT_EQ(out.completion, 1000u + 10'000 + 44'000 + 10'000);
  EXPECT_EQ(d.stats().faults, 1u);
  EXPECT_EQ(d.stats().demand_loads, 1u);
  EXPECT_EQ(d.stats().evictions, 0u);
  d.check_invariants();
}

TEST(Driver, ResidentAccessIsFree) {
  Driver d(small_enclave(), test_costs());
  const auto first = d.access(5, 0);
  const auto second = d.access(5, first.completion + 100);
  EXPECT_FALSE(second.faulted);
  EXPECT_EQ(second.completion, first.completion + 100);
  EXPECT_EQ(d.stats().faults, 1u);
}

TEST(Driver, AccessSetsAccessBit) {
  Driver d(small_enclave(), test_costs());
  const auto out = d.access(3, 0);
  EXPECT_TRUE(d.page_table().entry(3).accessed);
  d.access(3, out.completion + 1);
  EXPECT_TRUE(d.page_table().entry(3).accessed);
}

TEST(Driver, EvictionWhenEpcFull) {
  Driver d(small_enclave(64, /*epc=*/2), test_costs());
  Cycles now = 0;
  for (PageNum p = 0; p < 3; ++p) {
    now = d.access(p, now).completion;
  }
  EXPECT_EQ(d.stats().evictions, 1u);
  EXPECT_EQ(d.epc().used(), 2u);
  EXPECT_EQ(d.backing_store().total_evictions(), 1u);
  d.check_invariants();
}

TEST(Driver, EvictedPageFaultsAgainWithFreshVersion) {
  Driver d(small_enclave(64, 2), test_costs());
  Cycles now = 0;
  now = d.access(0, now).completion;
  now = d.access(1, now).completion;
  now = d.access(2, now).completion;  // evicts one of 0/1 (CLOCK)
  // Figure out which page got evicted and fault it back in.
  const PageNum evicted = d.page_table().present(0) ? 1 : 0;
  EXPECT_EQ(d.backing_store().eviction_count(evicted), 1u);
  const auto out = d.access(evicted, now);
  EXPECT_TRUE(out.faulted);
  d.check_invariants();
}

TEST(Driver, FullFaultCostIncludesEviction) {
  Driver d(small_enclave(64, 2), test_costs());
  Cycles now = 0;
  now = d.access(0, now).completion;
  now = d.access(1, now).completion;
  const Cycles start = now;
  const auto out = d.access(2, now);
  EXPECT_EQ(out.completion - start, 10'000u + 4'000 + 44'000 + 10'000);
}

TEST(Driver, OutOfRangeAccessThrows) {
  Driver d(small_enclave(16), test_costs());
  EXPECT_THROW(d.access(16, 0), CheckFailure);
  EXPECT_THROW(d.sip_load(99, 0), CheckFailure);
}

TEST(Driver, PolicyPredictionsArePreloaded) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3};
  Driver d(small_enclave(), test_costs(), &policy);
  const auto out = d.access(0, 0);
  EXPECT_EQ(policy.faults_seen, std::vector<PageNum>{0});
  EXPECT_EQ(d.stats().preloads_issued, 3u);
  // Let the channel drain: all three preloads commit.
  d.drain();
  EXPECT_EQ(policy.completed, (std::vector<PageNum>{1, 2, 3}));
  EXPECT_EQ(d.stats().preloads_completed, 3u);
  // Accessing a preloaded page afterwards is a hit.
  const auto hit = d.access(2, out.completion + 1'000'000);
  EXPECT_FALSE(hit.faulted);
  EXPECT_EQ(d.stats().preloads_used, 1u);
  d.check_invariants();
}

TEST(Driver, PredictionsSkipResidentAndQueuedPages) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2};
  policy.predictions[5] = {1, 2, 6};  // 1,2 already handled
  Driver d(small_enclave(64, 16), test_costs(), &policy);
  Cycles now = d.access(0, 0).completion;
  d.drain();
  d.access(5, now + 1'000'000);
  // Only page 6 is new; 1 and 2 are already resident.
  EXPECT_EQ(d.stats().preloads_issued, 3u);  // 1, 2 from first fault; 6 now
  d.drain();
  EXPECT_TRUE(d.page_table().present(6));
}

TEST(Driver, StreamFaultFlushesQueuedPreloads) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3, 4};
  Driver d(small_enclave(), test_costs(), &policy);
  const auto out = d.access(0, 0);
  // Fault on page 2, which is queued for preloading: the app outran the
  // preloader within the stream, so the queued batch (2, 3, 4) is flushed
  // and 2 is demand-loaded instead (§4.1's in-stream abort). Preload 1 is
  // in flight and cannot be preempted.
  const auto out2 = d.access(2, out.completion);
  EXPECT_TRUE(out2.faulted);
  EXPECT_EQ(policy.aborted.size(), 3u);
  EXPECT_EQ(d.stats().preloads_aborted, 3u);
  d.drain();
  EXPECT_TRUE(d.page_table().present(1));   // in-flight one landed
  EXPECT_TRUE(d.page_table().present(2));   // demand-loaded
  EXPECT_FALSE(d.page_table().present(3));  // flushed
  EXPECT_FALSE(d.page_table().present(4));  // flushed
  d.check_invariants();
}

TEST(Driver, UnrelatedFaultPreemptsButKeepsQueuedPreloads) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3};
  Driver d(small_enclave(64, /*epc=*/16), test_costs(), &policy);
  const auto out = d.access(0, 0);
  // Fault on an unrelated page: the demand load is inserted after the
  // in-flight preload but ahead of the queued ones, which survive.
  const auto out2 = d.access(40, out.completion);
  EXPECT_TRUE(out2.faulted);
  EXPECT_TRUE(policy.aborted.empty());
  // The demand load ran before queued preloads: 40 became resident no
  // later than one preload + one load after the fault.
  d.drain();
  EXPECT_TRUE(d.page_table().present(40));
  EXPECT_TRUE(d.page_table().present(2));  // queued preloads still landed
  EXPECT_TRUE(d.page_table().present(3));
  d.check_invariants();
}

TEST(Driver, FlushPolicyAbortsOnAnyFault) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3, 4};
  auto cfg = small_enclave(64, 16);
  cfg.demand_policy = DemandPolicy::kPreemptAndFlush;
  Driver d(cfg, test_costs(), &policy);
  const auto out = d.access(0, 0);
  d.access(40, out.completion);  // unrelated fault still flushes the queue
  EXPECT_EQ(policy.aborted.size(), 3u);
  d.drain();
  EXPECT_FALSE(d.page_table().present(2));
}

TEST(Driver, FifoPolicyKeepsQueuedPreloadsAndWaits) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3, 4};
  auto cfg = small_enclave(64, /*epc=*/16);  // room for all loads
  cfg.demand_policy = DemandPolicy::kFifo;
  Driver d(cfg, test_costs(), &policy);
  const auto out = d.access(0, 0);
  const auto out2 = d.access(40, out.completion);
  EXPECT_TRUE(policy.aborted.empty());
  d.drain();
  EXPECT_TRUE(d.page_table().present(2));
  EXPECT_TRUE(d.page_table().present(4));
  // FIFO: the demand for 40 waited behind all four queued preloads, so it
  // finished later than a preempting demand would have.
  Driver d2(small_enclave(64, 16), test_costs(), &policy);
  const auto o1 = d2.access(0, 0);
  const auto o2 = d2.access(40, o1.completion);
  EXPECT_GT(out2.completion, o2.completion);
}

// --- Demand-policy fault ordering: where a demand load lands relative to
// --- queued preloads, per DemandPolicy variant.

TEST(DriverDemandOrdering, PreemptDemandOvertakesQueuedPreloads) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3};
  auto cfg = small_enclave(64, 16);
  cfg.demand_policy = DemandPolicy::kPreempt;
  Driver d(cfg, test_costs(), &policy);
  const auto out = d.access(0, 0);
  const auto out2 = d.access(40, out.completion);
  EXPECT_TRUE(out2.faulted);
  EXPECT_TRUE(policy.aborted.empty());
  // The demand was inserted ahead of the queued preloads: the survivors
  // start only after it finished (completion minus ERESUME = load end).
  const Cycles demand_end = out2.completion - test_costs().eresume;
  for (const PageNum p : {PageNum{2}, PageNum{3}}) {
    const auto op = d.channel().find(p);
    ASSERT_TRUE(op.has_value()) << "preload " << p << " was dropped";
    EXPECT_EQ(op->kind, OpKind::kDfpPreload);
    EXPECT_GE(op->start, demand_end) << "preload " << p << " ran first";
  }
  d.drain();
  d.check_invariants();
}

TEST(DriverDemandOrdering, PreemptAndFlushDemandFollowsOnlyInFlightOp) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3, 4};
  auto cfg = small_enclave(64, 16);
  cfg.demand_policy = DemandPolicy::kPreemptAndFlush;
  Driver d(cfg, test_costs(), &policy);
  const auto out = d.access(0, 0);
  const auto op1 = d.channel().find(1);  // in flight, cannot be preempted
  ASSERT_TRUE(op1.has_value());
  const auto out2 = d.access(40, out.completion);
  // The whole queue (2, 3, 4) was flushed; the demand load ran directly
  // after the in-flight preload, with nothing in between.
  EXPECT_EQ(policy.aborted, (std::vector<PageNum>{2, 3, 4}));
  EXPECT_EQ(out2.completion,
            op1->end + test_costs().epc_load + test_costs().eresume);
  d.drain();
  EXPECT_TRUE(d.page_table().present(1));
  EXPECT_FALSE(d.page_table().present(2));
  EXPECT_FALSE(d.page_table().present(4));
  d.check_invariants();
}

TEST(DriverDemandOrdering, FifoDemandWaitsBehindWholeQueue) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3, 4};
  auto cfg = small_enclave(64, 16);
  cfg.demand_policy = DemandPolicy::kFifo;
  Driver d(cfg, test_costs(), &policy);
  const auto out = d.access(0, 0);
  const auto op4 = d.channel().find(4);  // tail of the preload queue
  ASSERT_TRUE(op4.has_value());
  const auto out2 = d.access(40, out.completion);
  EXPECT_TRUE(policy.aborted.empty());
  // FIFO never reorders: the demand load started only after the last
  // queued preload finished.
  EXPECT_EQ(out2.completion,
            op4->end + test_costs().epc_load + test_costs().eresume);
  d.drain();
  d.check_invariants();
}

TEST(DriverDemandOrdering, FifoInStreamFaultWaitsWithoutAbort) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3};
  auto cfg = small_enclave(64, 16);
  cfg.demand_policy = DemandPolicy::kFifo;
  Driver d(cfg, test_costs(), &policy);
  const auto out = d.access(0, 0);
  const auto op3 = d.channel().find(3);
  ASSERT_TRUE(op3.has_value());
  // Fault on the queued page itself: under kPreempt this is the §4.1
  // in-stream abort; under FIFO the handler just waits its turn.
  const auto out2 = d.access(3, out.completion);
  EXPECT_TRUE(out2.faulted);
  EXPECT_TRUE(out2.hit_inflight);
  EXPECT_TRUE(policy.aborted.empty());
  EXPECT_EQ(d.stats().preloads_aborted, 0u);
  EXPECT_EQ(out2.completion, op3->end + test_costs().eresume);
  d.drain();
  d.check_invariants();
}

TEST(Driver, FaultOnInFlightPreloadWaits) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2};
  Driver d(small_enclave(), test_costs(), &policy);
  const auto out = d.access(0, 0);  // demand 0 done; preloads 1,2 queued
  // Fault on page 1 shortly after: its preload is in flight.
  const auto out2 = d.access(1, out.completion + 100);
  EXPECT_TRUE(out2.faulted);
  EXPECT_TRUE(out2.hit_inflight);
  EXPECT_EQ(d.stats().fault_wait_hits, 1u);
  // It resumed at the preload's end + ERESUME, cheaper than a full load.
  EXPECT_LT(out2.completion - (out.completion + 100),
            test_costs().fault_cost_min());
}

TEST(Driver, PreloadLandingDuringAexWindowIsUsed) {
  FakePolicy policy;
  policy.predictions[0] = {1};
  Driver d(small_enclave(), test_costs(), &policy);
  d.access(0, 0);
  // Preload of 1 runs right after the demand load. Fault at a time where
  // the preload completes inside the AEX window.
  const auto op = d.channel().find(1);
  ASSERT_TRUE(op.has_value());
  const Cycles fault_time = op->end - 5'000;  // AEX spans the end
  const auto out2 = d.access(1, fault_time);
  EXPECT_TRUE(out2.faulted);
  EXPECT_TRUE(out2.hit_inflight);
  EXPECT_EQ(out2.completion, fault_time + 10'000 + 10'000);
}

TEST(Driver, SipLoadSkipsAexAndEresume) {
  Driver d(small_enclave(), test_costs());
  const Cycles end = d.sip_load(7, 1000);
  EXPECT_EQ(end, 1000u + 44'000);
  EXPECT_TRUE(d.page_table().present(7));
  EXPECT_EQ(d.stats().sip_loads, 1u);
  EXPECT_EQ(d.stats().faults, 0u);
  // The subsequent access is a plain hit.
  const auto out = d.access(7, end);
  EXPECT_FALSE(out.faulted);
  EXPECT_EQ(out.completion, end);
  EXPECT_EQ(d.stats().preloads_used, 1u);  // SIP loads count as preloads
}

TEST(Driver, SipLoadOnResidentPageReturnsImmediately) {
  Driver d(small_enclave(), test_costs());
  const auto out = d.access(3, 0);
  const Cycles end = d.sip_load(3, out.completion + 10);
  EXPECT_EQ(end, out.completion + 10);
  EXPECT_EQ(d.stats().sip_loads, 0u);
}

TEST(Driver, SipLoadWaitsForInFlightOp) {
  FakePolicy policy;
  policy.predictions[0] = {1};
  Driver d(small_enclave(), test_costs(), &policy);
  const auto out = d.access(0, 0);
  const auto op = d.channel().find(1);
  ASSERT_TRUE(op.has_value());
  const Cycles end = d.sip_load(1, out.completion + 1);
  EXPECT_EQ(end, op->end);
  EXPECT_EQ(d.stats().sip_inflight_waits, 1u);
}

TEST(Driver, BitmapTracksResidency) {
  Driver d(small_enclave(64, 2), test_costs());
  Cycles now = 0;
  now = d.access(0, now).completion;
  EXPECT_TRUE(d.bitmap().test(0));
  now = d.access(1, now).completion;
  now = d.access(2, now).completion;  // one of 0/1 evicted
  EXPECT_EQ(d.bitmap().popcount(), 2u);
  d.check_invariants();
}

TEST(Driver, ServiceScanRunsPeriodically) {
  FakePolicy policy;
  auto costs = test_costs();
  costs.scan_period = 50'000;
  Driver d(small_enclave(), costs, &policy);
  d.access(0, 0);
  d.advance_to(500'000);
  EXPECT_EQ(d.stats().scans, 10u);
  EXPECT_EQ(policy.scans, 10);
}

TEST(Driver, EvictedUnusedPreloadNotifiesPolicy) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3};
  // EPC of 4: 0,1,2,3 fill it; loading 10 must evict. Untouched preloads
  // (clear access bits) are the CLOCK victims.
  Driver d(small_enclave(64, 4), test_costs(), &policy);
  Cycles now = d.access(0, 0).completion;
  now = d.drain();
  const auto out = d.access(10, now);
  EXPECT_EQ(d.stats().evictions, 1u);
  ASSERT_EQ(policy.evicted_unused.size(), 1u);
  EXPECT_EQ(d.stats().preloads_evicted_unused, 1u);
  // The evicted page was one of the unused preloads, not page 0.
  EXPECT_NE(policy.evicted_unused[0], 0u);
  (void)out;
  d.check_invariants();
}

// --- Overload hardening: bounded queue, retry sweep, dup suppression.

/// Scripted injector: drops / duplicates the next N completion
/// notifications for specific pages, deterministically.
class ScriptedChaos final : public ChaosHooks {
 public:
  std::map<PageNum, int> drops;  // page -> deliveries still to drop
  std::map<PageNum, int> dups;   // page -> deliveries still to duplicate

  bool drop_preload_completion(PageNum page, Cycles) override {
    return consume(drops, page);
  }
  bool duplicate_preload_completion(PageNum page, Cycles) override {
    return consume(dups, page);
  }

 private:
  static bool consume(std::map<PageNum, int>& budget, PageNum page) {
    const auto it = budget.find(page);
    if (it == budget.end() || it->second == 0) {
      return false;
    }
    --it->second;
    return true;
  }
};

EnclaveConfig hardened_enclave(std::uint32_t max_retries = 3) {
  auto cfg = small_enclave(64, 16);
  cfg.channel.max_retries = max_retries;
  return cfg;
}

/// Every lost completion must be accounted for: retried, made moot by
/// another load, or surfaced as a permanent fault.
void expect_conservation(const Driver& d) {
  EXPECT_EQ(d.stats().lost_completions,
            d.stats().retries + d.stats().retries_resolved +
                d.stats().permanent_faults);
}

TEST(DriverHardened, DuplicatedCompletionIsIdempotent) {
  FakePolicy policy;
  policy.predictions[0] = {1};
  ScriptedChaos chaos;
  chaos.dups[1] = 1;
  Driver d(hardened_enclave(), test_costs(), &policy);
  d.set_chaos(&chaos);
  d.access(0, 0);
  d.drain();
  // The duplicated notification changed neither residency nor stats twice:
  // one committed preload, one suppressed duplicate, one policy callback.
  EXPECT_TRUE(d.page_table().present(1));
  EXPECT_EQ(d.stats().preloads_completed, 1u);
  EXPECT_EQ(d.stats().duplicate_completions, 1u);
  EXPECT_EQ(policy.completed, std::vector<PageNum>{1});
  EXPECT_EQ(d.stats().lost_completions, 0u);
  d.check_invariants();
}

TEST(DriverHardened, DroppedCompletionIsRetriedUntilItLands) {
  FakePolicy policy;
  policy.predictions[0] = {1};
  ScriptedChaos chaos;
  chaos.drops[1] = 1;  // the first attempt's completion vanishes
  Driver d(hardened_enclave(), test_costs(), &policy);
  d.set_chaos(&chaos);
  d.access(0, 0);
  EXPECT_FALSE(d.page_table().present(1));
  d.drain();  // waits out the deadline, sweeps, re-issues, commits
  EXPECT_TRUE(d.page_table().present(1));
  EXPECT_EQ(d.stats().lost_completions, 1u);
  EXPECT_EQ(d.stats().retries, 1u);
  EXPECT_EQ(d.stats().permanent_faults, 0u);
  EXPECT_EQ(d.stats().preloads_completed, 1u);
  EXPECT_EQ(policy.completed, std::vector<PageNum>{1});
  expect_conservation(d);
  d.check_invariants();
}

TEST(DriverHardened, RepeatedDropsSurfaceAPermanentFault) {
  FakePolicy policy;
  policy.predictions[0] = {1};
  ScriptedChaos chaos;
  chaos.drops[1] = 100;  // every delivery vanishes
  Driver d(hardened_enclave(/*max_retries=*/2), test_costs(), &policy);
  d.set_chaos(&chaos);
  d.access(0, 0);
  d.drain();
  // Initial attempt + 2 retries all dropped, then the sweep gives up and
  // tells the policy — the loss is loud, not silent.
  EXPECT_FALSE(d.page_table().present(1));
  EXPECT_EQ(d.stats().lost_completions, 3u);
  EXPECT_EQ(d.stats().retries, 2u);
  EXPECT_EQ(d.stats().permanent_faults, 1u);
  EXPECT_EQ(policy.aborted, std::vector<PageNum>{1});
  expect_conservation(d);
  d.check_invariants();
}

TEST(DriverHardened, DemandFaultResolvesAPendingRetry) {
  FakePolicy policy;
  policy.predictions[0] = {1};
  ScriptedChaos chaos;
  chaos.drops[1] = 1;
  Driver d(hardened_enclave(), test_costs(), &policy);
  d.set_chaos(&chaos);
  const auto out = d.access(0, 0);
  // Fault on page 1 while its (doomed) preload is in flight: the handler
  // waits, the completion is dropped, and the handler demand-loads the page
  // itself. The lost op is then moot — resolved, not retried.
  const auto out2 = d.access(1, out.completion);
  EXPECT_TRUE(out2.faulted);
  EXPECT_TRUE(d.page_table().present(1));
  d.drain();
  EXPECT_EQ(d.stats().lost_completions, 1u);
  EXPECT_EQ(d.stats().retries_resolved, 1u);
  EXPECT_EQ(d.stats().retries, 0u);
  EXPECT_EQ(d.stats().permanent_faults, 0u);
  expect_conservation(d);
  d.check_invariants();
}

TEST(DriverHardened, SeedModeDropOnlySkewsPolicyAccounting) {
  // Without retries configured the seed semantics hold: a dropped
  // completion leaves the page resident and only starves the policy's
  // bookkeeping — nothing is declared lost.
  FakePolicy policy;
  policy.predictions[0] = {1};
  ScriptedChaos chaos;
  chaos.drops[1] = 1;
  Driver d(small_enclave(64, 16), test_costs(), &policy);
  d.set_chaos(&chaos);
  d.access(0, 0);
  d.drain();
  EXPECT_TRUE(d.page_table().present(1));
  EXPECT_EQ(d.stats().preloads_completed, 1u);
  EXPECT_TRUE(policy.completed.empty());
  EXPECT_EQ(d.stats().lost_completions, 0u);
  d.check_invariants();
}

TEST(DriverHardened, BoundedQueueShedsExcessPreloadSubmissions) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3, 4, 5};
  auto cfg = small_enclave(64, 16);
  cfg.channel.max_queued = 3;  // demand load + two preloads fill it
  Driver d(cfg, test_costs(), &policy);
  d.access(0, 0);
  EXPECT_EQ(d.stats().preloads_issued, 2u);
  EXPECT_EQ(d.stats().preloads_shed, 3u);
  EXPECT_EQ(policy.shed, (std::vector<PageNum>{3, 4, 5}));
  d.drain();
  EXPECT_TRUE(d.page_table().present(1));
  EXPECT_TRUE(d.page_table().present(2));
  EXPECT_FALSE(d.page_table().present(3));
  d.check_invariants();
}

TEST(DriverHardened, DemandLoadPastHighWaterEvictsQueuedPreloads) {
  FakePolicy policy;
  policy.predictions[0] = {1, 2, 3};
  auto cfg = small_enclave(64, 16);
  cfg.channel.max_queued = 8;
  cfg.channel.preload_high_water = 2;
  Driver d(cfg, test_costs(), &policy);
  const auto out = d.access(0, 0);
  // Queue now holds preload 1 (in flight) + queued preloads 2, 3. The
  // demand fault arrives over the high-water mark: queued preloads are
  // evicted newest-first until the queue drains below it; the in-flight op
  // is untouchable. Demand is never rejected.
  const auto out2 = d.access(40, out.completion);
  EXPECT_TRUE(out2.faulted);
  EXPECT_EQ(d.stats().queued_preload_evictions, 2u);
  EXPECT_EQ(policy.shed, (std::vector<PageNum>{3, 2}));
  d.drain();
  EXPECT_TRUE(d.page_table().present(1));
  EXPECT_TRUE(d.page_table().present(40));
  EXPECT_FALSE(d.page_table().present(2));
  EXPECT_FALSE(d.page_table().present(3));
  d.check_invariants();
}

TEST(DriverHardened, ConservationHoldsUnderRandomOverload) {
  FakePolicy policy;
  for (PageNum p = 0; p < 32; ++p) {
    policy.predictions[p] = {p + 1, p + 2};
  }
  ScriptedChaos chaos;
  for (PageNum p = 0; p < 34; ++p) {
    chaos.drops[p] = 2;  // every page loses its first two completions
  }
  auto cfg = small_enclave(34, 6);
  cfg.channel.max_queued = 4;
  cfg.channel.max_retries = 2;
  cfg.channel.deadline_slack = 20'000;  // tight deadlines: sweeps stay busy
  auto costs = test_costs();
  costs.scan_period = 50'000;  // scan ticks drive the retry sweep mid-run
  Driver d(cfg, costs, &policy);
  d.set_chaos(&chaos);
  Rng rng(7);
  Cycles now = 0;
  for (int i = 0; i < 1500; ++i) {
    now = d.access(rng.bounded(32), now).completion + rng.bounded(5'000);
    if (i % 250 == 0) {
      d.check_invariants();
    }
  }
  d.drain();
  // The run definitely lost completions; every one of them was re-issued,
  // resolved by a demand load, or surfaced as a permanent fault — however
  // the re-issue/deferral schedule played out, nothing is silently parked.
  EXPECT_GT(d.stats().lost_completions, 0u);
  expect_conservation(d);
  d.check_invariants();
}

TEST(Driver, InvariantsHoldUnderRandomWorkload) {
  FakePolicy policy;
  for (PageNum p = 0; p < 32; ++p) {
    policy.predictions[p] = {p + 1, p + 2};
  }
  Driver d(small_enclave(32, 6), test_costs(), &policy);
  Rng rng(2024);
  Cycles now = 0;
  std::uint64_t access_calls = 0;
  for (int i = 0; i < 2000; ++i) {
    const PageNum page = rng.bounded(32);
    if (rng.chance(0.2)) {
      now = std::max(now, d.sip_load(page, now)) + rng.bounded(1000);
    } else {
      now = d.access(page, now).completion + rng.bounded(1000);
      ++access_calls;
    }
    if (i % 100 == 0) {
      d.check_invariants();
    }
  }
  d.drain();
  d.check_invariants();
  EXPECT_EQ(d.stats().accesses, access_calls);
}

// --- The full sweep on restore ----------------------------------------------
// load_sections() ends in check_invariants(), so a frame whose page state
// disagrees is refused. Each corruption below keeps every O(1) count
// consistent, so exactly one of the full sweep's checks can see it.

constexpr PageNum kTenantPages = 256;

EnclaveConfig elastic_enclave() {
  EnclaveConfig cfg = small_enclave(2 * kTenantPages, 96);
  cfg.elastic.enabled = true;
  return cfg;
}

std::unique_ptr<Driver> elastic_driver() {
  auto d = std::make_unique<Driver>(elastic_enclave(), test_costs());
  d->set_elastic_geometry({{0, kTenantPages}, {kTenantPages, kTenantPages}});
  return d;
}

/// Re-emit `frame` with edit(section tag, field) applied to every field.
template <class Edit>
std::vector<std::uint8_t> rewrite(const std::vector<std::uint8_t>& frame,
                                  Edit edit) {
  snapshot::Reader r(frame);
  snapshot::Writer w;
  for (std::uint32_t s = 0; s < r.section_count(); ++s) {
    const std::string tag = r.enter_any_section();
    w.begin_section(tag);
    while (r.more_fields()) {
      snapshot::FieldView f = r.next_field();
      edit(tag, f);
      w.field(f);
    }
    r.leave_section();
    w.end_section();
  }
  return w.finish();
}

void load(Driver& d, const std::vector<std::uint8_t>& frame) {
  snapshot::Reader r(frame);
  d.load_sections(r);
}

TEST(FullSweep, RefusesRestoredPageStateThatDisagrees) {
  auto src = elastic_driver();
  Rng rng(5);
  Cycles now = 0;
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t t = rng.bounded(2);
    const PageNum page = t * kTenantPages + rng.bounded(kTenantPages);
    now = src->access(page, now, static_cast<ProcessId>(t)).completion + 3'000;
  }
  snapshot::Writer w;
  src->save_sections(w);
  const std::vector<std::uint8_t> frame = w.finish();
  ASSERT_NO_THROW(load(*elastic_driver(), frame));

  // Two resident pages of tenant 0 in their slots, and an absent one.
  const PageTable& pt = src->page_table();
  std::vector<PageNum> resident;
  PageNum absent = kInvalidPage;
  for (PageNum p = 0; p < kTenantPages; ++p) {
    if (pt.present(p)) {
      resident.push_back(p);
    } else if (absent == kInvalidPage) {
      absent = p;
    }
  }
  ASSERT_GE(resident.size(), 2u);
  ASSERT_NE(absent, kInvalidPage);
  const PageNum q = resident[0];
  const PageNum q2 = resident[1];
  const std::uint64_t s = pt.entry(q).slot;
  const std::uint64_t s2 = pt.entry(q2).slot;
  const auto flip = [](std::vector<std::uint64_t>& words, PageNum p) {
    words[p / 64] ^= 1ull << (p % 64);
  };

  // 1. A bitmap bit moved from q to the absent page: the word compare.
  EXPECT_THROW(load(*elastic_driver(),
                    rewrite(frame,
                            [&](const std::string&, snapshot::FieldView& f) {
                              if (f.label == "bitmap.words") {
                                flip(f.vecv, q);
                                flip(f.vecv, absent);
                              }
                            })),
               CheckFailure);
  // 2. Two slots swap their pages: the slot walk's back-pointer check.
  EXPECT_THROW(load(*elastic_driver(),
                    rewrite(frame,
                            [&](const std::string&, snapshot::FieldView& f) {
                              if (f.label == "epc.slot_to_page") {
                                std::swap(f.vecv[s], f.vecv[s2]);
                              }
                            })),
               CheckFailure);
  // 3. Residency, present bit and bitmap bit moved from q to the absent
  // page, which claims q's slot while q's entry still names it: the slot
  // walk's present check.
  EXPECT_THROW(
      load(*elastic_driver(),
           rewrite(frame,
                   [&](const std::string&, snapshot::FieldView& f) {
                     if (f.label == "pt.entries") {
                       f.vecv[q] = pack_entry(pt.entry(q), false);
                       f.vecv[absent] = pack_entry(
                           PageTableEntry{.slot = static_cast<SlotIndex>(s)},
                           true);
                     } else if (f.label == "bitmap.words") {
                       flip(f.vecv, q);
                       flip(f.vecv, absent);
                     }
                   })),
      CheckFailure);
  // 4. q's slot marked free in the slot map but not in the free list: the
  // occupied-slot count.
  EXPECT_THROW(load(*elastic_driver(),
                    rewrite(frame,
                            [&](const std::string&, snapshot::FieldView& f) {
                              if (f.label == "epc.slot_to_page") {
                                f.vecv[s] = kInvalidPage;
                              }
                            })),
               CheckFailure);
  // 5. A resident page credited to the other tenant: the range counts.
  EXPECT_THROW(load(*elastic_driver(),
                    rewrite(frame,
                            [&](const std::string&, snapshot::FieldView& f) {
                              if (f.label == "el.resident") {
                                --f.vecv[0];
                                ++f.vecv[1];
                              }
                            })),
               CheckFailure);
}

}  // namespace
}  // namespace sgxpl::sgxsim
