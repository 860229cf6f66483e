#include "dfp/dfp_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "sgxsim/page_table.h"
#include "snapshot/codec.h"

namespace sgxpl::dfp {
namespace {

constexpr ProcessId kPid{0};

DfpParams engine_params(bool stop = false, std::uint64_t slack = 4) {
  DfpParams p;
  p.predictor.stream_list_len = 4;
  p.predictor.load_length = 4;
  p.stop_enabled = stop;
  p.stop_slack = slack;
  return p;
}

TEST(PreloadedPageList, CountsLoadsAndCredits) {
  PreloadedPageList list;
  sgxsim::PageTable pt(100);
  pt.map(1, 0, true);
  pt.map(2, 1, true);
  list.on_loaded(1);
  list.on_loaded(2);
  EXPECT_EQ(list.preload_counter(), 2u);
  EXPECT_EQ(list.tracked(), 2u);

  pt.touch(1);  // page 1 used
  EXPECT_EQ(list.scan(pt), 1u);
  EXPECT_EQ(list.acc_preload_counter(), 1u);
  EXPECT_EQ(list.tracked(), 1u);  // page 2 still pending
}

TEST(PreloadedPageList, CreditsClearedBitViaPreloadedFlag) {
  // If a CLOCK sweep consumed the access bit before the scan, the cleared
  // `preloaded` flag still proves the page was touched.
  PreloadedPageList list;
  sgxsim::PageTable pt(100);
  pt.map(1, 0, true);
  list.on_loaded(1);
  pt.touch(1);
  pt.test_and_clear_accessed(1);
  EXPECT_EQ(list.scan(pt), 1u);
}

TEST(PreloadedPageList, EvictedPagesAreUnused) {
  PreloadedPageList list;
  list.on_loaded(5);
  list.on_evicted(5);
  EXPECT_EQ(list.evicted_unused(), 1u);
  EXPECT_EQ(list.tracked(), 0u);
  EXPECT_EQ(list.acc_preload_counter(), 0u);
  // Evicting an untracked page is a no-op.
  list.on_evicted(99);
  EXPECT_EQ(list.evicted_unused(), 1u);
}

TEST(PreloadedPageList, ScanDropsNonResidentPages) {
  PreloadedPageList list;
  sgxsim::PageTable pt(100);
  list.on_loaded(7);  // never mapped (e.g. evicted without notification)
  EXPECT_EQ(list.scan(pt), 0u);
  EXPECT_EQ(list.tracked(), 0u);
  EXPECT_EQ(list.evicted_unused(), 1u);
}

/// A snapshot holding one PreloadedPageList with the given `ppl.pages`.
std::vector<std::uint8_t> list_frame(const std::vector<std::uint64_t>& pages) {
  snapshot::Writer w;
  w.begin_section("DFPE");
  w.u64("ppl.preload_counter", 40);
  w.u64("ppl.acc_preload_counter", 20);
  w.u64("ppl.evicted_unused", 10);
  w.u64_vec("ppl.pages", pages);
  w.end_section();
  return w.finish();
}

void load_list(PreloadedPageList& list, const std::vector<std::uint8_t>& bytes,
               PageNum elrange_pages) {
  snapshot::Reader r(bytes);
  r.enter_section("DFPE");
  list.load(r, elrange_pages);
  r.leave_section();
}

/// Loading `pages` under an ELRANGE of 100 throws a CheckFailure naming
/// `entry`, and leaves a list with one tracked page untouched.
void expect_rejected(const std::vector<std::uint64_t>& pages,
                     const std::string& entry) {
  PreloadedPageList list;
  list.on_loaded(7);
  try {
    load_list(list, list_frame(pages), 100);
    ADD_FAILURE() << "malformed ppl.pages accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(entry), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(list.preload_counter(), 1u);
  EXPECT_EQ(list.pages(), std::vector<PageNum>{7});
}

TEST(PreloadedPageListLoad, WellFormedListRestoresAndIsRechecked) {
  PreloadedPageList list;
  load_list(list, list_frame({3, 9, 99}), 100);
  EXPECT_EQ(list.preload_counter(), 40u);
  EXPECT_EQ(list.acc_preload_counter(), 20u);
  EXPECT_EQ(list.evicted_unused(), 10u);
  EXPECT_EQ(list.tracked(), 3u);
  EXPECT_EQ(list.pages(), (std::vector<PageNum>{3, 9, 99}));

  // Every restored page is re-checked at the next scan: page 3 was
  // touched before the save (the touch report is not in the snapshot),
  // page 9 is waiting, page 99 was evicted.
  sgxsim::PageTable pt(100);
  pt.map(3, 0, true);
  pt.map(9, 1, true);
  pt.touch(3);
  EXPECT_EQ(list.scan(pt), 1u);
  EXPECT_EQ(list.pages(), std::vector<PageNum>{9});
  EXPECT_EQ(list.evicted_unused(), 11u);
}

TEST(PreloadedPageListLoad, RejectsUnsortedPages) {
  expect_rejected({3, 9, 5}, "ppl.pages[2] = 5");
}

TEST(PreloadedPageListLoad, RejectsDuplicatedPages) {
  expect_rejected({3, 9, 9}, "ppl.pages[2] = 9");
}

TEST(PreloadedPageListLoad, RejectsPagesBeyondTheElrange) {
  expect_rejected({3, 100}, "ppl.pages[1] = 100");
  expect_rejected({std::uint64_t{1} << 60}, "ppl.pages[0]");
}

TEST(DfpEngine, ForwardsPredictions) {
  DfpEngine e(engine_params());
  EXPECT_TRUE(e.on_fault(kPid, 100, 0).empty());
  const auto pred = e.on_fault(kPid, 101, 10);
  EXPECT_EQ(pred.size(), 4u);
  EXPECT_EQ(pred.front(), 102u);
}

TEST(DfpEngine, StopValveTriggersOnWaste) {
  DfpEngine e(engine_params(/*stop=*/true, /*slack=*/4));
  sgxsim::PageTable pt(1000);
  // 20 preloads, none ever accessed.
  for (PageNum p = 0; p < 20; ++p) {
    pt.map(p, static_cast<SlotIndex>(p), true);
    e.on_preload_completed(p, 100);
  }
  EXPECT_FALSE(e.stopped());
  e.on_scan(pt, 5'000);
  // AccPreload(0) + slack(4) < PreloadCounter(20)/2 -> stop.
  EXPECT_TRUE(e.stopped());
  EXPECT_EQ(e.stopped_at(), 5'000u);
  // Once stopped, no more predictions ever.
  e.on_fault(kPid, 100, 6'000);
  EXPECT_TRUE(e.on_fault(kPid, 101, 6'001).empty());
}

TEST(DfpEngine, StopValveSatisfiedByGoodPreloads) {
  DfpEngine e(engine_params(true, 4));
  sgxsim::PageTable pt(1000);
  for (PageNum p = 0; p < 20; ++p) {
    pt.map(p, static_cast<SlotIndex>(p), true);
    e.on_preload_completed(p, 100);
    pt.touch(p);  // every preload used
  }
  e.on_scan(pt, 5'000);
  EXPECT_FALSE(e.stopped());
  EXPECT_EQ(e.preloaded_pages().acc_preload_counter(), 20u);
}

TEST(DfpEngine, StopDisabledNeverStops) {
  DfpEngine e(engine_params(/*stop=*/false));
  sgxsim::PageTable pt(1000);
  for (PageNum p = 0; p < 100; ++p) {
    pt.map(p, static_cast<SlotIndex>(p), true);
    e.on_preload_completed(p, 0);
  }
  e.on_scan(pt, 1'000);
  EXPECT_FALSE(e.stopped());
}

TEST(DfpEngine, SlackDelaysStop) {
  DfpEngine e(engine_params(true, /*slack=*/1'000));
  sgxsim::PageTable pt(1000);
  for (PageNum p = 0; p < 100; ++p) {
    pt.map(p, static_cast<SlotIndex>(p), true);
    e.on_preload_completed(p, 0);
  }
  e.on_scan(pt, 1'000);
  // 0 + 1000 >= 100/2: within slack, keep going.
  EXPECT_FALSE(e.stopped());
}

TEST(DfpEngine, AbortsAreCounted) {
  DfpEngine e(engine_params());
  e.on_preloads_aborted({1, 2, 3}, 50);
  EXPECT_EQ(e.aborted_preloads(), 3u);
}

TEST(DfpEngine, EvictionCallbackForwardsToList) {
  DfpEngine e(engine_params());
  e.on_preload_completed(9, 0);
  e.on_preloaded_page_evicted(9, false, 10);
  EXPECT_EQ(e.preloaded_pages().evicted_unused(), 1u);
}

TEST(DfpEngine, ResetRestoresInitialState) {
  DfpEngine e(engine_params(true, 0));
  sgxsim::PageTable pt(100);
  for (PageNum p = 0; p < 10; ++p) {
    pt.map(p, static_cast<SlotIndex>(p), true);
    e.on_preload_completed(p, 0);
  }
  e.on_scan(pt, 100);
  ASSERT_TRUE(e.stopped());
  e.reset();
  EXPECT_FALSE(e.stopped());
  EXPECT_EQ(e.preloaded_pages().preload_counter(), 0u);
}

}  // namespace
}  // namespace sgxpl::dfp
