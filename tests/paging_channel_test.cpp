#include "sgxsim/paging_channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {
namespace {

TEST(PagingChannel, SchedulesAtEarliestWhenIdle) {
  PagingChannel ch;
  const auto& op = ch.schedule(100, 50, 1, OpKind::kDemandLoad);
  EXPECT_EQ(op.start, 100u);
  EXPECT_EQ(op.end, 150u);
}

TEST(PagingChannel, SerializesBackToBack) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDemandLoad);
  const auto& op2 = ch.schedule(10, 100, 2, OpKind::kDfpPreload);
  // Op 2 wants to start at 10 but the channel is busy until 100.
  EXPECT_EQ(op2.start, 100u);
  EXPECT_EQ(op2.end, 200u);
  EXPECT_EQ(ch.next_free(0), 200u);
}

TEST(PagingChannel, NonPreemptible) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDfpPreload);
  // At t=50 the op is in flight; aborting must not remove it.
  const auto aborted = ch.abort_not_started(50);
  EXPECT_TRUE(aborted.empty());
  EXPECT_TRUE(ch.find(1).has_value());
}

TEST(PagingChannel, AbortRemovesOnlyNotStarted) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDfpPreload);   // in flight at t=50
  ch.schedule(0, 100, 2, OpKind::kDfpPreload);   // starts at 100
  ch.schedule(0, 100, 3, OpKind::kDfpPreload);   // starts at 200
  const auto aborted = ch.abort_not_started(50);
  EXPECT_EQ(aborted.size(), 2u);
  EXPECT_EQ(aborted[0].page, 2u);
  EXPECT_EQ(aborted[1].page, 3u);
  EXPECT_TRUE(ch.find(1).has_value());
  EXPECT_FALSE(ch.find(2).has_value());
  EXPECT_EQ(ch.ops_aborted(), 2u);
}

TEST(PagingChannel, AbortFiltersByKind) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDemandLoad);  // in flight
  ch.schedule(0, 100, 2, OpKind::kDfpPreload);
  ch.schedule(0, 100, 3, OpKind::kSipLoad);
  ch.schedule(0, 100, 4, OpKind::kDfpPreload);
  const auto aborted = ch.abort_not_started(10, OpKind::kDfpPreload);
  EXPECT_EQ(aborted.size(), 2u);
  // The SIP load survives and slides forward into the freed time.
  const auto sip = ch.find(3);
  ASSERT_TRUE(sip.has_value());
  EXPECT_EQ(sip->start, 100u);
  EXPECT_EQ(sip->end, 200u);
}

TEST(PagingChannel, AbortRepacksSurvivors) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDemandLoad);   // [0,100) in flight
  ch.schedule(0, 100, 2, OpKind::kDfpPreload);   // [100,200)
  ch.schedule(0, 100, 3, OpKind::kSipLoad);      // [200,300)
  ch.abort_not_started(10, OpKind::kDfpPreload);
  const auto op3 = ch.find(3);
  ASSERT_TRUE(op3.has_value());
  EXPECT_EQ(op3->start, 100u);  // slid into page 2's aborted slot
  // New ops schedule after the repacked queue.
  const auto& op4 = ch.schedule(0, 50, 4, OpKind::kDemandLoad);
  EXPECT_EQ(op4.start, 200u);
}

TEST(PagingChannel, CollectCompletedInOrder) {
  PagingChannel ch;
  ch.schedule(0, 10, 1, OpKind::kDemandLoad);
  ch.schedule(0, 10, 2, OpKind::kDemandLoad);
  ch.schedule(0, 10, 3, OpKind::kDemandLoad);
  const auto done = ch.collect_completed(20);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].page, 1u);
  EXPECT_EQ(done[1].page, 2u);
  EXPECT_EQ(ch.queued(), 1u);
  EXPECT_TRUE(ch.collect_completed(20).empty());  // idempotent
}

TEST(PagingChannel, FindLocatesQueuedOp) {
  PagingChannel ch;
  EXPECT_FALSE(ch.find(9).has_value());
  ch.schedule(0, 10, 9, OpKind::kSipLoad);
  const auto op = ch.find(9);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->kind, OpKind::kSipLoad);
}

TEST(PagingChannel, IdleAndCompletionTime) {
  PagingChannel ch;
  EXPECT_TRUE(ch.idle(0));
  EXPECT_EQ(ch.completion_time(), 0u);
  ch.schedule(0, 100, 1, OpKind::kDemandLoad);
  ch.schedule(0, 100, 2, OpKind::kDemandLoad);
  EXPECT_FALSE(ch.idle(150));
  EXPECT_TRUE(ch.idle(200));
  EXPECT_EQ(ch.completion_time(), 200u);
}

TEST(PagingChannel, ParallelModeStartsImmediately) {
  PagingChannel ch(/*serial=*/false);
  const auto& a = ch.schedule(0, 100, 1, OpKind::kDemandLoad);
  const auto& b = ch.schedule(0, 50, 2, OpKind::kDemandLoad);
  EXPECT_EQ(a.start, 0u);
  EXPECT_EQ(b.start, 0u);
  const auto done = ch.collect_completed(60);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].page, 2u);  // shorter op completes first
}

TEST(PagingChannel, ZeroDurationRejected) {
  PagingChannel ch;
  EXPECT_THROW(ch.schedule(0, 0, 1, OpKind::kDemandLoad), CheckFailure);
}

TEST(PagingChannel, TryScheduleRejectsWhenBounded) {
  ChannelConfig cfg;
  cfg.max_queued = 2;
  PagingChannel ch(/*serial=*/true, cfg);
  EXPECT_TRUE(ch.bounded());
  EXPECT_EQ(ch.try_schedule(0, 100, 1, OpKind::kDfpPreload),
            AdmissionResult::kAdmitted);
  EXPECT_EQ(ch.try_schedule(0, 100, 2, OpKind::kDfpPreload),
            AdmissionResult::kAdmitted);
  EXPECT_TRUE(ch.full());
  EXPECT_EQ(ch.try_schedule(0, 100, 3, OpKind::kDfpPreload),
            AdmissionResult::kRejectedFull);
  EXPECT_EQ(ch.queued(), 2u);
  EXPECT_EQ(ch.ops_rejected(), 1u);
  // Rejection does not consume an op id.
  EXPECT_EQ(ch.ops_scheduled(), 2u);
  // Demand loads bypass the bound entirely.
  ch.schedule_priority(0, 100, 4, OpKind::kDemandLoad);
  EXPECT_EQ(ch.queued(), 3u);
}

TEST(PagingChannel, UnboundedTrySchedulesLikeSchedule) {
  PagingChannel ch;
  for (PageNum p = 1; p <= 64; ++p) {
    EXPECT_EQ(ch.try_schedule(0, 10, p, OpKind::kDfpPreload),
              AdmissionResult::kAdmitted);
  }
  EXPECT_EQ(ch.queued(), 64u);
  EXPECT_EQ(ch.ops_rejected(), 0u);
}

TEST(PagingChannel, ShedNewestPreloadSkipsInFlightAndDemand) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDfpPreload);   // in flight at t=50
  ch.schedule(0, 100, 2, OpKind::kDfpPreload);   // [100,200)
  ch.schedule(0, 100, 3, OpKind::kDemandLoad);   // [200,300)
  ch.schedule(0, 100, 4, OpKind::kDfpPreload);   // [300,400) — newest preload
  const auto shed = ch.shed_newest_preload(50);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->page, 4u);
  EXPECT_EQ(ch.ops_shed(), 1u);
  // The in-flight preload is immovable; the next shed takes page 2 and the
  // demand load slides into its slot.
  const auto shed2 = ch.shed_newest_preload(50);
  ASSERT_TRUE(shed2.has_value());
  EXPECT_EQ(shed2->page, 2u);
  const auto demand = ch.find(3);
  ASSERT_TRUE(demand.has_value());
  EXPECT_EQ(demand->start, 100u);
  // Only the in-flight preload and the demand load remain — nothing left
  // to shed.
  EXPECT_FALSE(ch.shed_newest_preload(50).has_value());
  EXPECT_EQ(ch.queued(), 2u);
}

TEST(PagingChannel, DeadlineSlackSurvivesRepack) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDemandLoad);                  // [0,100)
  ch.schedule(0, 100, 2, OpKind::kDfpPreload, 0, 0, 500);       // [100,200)
  ch.schedule(0, 100, 3, OpKind::kDfpPreload, 0, 0, 500);       // [200,300)
  {
    const auto op3 = ch.find(3);
    ASSERT_TRUE(op3.has_value());
    EXPECT_EQ(op3->deadline, 300u + 500u);
  }
  // Shedding page 2 slides page 3 earlier; its deadline slides with its
  // end, preserving the slack.
  ASSERT_TRUE(ch.cancel_not_started(2, 50));
  const auto op3 = ch.find(3);
  ASSERT_TRUE(op3.has_value());
  EXPECT_EQ(op3->end, 200u);
  EXPECT_EQ(op3->deadline, 200u + 500u);
}

TEST(PagingChannel, QueuedPreloadsPerTenant) {
  PagingChannel ch;
  ch.schedule(0, 100, 1, OpKind::kDfpPreload, ProcessId{0});
  ch.schedule(0, 100, 2, OpKind::kDfpPreload, ProcessId{1});
  ch.schedule(0, 100, 3, OpKind::kDfpPreload, ProcessId{1});
  ch.schedule(0, 100, 4, OpKind::kDemandLoad, ProcessId{1});
  EXPECT_EQ(ch.queued_preloads_for(ProcessId{0}), 1u);
  EXPECT_EQ(ch.queued_preloads_for(ProcessId{1}), 2u);
  EXPECT_EQ(ch.queued_preloads_for(ProcessId{2}), 0u);
}

TEST(PagingChannel, AdmissionResultRoundTrips) {
  for (const AdmissionResult r :
       {AdmissionResult::kAdmitted, AdmissionResult::kRejectedFull,
        AdmissionResult::kRejectedQuota, AdmissionResult::kRejectedDegraded}) {
    const auto parsed = parse_admission_result(to_string(r));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, r);
  }
  EXPECT_FALSE(parse_admission_result("bogus").has_value());
}

TEST(PagingChannel, SerialCompletionTimeAndIdleMatchTheWalk) {
  // The serial channel answers completion_time() from the queue's last op
  // and idle() from that; both must equal the walk over every queued op
  // (found through find() on each page ever scheduled) after any mix of
  // schedule, priority insert, abort, cancel, shed and harvest.
  for (const bool serial : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      PagingChannel ch(serial);
      Rng rng(seed);
      std::vector<PageNum> pages;
      PageNum next_page = 0;
      Cycles now = 0;
      for (int i = 0; i < 400; ++i) {
        now += rng.bounded(60);
        const Cycles dur = 1 + rng.bounded(100);
        switch (rng.bounded(7)) {
          case 0:
          case 1:
            ch.schedule(now, dur, next_page, OpKind::kDfpPreload);
            pages.push_back(next_page++);
            break;
          case 2:
            ch.schedule_priority(now, dur, next_page, OpKind::kDemandLoad);
            pages.push_back(next_page++);
            break;
          case 3:
            ch.abort_not_started(now, rng.bounded(2) == 0
                                          ? std::optional(OpKind::kDfpPreload)
                                          : std::nullopt);
            break;
          case 4:
            if (!pages.empty()) {
              ch.cancel_not_started(pages[rng.bounded(pages.size())], now);
            }
            break;
          case 5:
            ch.shed_newest_preload(now);
            break;
          default:
            ch.collect_completed(now);
            break;
        }
        Cycles walk = 0;
        for (const PageNum p : pages) {
          if (const auto op = ch.find(p)) {
            walk = std::max(walk, op->end);
          }
        }
        ASSERT_EQ(ch.completion_time(), walk)
            << "serial=" << serial << " seed=" << seed << " op " << i;
        for (const Cycles at : {now, walk, walk == 0 ? 0 : walk - 1}) {
          ASSERT_EQ(ch.idle(at), walk <= at)
              << "serial=" << serial << " seed=" << seed << " op " << i;
        }
      }
    }
  }
}

TEST(PagingChannel, RestoreRejectsASerialQueueThatIsNotPacked) {
  // completion_time() reads the serial queue's last op, which holds only
  // while every op starts after its predecessor ends; a frame that breaks
  // that order is refused.
  const auto frame = [](std::vector<std::uint64_t> starts,
                        std::vector<std::uint64_t> ends) {
    snapshot::Writer w;
    w.begin_section("CHAN");
    w.boolean("channel.serial", true);
    w.u64("channel.max_queued", 0);
    for (const char* k : {"channel.next_id", "channel.aborted",
                          "channel.rejected", "channel.shed"}) {
      w.u64(k, k == std::string_view("channel.next_id") ? 2 : 0);
    }
    w.u64_vec("channel.op_ids", {0, 1});
    w.u64_vec("channel.op_pages", {7, 8});
    w.u64_vec("channel.op_kinds", {0, 1});
    w.u64_vec("channel.op_starts", starts);
    w.u64_vec("channel.op_ends", ends);
    w.u64_vec("channel.op_deadlines", ends);
    w.u64_vec("channel.op_attempts", {0, 0});
    w.u64_vec("channel.op_pids", {0, 0});
    w.end_section();
    return w.finish();
  };
  const auto packed = frame({100, 200}, {200, 300});
  PagingChannel ok;
  snapshot::Reader r(packed);
  r.enter_section("CHAN");
  ok.load(r);
  EXPECT_EQ(ok.completion_time(), 300u);
  for (const auto& [starts, ends] :
       {std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>{
            {100, 150}, {200, 250}},
        {{100, 300}, {200, 250}},
        {{100, 200}, {100, 300}}}) {
    const auto bad = frame(starts, ends);
    PagingChannel ch;
    snapshot::Reader rb(bad);
    rb.enter_section("CHAN");
    EXPECT_THROW(ch.load(rb), CheckFailure)
        << "starts " << starts[1] << " ends " << ends[0] << "/" << ends[1];
  }
}

}  // namespace
}  // namespace sgxpl::sgxsim
