#include "dfp/stream_predictor.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"

namespace sgxpl::dfp {
namespace {

StreamPredictorParams params(std::size_t len = 4, std::uint64_t load = 4,
                             bool backward = true) {
  return StreamPredictorParams{.stream_list_len = len,
                               .load_length = load,
                               .detect_backward = backward};
}

constexpr ProcessId kPid{1};

/// Where `page` stands against `sp`'s tails for kPid, judged on a copy so
/// that `sp` itself is not fed.
StreamMatch match(StreamPredictor sp, PageNum page) {
  return sp.classify(kPid, page);
}

TEST(StreamPredictor, FirstFaultSeedsStreamNoPrediction) {
  StreamPredictor sp(params());
  EXPECT_TRUE(sp.on_fault(kPid, 100).empty());
  EXPECT_EQ(sp.stream_count(kPid), 1u);
  EXPECT_EQ(match(sp, 100), StreamMatch::kOnList);
  EXPECT_EQ(sp.misses(), 1u);
}

TEST(StreamPredictor, SequentialFaultExtendsStream) {
  StreamPredictor sp(params(4, 3));
  sp.on_fault(kPid, 100);
  const auto pred = sp.on_fault(kPid, 101);
  EXPECT_EQ(pred, (std::vector<PageNum>{102, 103, 104}));
  EXPECT_EQ(sp.hits(), 1u);
  // The tail moved: 101 is now the stpn, 100 no longer is.
  EXPECT_EQ(match(sp, 101), StreamMatch::kOnList);
  EXPECT_NE(match(sp, 100), StreamMatch::kOnList);
}

TEST(StreamPredictor, LoadLengthControlsPredictionSize) {
  StreamPredictor sp(params(4, 8));
  sp.on_fault(kPid, 10);
  const auto pred = sp.on_fault(kPid, 11);
  ASSERT_EQ(pred.size(), 8u);
  EXPECT_EQ(pred.front(), 12u);
  EXPECT_EQ(pred.back(), 19u);
}

TEST(StreamPredictor, BackwardStreamDetected) {
  StreamPredictor sp(params());
  sp.on_fault(kPid, 100);
  const auto pred = sp.on_fault(kPid, 99);
  EXPECT_EQ(pred, (std::vector<PageNum>{98, 97, 96, 95}));
}

TEST(StreamPredictor, BackwardDisabledIgnoresDescending) {
  StreamPredictor sp(params(4, 4, /*backward=*/false));
  sp.on_fault(kPid, 100);
  EXPECT_TRUE(sp.on_fault(kPid, 99).empty());
  EXPECT_EQ(sp.hits(), 0u);
}

TEST(StreamPredictor, BackwardStreamStopsAtPageZero) {
  StreamPredictor sp(params(4, 8));
  sp.on_fault(kPid, 3);
  const auto pred = sp.on_fault(kPid, 2);
  // Prediction truncates rather than wrapping below page 0.
  EXPECT_EQ(pred, (std::vector<PageNum>{1, 0}));
}

TEST(StreamPredictor, LruReplacementEvictsOldestStream) {
  StreamPredictor sp(params(/*len=*/2));
  sp.on_fault(kPid, 100);  // stream A
  sp.on_fault(kPid, 200);  // stream B
  sp.on_fault(kPid, 300);  // list full -> replaces A (LRU)
  EXPECT_NE(match(sp, 100), StreamMatch::kOnList);
  EXPECT_EQ(match(sp, 200), StreamMatch::kOnList);
  EXPECT_EQ(match(sp, 300), StreamMatch::kOnList);
  // Extending B promotes it; a new seed then replaces the LRU (300).
  sp.on_fault(kPid, 201);
  sp.on_fault(kPid, 400);
  EXPECT_NE(match(sp, 300), StreamMatch::kOnList);
  EXPECT_EQ(match(sp, 201), StreamMatch::kOnList);
}

TEST(StreamPredictor, TracksMultipleInterleavedStreams) {
  StreamPredictor sp(params(4, 2));
  sp.on_fault(kPid, 100);
  sp.on_fault(kPid, 500);
  // Both streams extend despite interleaving.
  EXPECT_EQ(sp.on_fault(kPid, 101), (std::vector<PageNum>{102, 103}));
  EXPECT_EQ(sp.on_fault(kPid, 501), (std::vector<PageNum>{502, 503}));
  EXPECT_EQ(sp.on_fault(kPid, 102), (std::vector<PageNum>{103, 104}));
  EXPECT_EQ(sp.hits(), 3u);
}

TEST(StreamPredictor, PerProcessIsolation) {
  StreamPredictor sp(params());
  sp.on_fault(ProcessId{1}, 100);
  // Process 2 faulting on 101 must not extend process 1's stream.
  EXPECT_TRUE(sp.on_fault(ProcessId{2}, 101).empty());
  EXPECT_EQ(sp.stream_count(ProcessId{1}), 1u);
  EXPECT_EQ(sp.stream_count(ProcessId{2}), 1u);
}

TEST(StreamPredictor, FollowsStreamQueries) {
  StreamPredictor sp(params());
  sp.on_fault(kPid, 100);
  EXPECT_EQ(match(sp, 101), StreamMatch::kFollows);
  EXPECT_EQ(match(sp, 99), StreamMatch::kFollows);  // backward enabled
  EXPECT_EQ(match(sp, 102), StreamMatch::kNone);
  EXPECT_EQ(match(sp, 100), StreamMatch::kOnList);  // on-list, not following
}

TEST(StreamPredictor, RandomFaultsNeverPredict) {
  StreamPredictor sp(params(30, 4));
  // Pages far apart: no two are adjacent.
  std::uint64_t predicted = 0;
  for (PageNum p = 0; p < 100; ++p) {
    predicted += sp.on_fault(kPid, p * 1000).size();
  }
  EXPECT_EQ(predicted, 0u);
  EXPECT_EQ(sp.misses(), 100u);
}

TEST(StreamPredictor, DirectionFlipsWithinStream) {
  StreamPredictor sp(params(4, 2));
  sp.on_fault(kPid, 100);
  sp.on_fault(kPid, 101);  // ascending
  // 100 follows 101 descending: the same stream flips direction.
  const auto pred = sp.on_fault(kPid, 100);
  EXPECT_EQ(pred, (std::vector<PageNum>{99, 98}));
}

TEST(StreamPredictor, ResetClearsState) {
  StreamPredictor sp(params());
  sp.on_fault(kPid, 100);
  sp.on_fault(kPid, 101);
  sp.reset();
  EXPECT_EQ(sp.stream_count(kPid), 0u);
  EXPECT_EQ(sp.hits(), 0u);
  EXPECT_EQ(sp.misses(), 0u);
  EXPECT_TRUE(sp.on_fault(kPid, 102).empty());
}

TEST(StreamPredictor, RejectsEmptyList) {
  EXPECT_THROW(StreamPredictor(params(0)), CheckFailure);
}

TEST(StreamPredictor, ClassifyFeedsLikeOnFault) {
  StreamPredictor sp(params(4, 2));
  EXPECT_EQ(sp.classify(kPid, 100), StreamMatch::kNone);
  EXPECT_EQ(sp.classify(kPid, 101), StreamMatch::kFollows);
  // 101 is now the tail; a repeat is on the list and seeds a second entry.
  EXPECT_EQ(sp.classify(kPid, 101), StreamMatch::kOnList);
  EXPECT_EQ(sp.hits(), 1u);
  EXPECT_EQ(sp.misses(), 2u);
  EXPECT_EQ(sp.stream_count(kPid), 2u);
  EXPECT_EQ(sp.on_fault(kPid, 102), (std::vector<PageNum>{103, 104}));
}

TEST(StreamPredictor, RejectsListLongerThanAFilterCountHolds) {
  try {
    StreamPredictor sp(params(StreamPredictor::kMaxStreamListLen + 1));
    ADD_FAILURE() << "an over-long stream_list was accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("the most tails a filter count"),
              std::string::npos)
        << e.what();
  }
}

TEST(StreamPredictor, FilterCountHoldsTheLongestList) {
  // Every tail of a full longest list maps to one filter count: it reaches
  // its maximum and neither wraps nor loses a tail.
  constexpr std::size_t kLen = StreamPredictor::kMaxStreamListLen;
  StreamPredictor sp(params(kLen));
  for (std::size_t i = 0; i < kLen + 5; ++i) {
    ASSERT_TRUE(sp.on_fault(kPid, 7).empty());
  }
  EXPECT_EQ(sp.stream_count(kPid), kLen);
  sp.check_invariants();
  EXPECT_EQ(match(sp, 7), StreamMatch::kOnList);
  EXPECT_EQ(sp.on_fault(kPid, 8).size(), 4u);
  sp.check_invariants();
}

}  // namespace
}  // namespace sgxpl::dfp
