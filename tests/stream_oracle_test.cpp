// Differential battery for dfp::StreamPredictor's ring-and-filter stream
// list against the plain std::list form of Algorithm 1 it replaced.
//
// The reference below walks an MRU-first std::list per process for every
// query. Random seeded fault streams drive both, with fault, classify,
// reset and save/load round trips interleaved; after every call the pair
// must agree on the predictions, the Class 1/2/3 result, hits, misses,
// stream counts and the saved bytes, and the ring's filter must equal a
// recount of its tails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "common/rng.h"
#include "dfp/stream_predictor.h"
#include "snapshot/codec.h"

namespace sgxpl::dfp {
namespace {

/// Algorithm 1 as an MRU-first std::list of stream tails per process.
class ListStreamPredictor {
 public:
  explicit ListStreamPredictor(StreamPredictorParams params)
      : params_(params) {}

  std::vector<PageNum> on_fault(ProcessId pid, PageNum npn) {
    StreamList& list = lists_[pid];
    for (auto it = list.begin(); it != list.end(); ++it) {
      const bool forward = npn == it->stpn + 1;
      const bool backward =
          params_.detect_backward && it->stpn > 0 && npn == it->stpn - 1;
      if (!forward && !backward) {
        continue;
      }
      ++hits_;
      it->direction = forward ? +1 : -1;
      it->stpn = npn;
      list.splice(list.begin(), list, it);
      std::vector<PageNum> to_load;
      PageNum p = npn;
      for (std::uint64_t i = 0; i < params_.load_length; ++i) {
        if (it->direction > 0) {
          ++p;
        } else {
          if (p == 0) break;
          --p;
        }
        to_load.push_back(p);
      }
      return to_load;
    }
    ++misses_;
    if (list.size() >= params_.stream_list_len) {
      list.back() = Entry{.stpn = npn, .direction = +1};
      list.splice(list.begin(), list, std::prev(list.end()));
    } else {
      list.push_front(Entry{.stpn = npn, .direction = +1});
    }
    return {};
  }

  StreamMatch classify(ProcessId pid, PageNum page) {
    StreamMatch m = StreamMatch::kNone;
    if (on_stream_list(pid, page)) {
      m = StreamMatch::kOnList;
    } else if (follows_stream(pid, page)) {
      m = StreamMatch::kFollows;
    }
    (void)on_fault(pid, page);
    return m;
  }

  std::size_t stream_count(ProcessId pid) const {
    const auto it = lists_.find(pid);
    return it == lists_.end() ? 0 : it->second.size();
  }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  void reset() {
    lists_.clear();
    hits_ = 0;
    misses_ = 0;
  }

  void save(snapshot::Writer& w) const {
    w.u64("stream.hits", hits_);
    w.u64("stream.misses", misses_);
    std::vector<std::uint64_t> pids, lengths, stpns, directions;
    for (const auto& [pid, list] : lists_) {  // std::map: ascending pids
      pids.push_back(pid);
      lengths.push_back(list.size());
      for (const Entry& e : list) {
        stpns.push_back(e.stpn);
        directions.push_back(e.direction > 0 ? 1u : 0u);
      }
    }
    w.u64_vec("stream.pids", pids);
    w.u64_vec("stream.lengths", lengths);
    w.u64_vec("stream.stpns", stpns);
    w.u64_vec("stream.directions", directions);
  }

  void load(snapshot::Reader& r) {
    hits_ = r.u64("stream.hits");
    misses_ = r.u64("stream.misses");
    const auto pids = r.u64_vec("stream.pids");
    const auto lengths = r.u64_vec("stream.lengths");
    const auto stpns = r.u64_vec("stream.stpns");
    const auto directions = r.u64_vec("stream.directions");
    lists_.clear();
    std::size_t at = 0;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      StreamList& list = lists_[static_cast<ProcessId>(pids[i])];
      for (std::uint64_t j = 0; j < lengths[i]; ++j, ++at) {
        list.push_back(Entry{.stpn = stpns[at],
                             .direction = directions[at] != 0 ? +1 : -1});
      }
    }
  }

 private:
  struct Entry {
    PageNum stpn = kInvalidPage;
    int direction = +1;
  };
  using StreamList = std::list<Entry>;

  bool on_stream_list(ProcessId pid, PageNum page) const {
    const auto it = lists_.find(pid);
    return it != lists_.end() &&
           std::any_of(it->second.begin(), it->second.end(),
                       [page](const Entry& e) { return e.stpn == page; });
  }

  bool follows_stream(ProcessId pid, PageNum page) const {
    const auto it = lists_.find(pid);
    if (it == lists_.end()) {
      return false;
    }
    return std::any_of(
        it->second.begin(), it->second.end(), [&](const Entry& e) {
          return page == e.stpn + 1 ||
                 (params_.detect_backward && e.stpn > 0 && page == e.stpn - 1);
        });
  }

  StreamPredictorParams params_;
  std::map<ProcessId, StreamList> lists_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

template <typename P>
std::vector<std::uint8_t> frame_of(const P& predictor) {
  snapshot::Writer w;
  w.begin_section("STRM");
  predictor.save(w);
  w.end_section();
  return w.finish();
}

template <typename P>
void load_frame(P& predictor, const std::vector<std::uint8_t>& frame) {
  snapshot::Reader r(frame);
  r.enter_section("STRM");
  predictor.load(r);
  r.leave_section();
}

/// Every filter size is a power of two of at most 64 Ki counts, so pages
/// 64 Ki apart always share a count.
constexpr PageNum kCollide = PageNum{1} << 16;

/// A fault stream that mixes stream extensions in both directions, repeats
/// of recent pages, pages near 0 and near the top of the page space, pages
/// that collide in the filter, and far random pages.
class PageSource {
 public:
  explicit PageSource(std::uint64_t seed) : rng_(seed) {}

  PageNum next() {
    const std::uint64_t roll = rng_.bounded(100);
    PageNum page;
    if (roll < 30) {
      const PageNum base = recent_[rng_.bounded(recent_.size())];
      page = rng_.bounded(4) == 0 ? base - 1 : base + 1;
    } else if (roll < 45) {
      page = recent_[rng_.bounded(recent_.size())];
    } else if (roll < 55) {
      page = rng_.bounded(4);
    } else if (roll < 58) {
      page = kInvalidPage - rng_.bounded(3);
    } else if (roll < 78) {
      page = (1 + rng_.bounded(6)) * kCollide + rng_.bounded(5);
    } else {
      page = rng_.bounded(PageNum{1} << 40);
    }
    recent_[cursor_++ % recent_.size()] = page;
    return page;
  }

  std::uint64_t roll(std::uint64_t bound) { return rng_.bounded(bound); }

 private:
  Rng rng_;
  std::vector<PageNum> recent_ = std::vector<PageNum>(12, 100);
  std::size_t cursor_ = 0;
};

void expect_same_state(const StreamPredictor& sp,
                       const ListStreamPredictor& ref, std::size_t pids) {
  sp.check_invariants();
  ASSERT_EQ(sp.hits(), ref.hits());
  ASSERT_EQ(sp.misses(), ref.misses());
  for (std::size_t pid = 0; pid <= pids; ++pid) {
    ASSERT_EQ(sp.stream_count(static_cast<ProcessId>(pid)),
              ref.stream_count(static_cast<ProcessId>(pid)))
        << "pid " << pid;
  }
  ASSERT_EQ(frame_of(sp), frame_of(ref));
}

void run_differential(const StreamPredictorParams& params, std::size_t pids,
                      std::uint64_t seed, int calls) {
  StreamPredictor sp(params);
  ListStreamPredictor ref(params);
  PageSource source(seed);
  for (int call = 0; call < calls; ++call) {
    SCOPED_TRACE(::testing::Message() << "call " << call);
    const std::uint64_t roll = source.roll(1000);
    const auto pid = static_cast<ProcessId>(source.roll(pids));
    if (roll < 6) {
      sp.reset();
      ref.reset();
    } else if (roll < 18) {
      // Round trip through a snapshot into a fresh predictor, or into one
      // that has state of its own to replace.
      const std::vector<std::uint8_t> frame = frame_of(sp);
      StreamPredictor restored(params);
      if (source.roll(2) == 0) {
        (void)restored.on_fault(pid, source.next());
      }
      load_frame(restored, frame);
      sp = std::move(restored);
      load_frame(ref, frame);
    } else if (roll < 500) {
      const PageNum page = source.next();
      ASSERT_EQ(sp.on_fault(pid, page), ref.on_fault(pid, page))
          << "page " << page;
    } else {
      const PageNum page = source.next();
      ASSERT_EQ(sp.classify(pid, page), ref.classify(pid, page))
          << "page " << page;
    }
    expect_same_state(sp, ref, pids);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(StreamListOracle, MatchesTheListReferenceOnRandomFaultStreams) {
  for (const std::size_t len : {1u, 2u, 8u, 30u, 64u, 128u}) {
    for (const bool backward : {true, false}) {
      for (std::size_t pids = 1; pids <= 3; ++pids) {
        const StreamPredictorParams params{.stream_list_len = len,
                                           .load_length = 1 + len % 5,
                                           .detect_backward = backward};
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
          SCOPED_TRACE(::testing::Message()
                       << "len " << len << " backward " << backward
                       << " pids " << pids << " seed " << seed);
          run_differential(params, pids, seed * 1000 + len, 1500);
          if (HasFatalFailure()) {
            return;
          }
        }
      }
    }
  }
}

TEST(StreamListOracle, LongSequentialAndCollidingStreamsAgree) {
  // 24 interleaved ascending and descending streams in a 30-entry list,
  // their pages sharing filter counts: after the first round every fault
  // hits the LRU-most stream, past colliding tails at every rank.
  const StreamPredictorParams params{.stream_list_len = 30};
  StreamPredictor sp(params);
  ListStreamPredictor ref(params);
  for (PageNum step = 0; step < 400; ++step) {
    for (PageNum s = 0; s < 24; ++s) {
      const PageNum base = 5'000 + s * kCollide;
      const PageNum page = s % 2 == 0 ? base + step : base + 1'000 - step;
      ASSERT_EQ(sp.on_fault(ProcessId{0}, page),
                ref.on_fault(ProcessId{0}, page))
          << "step " << step << " stream " << s;
    }
    expect_same_state(sp, ref, 1);
  }
  EXPECT_EQ(sp.misses(), 24u);  // only each stream's first fault
}

TEST(StreamListOracle, RejectedSnapshotLeavesThePredictorUntouched) {
  const StreamPredictorParams params{.stream_list_len = 2};
  StreamPredictor sp(params);
  (void)sp.on_fault(ProcessId{0}, 10);
  (void)sp.on_fault(ProcessId{0}, 11);
  const std::vector<std::uint8_t> before = frame_of(sp);

  StreamPredictor longer(StreamPredictorParams{.stream_list_len = 3});
  for (const PageNum p : {100u, 200u, 300u}) {
    (void)longer.on_fault(ProcessId{0}, p);
  }
  EXPECT_THROW(load_frame(sp, frame_of(longer)), CheckFailure);
  EXPECT_EQ(frame_of(sp), before);
  sp.check_invariants();
  EXPECT_EQ(sp.on_fault(ProcessId{0}, 12).size(), 4u);
}

}  // namespace
}  // namespace sgxpl::dfp
