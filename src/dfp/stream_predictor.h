// Algorithm 1 of the paper: the multiple-stream predictor.
//
// The driver records the stream of faulted page numbers per process. A
// fixed-length LRU list of stream tails (stpn = stream tail page number) is
// kept; when a new fault's page number (npn) directly follows one of the
// tails, that stream is extended, moved to the MRU position, and the next
// LOADLENGTH pages in the stream's direction are predicted for preloading.
// Otherwise the LRU entry is replaced, seeding a new potential stream.
// This mirrors the read-ahead design of the Linux VFS the paper cites.
//
// Each process's list is a ring of stream_list_len slots with the MRU entry
// at its head. A miss reuses the LRU slot and moves the head, so it is O(1);
// a hit at rank k shifts the k more recent entries down one slot. Beside the
// ring sits a counting filter over `stpn & mask`: a page whose counts at
// page-1, page and page+1 are all zero can neither extend nor equal a tail,
// so it skips the walk. That is the common case for the irregular accesses
// SIP profiling replays, where every access, not only every fault, is fed.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"
#include "dfp/predictor.h"

namespace sgxpl::dfp {

struct StreamPredictorParams {
  /// Fixed length of stream_list (Fig. 6 sweeps this; paper default 30).
  std::size_t stream_list_len = 30;
  /// LOADLENGTH: pages preloaded per stream hit (Fig. 7; paper default 4).
  std::uint64_t load_length = 4;
  /// Recognize descending streams too (the `direction` field of
  /// Algorithm 1's add_to_list). Off = forward-only, for ablation.
  bool detect_backward = true;
};

/// Where a page stands against a process's stream tails before it is fed:
/// SIP profiling's Class 1 / Class 2 / Class 3 split (§4.4).
enum class StreamMatch : std::uint8_t {
  kOnList,   // equals a tail
  kFollows,  // directly follows a tail (a stream hit)
  kNone,
};

class StreamPredictor final : public PagePredictor {
 public:
  /// One filter count per masked tail value; a count never exceeds
  /// stream_list_len, which the constructor bounds by this type's maximum.
  using FilterCount = std::uint16_t;
  static constexpr std::size_t kMaxStreamListLen =
      std::numeric_limits<FilterCount>::max();

  explicit StreamPredictor(StreamPredictorParams params);

  /// Feed one fault; returns the pages to preload (possibly empty), nearest
  /// first.
  std::vector<PageNum> on_fault(ProcessId pid, PageNum npn) override;

  /// SIP profiling's per-access step (§4.4): judge `page` against the
  /// current tails, then feed it exactly as on_fault does, without building
  /// the prediction.
  StreamMatch classify(ProcessId pid, PageNum page);

  std::size_t stream_count(ProcessId pid) const;
  const StreamPredictorParams& params() const noexcept { return params_; }

  std::uint64_t hits() const noexcept override { return hits_; }
  std::uint64_t misses() const noexcept override { return misses_; }
  const char* name() const noexcept override { return "multi-stream"; }

  /// Forget every stream in place: no allocation, so a chaos predictor wipe
  /// costs O(entries).
  void reset() override;

  /// Checkpoint/restore of the per-process stream lists (MRU-first order
  /// preserved exactly) and the hit/miss counters. The filter is derived
  /// state: load() rebuilds it. A rejected snapshot leaves the predictor
  /// untouched.
  void save(snapshot::Writer& w) const override;
  void load(snapshot::Reader& r) override;

  /// Throws CheckFailure unless every ring is well formed and every filter
  /// count equals the number of tails that map to it.
  void check_invariants() const;

 private:
  struct StreamEntry {
    PageNum stpn = kInvalidPage;
    int direction = +1;  // +1 ascending, -1 descending
  };
  struct Ring {
    ProcessId pid = 0;
    /// Fed since the last reset (or loaded): save() lists it.
    bool live = false;
    std::size_t head = 0;   // slot of the MRU entry
    std::size_t count = 0;  // entries, at slots head, head+1, ... (mod size)
    std::vector<StreamEntry> slots;
    std::vector<FilterCount> filter;
  };
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();

  Ring make_ring(ProcessId pid) const;
  /// Index of `pid`'s ring, or rings_.size() if it has none.
  std::size_t ring_index(ProcessId pid) const;
  /// `pid`'s ring, made on its first fault and marked live.
  Ring& ring_for(ProcessId pid);

  bool extends(PageNum stpn, PageNum page) const noexcept {
    return page == stpn + 1 ||
           (params_.detect_backward && stpn > 0 && page == stpn - 1);
  }
  /// The MRU-first slot whose tail `page` extends, or kNoSlot.
  std::size_t find_follow(const Ring& ring, PageNum page) const;
  /// True if some tail equals `page`.
  bool holds(const Ring& ring, PageNum page) const;
  /// Algorithm 1's update: extend and promote the first stream `npn`
  /// follows, else seed `npn` in the LRU slot. Returns true on a hit.
  bool feed(Ring& ring, PageNum npn);

  StreamPredictorParams params_;
  PageNum mask_ = 0;  // filter size - 1
  std::vector<Ring> rings_;
  std::size_t last_ = 0;  // index of the ring fed last
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sgxpl::dfp
