#include "dfp/stream_predictor.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::dfp {

namespace {

/// At least 64 filter counts per tail (1 Ki to 64 Ki counts), so a random
/// page finds a nonzero count among its three about 3/64 of the time.
PageNum filter_mask(std::size_t stream_list_len) {
  return std::bit_ceil(std::clamp<std::size_t>(stream_list_len * 64, 1024,
                                               65536)) -
         1;
}

}  // namespace

StreamPredictor::StreamPredictor(StreamPredictorParams params)
    : params_(params) {
  SGXPL_CHECK_MSG(params_.stream_list_len > 0, "stream_list must be nonempty");
  SGXPL_CHECK_MSG(params_.stream_list_len <= kMaxStreamListLen,
                  "stream_list_len " << params_.stream_list_len
                                     << " exceeds " << kMaxStreamListLen
                                     << ", the most tails a filter count "
                                        "can hold");
  mask_ = filter_mask(params_.stream_list_len);
}

StreamPredictor::Ring StreamPredictor::make_ring(ProcessId pid) const {
  Ring ring;
  ring.pid = pid;
  ring.slots.resize(params_.stream_list_len);
  ring.filter.resize(mask_ + 1);
  return ring;
}

std::size_t StreamPredictor::ring_index(ProcessId pid) const {
  std::size_t i = 0;
  while (i < rings_.size() && rings_[i].pid != pid) {
    ++i;
  }
  return i;
}

StreamPredictor::Ring& StreamPredictor::ring_for(ProcessId pid) {
  if (last_ < rings_.size() && rings_[last_].pid == pid) {
    return rings_[last_];
  }
  last_ = ring_index(pid);
  if (last_ == rings_.size()) {
    rings_.push_back(make_ring(pid));
  }
  rings_[last_].live = true;
  return rings_[last_];
}

std::size_t StreamPredictor::find_follow(const Ring& ring,
                                         PageNum page) const {
  if (ring.count == 0) {
    return kNoSlot;
  }
  // Sequential streams hit at the MRU entry: check it before the filter.
  if (extends(ring.slots[ring.head].stpn, page)) {
    return ring.head;
  }
  // `page` extends a tail only if that tail is page-1 (forward) or page+1
  // (backward).
  if (ring.filter[(page - 1) & mask_] == 0 &&
      (!params_.detect_backward || ring.filter[(page + 1) & mask_] == 0)) {
    return kNoSlot;
  }
  const std::size_t size = ring.slots.size();
  std::size_t slot = ring.head;
  for (std::size_t rank = 1; rank < ring.count; ++rank) {
    slot = slot + 1 == size ? 0 : slot + 1;
    if (extends(ring.slots[slot].stpn, page)) {
      return slot;
    }
  }
  return kNoSlot;
}

bool StreamPredictor::holds(const Ring& ring, PageNum page) const {
  if (ring.filter[page & mask_] == 0) {
    return false;
  }
  const std::size_t size = ring.slots.size();
  std::size_t slot = ring.head;
  for (std::size_t rank = 0; rank < ring.count; ++rank) {
    if (ring.slots[slot].stpn == page) {
      return true;
    }
    slot = slot + 1 == size ? 0 : slot + 1;
  }
  return false;
}

bool StreamPredictor::feed(Ring& ring, PageNum npn) {
  const std::size_t size = ring.slots.size();
  const std::size_t hit = find_follow(ring, npn);
  if (hit == kNoSlot) {
    // Miss: the slot before the head is free, or holds the LRU entry once
    // the ring is full. It becomes the MRU slot of the new stream seed.
    ++misses_;
    ring.head = ring.head == 0 ? size - 1 : ring.head - 1;
    if (ring.count == size) {
      --ring.filter[ring.slots[ring.head].stpn & mask_];
    } else {
      ++ring.count;
    }
    ring.slots[ring.head] = StreamEntry{.stpn = npn, .direction = +1};
    ++ring.filter[npn & mask_];
    return false;
  }
  // Stream hit: extend, then promote to MRU by shifting the more recent
  // entries down one slot.
  ++hits_;
  StreamEntry extended = ring.slots[hit];
  --ring.filter[extended.stpn & mask_];
  ++ring.filter[npn & mask_];
  extended.direction = npn == extended.stpn + 1 ? +1 : -1;
  extended.stpn = npn;
  for (std::size_t slot = hit; slot != ring.head;) {
    const std::size_t prev = slot == 0 ? size - 1 : slot - 1;
    ring.slots[slot] = ring.slots[prev];
    slot = prev;
  }
  ring.slots[ring.head] = extended;
  return true;
}

std::vector<PageNum> StreamPredictor::on_fault(ProcessId pid, PageNum npn) {
  Ring& ring = ring_for(pid);
  if (!feed(ring, npn)) {
    return {};
  }
  // Predict the next LOADLENGTH pages in the stream's direction.
  const int direction = ring.slots[ring.head].direction;
  std::vector<PageNum> to_load;
  to_load.reserve(params_.load_length);
  PageNum p = npn;
  for (std::uint64_t i = 0; i < params_.load_length; ++i) {
    if (direction > 0) {
      ++p;
    } else {
      if (p == 0) break;
      --p;
    }
    to_load.push_back(p);
  }
  return to_load;
}

StreamMatch StreamPredictor::classify(ProcessId pid, PageNum page) {
  Ring& ring = ring_for(pid);
  const bool on_list = holds(ring, page);
  const bool follows = feed(ring, page);
  return on_list ? StreamMatch::kOnList
                 : (follows ? StreamMatch::kFollows : StreamMatch::kNone);
}

std::size_t StreamPredictor::stream_count(ProcessId pid) const {
  const std::size_t i = ring_index(pid);
  return i == rings_.size() ? 0 : rings_[i].count;
}

void StreamPredictor::reset() {
  for (Ring& ring : rings_) {
    for (std::size_t rank = 0; rank < ring.count; ++rank) {
      ring.filter[ring.slots[(ring.head + rank) % ring.slots.size()].stpn &
                  mask_] = 0;
    }
    ring.count = 0;
    ring.live = false;
  }
  last_ = rings_.size();  // the next feed marks its ring live again
  hits_ = 0;
  misses_ = 0;
}

void StreamPredictor::save(snapshot::Writer& w) const {
  w.u64("stream.hits", hits_);
  w.u64("stream.misses", misses_);
  std::vector<const Ring*> live;
  for (const Ring& ring : rings_) {
    if (ring.live) live.push_back(&ring);
  }
  std::sort(live.begin(), live.end(),
            [](const Ring* a, const Ring* b) { return a->pid < b->pid; });
  // Flattened per-pid lists: lengths line up with pids; tails/directions
  // are concatenated MRU-first.
  std::vector<std::uint64_t> pids, lengths, stpns, directions;
  for (const Ring* ring : live) {
    pids.push_back(ring->pid);
    lengths.push_back(ring->count);
    for (std::size_t rank = 0; rank < ring->count; ++rank) {
      const StreamEntry& e =
          ring->slots[(ring->head + rank) % ring->slots.size()];
      stpns.push_back(e.stpn);
      directions.push_back(e.direction > 0 ? 1u : 0u);
    }
  }
  w.u64_vec("stream.pids", pids);
  w.u64_vec("stream.lengths", lengths);
  w.u64_vec("stream.stpns", stpns);
  w.u64_vec("stream.directions", directions);
}

void StreamPredictor::load(snapshot::Reader& r) {
  const std::uint64_t hits = r.u64("stream.hits");
  const std::uint64_t misses = r.u64("stream.misses");
  const std::vector<std::uint64_t> pids = r.u64_vec("stream.pids");
  const std::vector<std::uint64_t> lengths = r.u64_vec("stream.lengths");
  const std::vector<std::uint64_t> stpns = r.u64_vec("stream.stpns");
  const std::vector<std::uint64_t> directions = r.u64_vec("stream.directions");
  SGXPL_CHECK_MSG(pids.size() == lengths.size() &&
                      stpns.size() == directions.size(),
                  "snapshot stream-predictor columns are misaligned");
  std::vector<Ring> rings;
  std::size_t at = 0;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const auto pid = static_cast<ProcessId>(pids[i]);
    SGXPL_CHECK_MSG(std::none_of(rings.begin(), rings.end(),
                                 [pid](const Ring& other) {
                                   return other.pid == pid;
                                 }),
                    "snapshot stream-predictor pid " << pid << " repeats");
    SGXPL_CHECK_MSG(lengths[i] <= params_.stream_list_len,
                    "snapshot stream list of pid "
                        << pid << " holds " << lengths[i]
                        << " tails, more than stream_list_len "
                        << params_.stream_list_len);
    SGXPL_CHECK_MSG(at + lengths[i] <= stpns.size(),
                    "snapshot stream-predictor lists overrun their entries");
    Ring ring = make_ring(pid);
    ring.live = true;
    for (std::uint64_t j = 0; j < lengths[i]; ++j, ++at) {
      ring.slots[ring.count++] =
          StreamEntry{.stpn = stpns[at],
                      .direction = directions[at] != 0 ? +1 : -1};
      ++ring.filter[stpns[at] & mask_];
    }
    rings.push_back(std::move(ring));
  }
  SGXPL_CHECK_MSG(at == stpns.size(),
                  "snapshot stream-predictor entries left over after load");
  rings_ = std::move(rings);
  last_ = rings_.size();
  hits_ = hits;
  misses_ = misses;
}

void StreamPredictor::check_invariants() const {
  std::vector<FilterCount> recount(mask_ + 1);
  for (const Ring& ring : rings_) {
    SGXPL_CHECK_MSG(ring.slots.size() == params_.stream_list_len &&
                        ring.filter.size() == mask_ + 1,
                    "stream ring of pid " << ring.pid << " is mis-sized");
    SGXPL_CHECK_MSG(ring.head < ring.slots.size() &&
                        ring.count <= ring.slots.size(),
                    "stream ring of pid " << ring.pid
                                          << " has head or count out of range");
    SGXPL_CHECK_MSG(ring.live || ring.count == 0,
                    "stream ring of pid " << ring.pid
                                          << " kept tails through a reset");
    SGXPL_CHECK_MSG(&rings_[ring_index(ring.pid)] == &ring,
                    "stream rings repeat pid " << ring.pid);
    std::fill(recount.begin(), recount.end(), FilterCount{0});
    for (std::size_t rank = 0; rank < ring.count; ++rank) {
      ++recount[ring.slots[(ring.head + rank) % ring.slots.size()].stpn &
                mask_];
    }
    SGXPL_CHECK_MSG(recount == ring.filter,
                    "stream filter of pid "
                        << ring.pid << " disagrees with its ring's tails");
  }
}

}  // namespace sgxpl::dfp
