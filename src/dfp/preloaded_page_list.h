// The PreloadedPageList of paper §4.2: tracks every page brought in by DFP
// preloading until it is either observed accessed (credited to
// AccPreloadCounter by the service-thread scan) or evicted unused.
//
// The scan tick costs O(changes), not O(outstanding preloads). Membership is
// a dense per-page flag, and a pending list records the pages whose answer
// can have changed since the last tick: those loaded (on_loaded) and those
// touched for the first time (on_touched). A listed page that is not
// pending was found (present, preloaded, not accessed) at the last tick.
// Only a first touch, which is recorded, or an eviction can change that,
// and such a page is still preloaded when it is evicted, so the eviction
// reaches on_evicted and takes it off the list at once. A walk over every
// listed page would therefore keep it too: scan() re-checks the pending
// pages only and credits the same pages at the same tick.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sgxsim/page_table.h"
#include "snapshot/fwd.h"

namespace sgxpl::dfp {

class PreloadedPageList {
 public:
  /// A DFP preload for `page` completed (loaded into the EPC).
  void on_loaded(PageNum page);

  /// The application touched `page` for the first time since it was
  /// preloaded. Queues a listed page for the next scan; others are ignored.
  void on_touched(PageNum page);

  /// `page` was evicted; if it is still on the list it was never accessed.
  void on_evicted(PageNum page);

  /// Service-thread scan: of the pages loaded or touched since the last
  /// scan, credit those whose access bit is set (or whose preloaded flag is
  /// already clear) and drop those no longer resident. Returns the number
  /// of pages credited this scan.
  std::uint64_t scan(const sgxsim::PageTable& pt);

  /// PreloadCounter: total pages DFP loaded (used + unused).
  std::uint64_t preload_counter() const noexcept { return preload_counter_; }
  /// AccPreloadCounter: preloaded pages observed accessed by the scan.
  std::uint64_t acc_preload_counter() const noexcept {
    return acc_preload_counter_;
  }
  /// Preloaded pages evicted without ever being credited.
  std::uint64_t evicted_unused() const noexcept { return evicted_unused_; }

  std::size_t tracked() const noexcept { return tracked_; }

  /// The listed pages in ascending order.
  std::vector<PageNum> pages() const;

  void reset();

  /// Checkpoint/restore. Tracked pages serialize in ascending order so
  /// identical states produce identical snapshot bytes. load() rejects a
  /// page list that is not strictly ascending or that names a page at or
  /// beyond `elrange_pages`, before changing anything; every restored page
  /// is pending, because the touches recorded before the save are not part
  /// of the snapshot.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r, PageNum elrange_pages);

 private:
  bool listed(PageNum page) const noexcept {
    return page < listed_.size() && listed_[page] != 0;
  }
  void list(PageNum page);
  void unlist(PageNum page) noexcept;

  std::vector<std::uint8_t> listed_;  // per-page membership, grown on demand
  std::size_t tracked_ = 0;           // set flags in listed_
  std::vector<PageNum> pending_;      // loaded or first-touched since a scan
  std::uint64_t preload_counter_ = 0;
  std::uint64_t acc_preload_counter_ = 0;
  std::uint64_t evicted_unused_ = 0;
};

}  // namespace sgxpl::dfp
