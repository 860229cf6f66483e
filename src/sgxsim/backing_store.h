// The untrusted (non-EPC) side of the EPC paging mechanism.
//
// When the driver evicts an EPC page it executes EWB, which encrypts the
// page, MACs it, and bumps its anti-replay version counter in the VA slot;
// ELDU/ELDB verify that counter on the way back in. We model the counter
// explicitly so tests can assert the freshness property: every load observes
// exactly the version produced by the most recent eviction of that page.
//
// Like the VA slots it models, the store holds one plain counter per ELRANGE
// page, so EWB and ELDU are a single array access.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sgxsim/page_bits.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

class BackingStore {
 public:
  explicit BackingStore(PageNum elrange_pages);

  /// EWB: write the page out, bumping its version. Returns the new version.
  std::uint64_t evict(PageNum page);

  /// ELDU/ELDB: read the page back. Returns the version that must match the
  /// VA slot (0 for a page never evicted, i.e. first touch after EADD).
  std::uint64_t load(PageNum page) {
    ++total_loads_;
    dirty_.mark_scalar();  // total_loads_ is serialized state
    return eviction_count(page);
  }

  /// Number of EWB executions for `page`.
  std::uint64_t eviction_count(PageNum page) const {
    SGXPL_DCHECK(page < versions_.size());
    return versions_[page];
  }

  std::uint64_t total_evictions() const noexcept { return total_evictions_; }
  std::uint64_t total_loads() const noexcept { return total_loads_; }

  /// Checkpoint/restore. The pages with a version above 0 are serialized in
  /// ascending page order, so identical states always produce identical
  /// snapshot bytes. load() requires a store constructed with the same
  /// ELRANGE size and rejects pages outside it, unsorted or duplicated
  /// pages, and version 0.
  void save(snapshot::Writer& w) const { write(w, /*delta=*/false); }
  void load(snapshot::Reader& r) { restore(r, /*delta=*/false); }

  /// Delta checkpointing (format v2): the totals plus only the version slots
  /// bumped since the last clear_dirty(). A load() counts as a change
  /// because total_loads_ is observable state. apply_delta() validates the
  /// delta's pages and versions as load() does.
  bool changed() const noexcept { return dirty_.changed(); }
  void save_delta(snapshot::Writer& w) const { write(w, /*delta=*/true); }
  void apply_delta(snapshot::Reader& r) { restore(r, /*delta=*/true); }
  void clear_dirty() { dirty_.clear(); }

 private:
  /// The BSTR (full) or BSTD (delta) section: the totals, then parallel
  /// page/version lists of every populated slot or of the dirty ones.
  void write(snapshot::Writer& w, bool delta) const;
  void restore(snapshot::Reader& r, bool delta);

  std::vector<std::uint64_t> versions_;  // one per ELRANGE page; 0 = never
  std::uint64_t total_evictions_ = 0;
  std::uint64_t total_loads_ = 0;
  DirtyBits dirty_;
};

}  // namespace sgxpl::sgxsim
