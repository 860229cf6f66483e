// The enclave's page table as seen by the untrusted OS.
//
// Residency (present in EPC) is one dense bit per ELRANGE page; one entry
// per page holds the slot the page occupies, the hardware-set access bit the
// driver's service thread scans, and whether the page arrived via a preload
// (DFP bookkeeping, §4.2 of the paper).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sgxsim/page_bits.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

struct PageTableEntry {
  SlotIndex slot = kInvalidSlot;
  /// Set by "hardware" on every access to a resident page; cleared by the
  /// CLOCK eviction hand and consumed by the service-thread scan.
  bool accessed = false;
  /// True if the page was brought in by a preload (DFP or SIP) rather than a
  /// demand fault, and has not been accessed yet.
  bool preloaded = false;
};

/// One page as a snapshot u64: the slot in the low 32 bits, then the
/// present, accessed and preloaded flags. The page table's full and delta
/// sections and the migration carve all use this encoding.
std::uint64_t pack_entry(const PageTableEntry& e, bool present) noexcept;
std::pair<PageTableEntry, bool> unpack_entry(std::uint64_t v) noexcept;

class PageTable {
 public:
  explicit PageTable(PageNum elrange_pages);

  PageNum elrange_pages() const noexcept { return present_.size(); }

  const PageTableEntry& entry(PageNum page) const {
    SGXPL_DCHECK(page < entries_.size());
    return entries_[page];
  }

  bool present(PageNum page) const { return present_.test(page); }
  const PageBits& present_bits() const noexcept { return present_; }

  /// Record that `page` now occupies `slot`.
  void map(PageNum page, SlotIndex slot, bool via_preload);

  /// Record that `page` was evicted. Returns the entry state at eviction so
  /// the caller can account (e.g. evicted-while-preloaded-and-unused).
  PageTableEntry unmap(PageNum page);

  /// Hardware access-bit set on a regular access. Returns true if this is
  /// the first access since the page was (pre)loaded. Inline: every
  /// resident access runs it.
  bool touch(PageNum page) {
    auto& e = entries_[page];
    SGXPL_DCHECK(present_.test(page));
    const bool first = e.preloaded;
    if (!e.accessed || e.preloaded) dirty_.mark(page);
    e.accessed = true;
    e.preloaded = false;
    return first;
  }

  /// CLOCK second-chance: clears the access bit, returns its prior value.
  bool test_and_clear_accessed(PageNum page);

  std::uint64_t resident_count() const noexcept { return present_.count(); }

  /// Checkpoint/restore. load() requires a table constructed with the same
  /// ELRANGE size as the one saved.
  void save(snapshot::Writer& w) const { write(w, /*delta=*/false); }
  void load(snapshot::Reader& r) { restore(r, /*delta=*/false); }

  /// Delta checkpointing (snapshot format v2). Mutations since the last
  /// clear_dirty() are tracked per page; save_delta writes only those
  /// entries as sparse [start, len] runs, apply_delta replays them on top of
  /// a previously restored table.
  bool changed() const noexcept { return dirty_.changed(); }
  void save_delta(snapshot::Writer& w) const { write(w, /*delta=*/true); }
  void apply_delta(snapshot::Reader& r) { restore(r, /*delta=*/true); }
  void clear_dirty() { dirty_.clear(); }

 private:
  /// The PGTB (full) or PGTD (delta) section: the counts, then every
  /// page's entry or the dirty pages' runs and entries.
  void write(snapshot::Writer& w, bool delta) const;
  void restore(snapshot::Reader& r, bool delta);
  /// Restore one page from its snapshot encoding and mark it dirty.
  void install(PageNum page, std::uint64_t packed);

  std::vector<PageTableEntry> entries_;
  PageBits present_;
  DirtyBits dirty_;
};

}  // namespace sgxpl::sgxsim
