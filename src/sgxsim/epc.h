// The Enclave Page Cache: the fixed pool of protected physical page slots.
//
// SGX reserves ~128 MiB of physical memory for the EPC, of which ~96 MiB is
// usable by applications (the rest holds enclave metadata). The driver
// manages it at page granularity; when it is full a victim is chosen with a
// CLOCK second-chance sweep over the access bits (the Intel driver's
// reclaim heuristic the paper piggybacks on in §4.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sgxsim/page_bits.h"
#include "sgxsim/page_table.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

/// Default usable EPC: 96 MiB of 4 KiB pages.
inline constexpr PageNum kDefaultEpcPages = bytes_to_pages(96ull << 20);

class Epc {
 public:
  explicit Epc(PageNum capacity_pages);

  PageNum capacity() const noexcept { return capacity_; }
  PageNum used() const noexcept { return capacity_ - free_list_.size(); }
  bool full() const noexcept { return free_list_.empty(); }
  PageNum free_slots() const noexcept { return free_list_.size(); }

  /// Allocate a free slot for `page`. Requires !full().
  SlotIndex allocate(PageNum page);

  /// Release the slot holding `page_in_slot` (after the page table unmapped
  /// it).
  void release(SlotIndex slot);

  /// Page currently held by a slot (kInvalidPage if free).
  PageNum page_at(SlotIndex slot) const {
    SGXPL_CHECK(slot < capacity_);
    return slot_to_page_[slot];
  }

  /// CLOCK second-chance victim selection: sweep from the hand, clearing
  /// access bits of occupied slots via the page table; the first occupied
  /// slot with a clear access bit wins. Requires at least one occupied slot.
  /// Never selects `pinned` (the page a load is being performed for).
  PageNum choose_victim(PageTable& pt, PageNum pinned = kInvalidPage);

  /// Range-restricted CLOCK sweep for elastic per-tenant quotas: like
  /// choose_victim, but only pages in [lo, hi) are candidates — and pages
  /// outside the range are passed over *without* losing their access bits,
  /// so enforcing one tenant's quota never ages another tenant's working
  /// set. Shares the hand with choose_victim. Returns kInvalidPage when the
  /// range holds no evictable page (the caller falls back to the global
  /// sweep).
  PageNum choose_victim_in(PageTable& pt, PageNum lo, PageNum hi,
                           PageNum pinned = kInvalidPage);

  /// Checkpoint/restore (slot map, free list order, CLOCK hand). load()
  /// requires an EPC constructed with the same capacity as the one saved.
  void save(snapshot::Writer& w) const { write(w, /*delta=*/false); }
  void load(snapshot::Reader& r) { restore(r, /*delta=*/false); }

  /// Delta checkpointing (format v2): scalars plus only the slots reassigned
  /// since the last clear_dirty(); the free list is written whole (it is
  /// near-empty whenever the enclave overcommits the EPC, which is the case
  /// this simulator exists to study). A CLOCK sweep counts as a change: it
  /// moves the hand even when no slot changes.
  bool changed() const noexcept { return dirty_.changed(); }
  void save_delta(snapshot::Writer& w) const { write(w, /*delta=*/true); }
  void apply_delta(snapshot::Reader& r) { restore(r, /*delta=*/true); }
  void clear_dirty() { dirty_.clear(); }

 private:
  /// The EPCC (full) or EPCD (delta) section: the scalars, the slot map or
  /// its dirty slots, then the free list.
  void write(snapshot::Writer& w, bool delta) const;
  void restore(snapshot::Reader& r, bool delta);

  PageNum capacity_;
  std::vector<PageNum> slot_to_page_;
  std::vector<SlotIndex> free_list_;
  SlotIndex clock_hand_ = 0;
  DirtyBits dirty_;
};

}  // namespace sgxpl::sgxsim
