#include "sgxsim/epc.h"

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

Epc::Epc(PageNum capacity_pages)
    : capacity_(capacity_pages),
      slot_to_page_(capacity_pages, kInvalidPage),
      dirty_(capacity_pages) {
  SGXPL_CHECK_MSG(capacity_pages > 0, "EPC must have at least one page");
  free_list_.reserve(capacity_pages);
  // Populate so that slot 0 is handed out first (pop from the back).
  for (PageNum i = capacity_pages; i > 0; --i) {
    free_list_.push_back(static_cast<SlotIndex>(i - 1));
  }
}

SlotIndex Epc::allocate(PageNum page) {
  SGXPL_CHECK_MSG(!full(), "allocate on a full EPC; evict first");
  const SlotIndex slot = free_list_.back();
  free_list_.pop_back();
  SGXPL_DCHECK(slot_to_page_[slot] == kInvalidPage);
  slot_to_page_[slot] = page;
  dirty_.mark(slot);
  return slot;
}

void Epc::release(SlotIndex slot) {
  SGXPL_CHECK(slot < capacity_);
  SGXPL_CHECK_MSG(slot_to_page_[slot] != kInvalidPage,
                  "release of free slot " << slot);
  slot_to_page_[slot] = kInvalidPage;
  free_list_.push_back(slot);
  dirty_.mark(slot);
}

PageNum Epc::choose_victim(PageTable& pt, PageNum pinned) {
  const PageNum victim = choose_victim_in(pt, 0, kInvalidPage, pinned);
  SGXPL_CHECK_MSG(victim != kInvalidPage, "CLOCK sweep found no victim");
  return victim;
}

PageNum Epc::choose_victim_in(PageTable& pt, PageNum lo, PageNum hi,
                              PageNum pinned) {
  SGXPL_CHECK_MSG(used() > 0, "no occupied EPC slot to evict");
  // At most two full sweeps: the first may clear every in-range access bit,
  // the second must then find an in-range victim — or prove the range holds
  // nothing evictable. The +1 covers the pinned page being the only clear
  // candidate on the boundary.
  const std::uint64_t limit = 2 * capacity_ + 1;
  dirty_.mark_scalar();  // the sweep moves the CLOCK hand
  bool any_candidate = false;
  for (std::uint64_t step = 0; step < limit; ++step) {
    const SlotIndex slot = clock_hand_;
    if (++clock_hand_ == capacity_) clock_hand_ = 0;
    const PageNum page = slot_to_page_[slot];
    if (page == kInvalidPage || page == pinned || page < lo || page >= hi) {
      continue;
    }
    any_candidate = true;
    if (!pt.test_and_clear_accessed(page)) {
      return page;
    }
  }
  SGXPL_CHECK_MSG(!any_candidate,
                  "range-restricted CLOCK sweep cleared every bit twice "
                  "without finding a victim");
  return kInvalidPage;
}

void Epc::write(snapshot::Writer& w, bool delta) const {
  w.u64("epc.capacity", capacity_);
  w.u64("epc.used", used());
  w.u64("epc.clock_hand", clock_hand_);
  if (delta) {
    std::vector<std::uint64_t> slots;
    std::vector<std::uint64_t> pages;
    dirty_.bits().for_each([&](std::uint64_t s) {
      slots.push_back(s);
      pages.push_back(slot_to_page_[s]);
    });
    w.u64_vec("epc.delta_runs", snapshot::encode_runs(slots));
    w.u64_vec("epc.delta_pages", pages);
  } else {
    w.u64_vec("epc.slot_to_page", slot_to_page_);
  }
  std::vector<std::uint64_t> free_list(free_list_.begin(), free_list_.end());
  w.u64_vec("epc.free_list", free_list);
}

void Epc::restore(snapshot::Reader& r, bool delta) {
  const char* what = delta ? "snapshot EPC delta" : "snapshot EPC";
  const std::uint64_t capacity = r.u64("epc.capacity");
  SGXPL_CHECK_MSG(capacity == capacity_,
                  what << " capacity " << capacity
                       << " does not match this EPC (" << capacity_ << ")");
  const std::uint64_t used = r.u64("epc.used");
  const std::uint64_t hand = r.u64("epc.clock_hand");
  SGXPL_CHECK_MSG(used <= capacity_ && hand < capacity_,
                  what << " counters out of range");
  std::vector<std::uint64_t> slots;
  if (delta) {
    slots = snapshot::decode_runs(r.u64_vec("epc.delta_runs"), capacity_,
                                  "EPC slot");
  }
  const std::vector<std::uint64_t> pages =
      r.u64_vec(delta ? "epc.delta_pages" : "epc.slot_to_page");
  const std::vector<std::uint64_t> free_list = r.u64_vec("epc.free_list");
  SGXPL_CHECK_MSG(pages.size() == (delta ? slots.size() : capacity_) &&
                      free_list.size() == capacity_ - used,
                  what << " slot/free-list sizes are inconsistent");
  // A whole-EPC load rewrites, and so marks dirty, every slot.
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const std::uint64_t slot = delta ? slots[i] : i;
    slot_to_page_[slot] = pages[i];
    dirty_.mark(slot);
  }
  free_list_.clear();
  for (const std::uint64_t s : free_list) {
    SGXPL_CHECK_MSG(s < capacity_ && slot_to_page_[s] == kInvalidPage,
                    what << " free list entry " << s << " is invalid");
    free_list_.push_back(static_cast<SlotIndex>(s));
  }
  clock_hand_ = static_cast<SlotIndex>(hand);
}

}  // namespace sgxpl::sgxsim
