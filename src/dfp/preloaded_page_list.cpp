#include "dfp/preloaded_page_list.h"

#include <utility>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::dfp {

void PreloadedPageList::list(PageNum page) {
  if (page >= listed_.size()) {
    listed_.resize(page + 1, 0);
  }
  if (listed_[page] == 0) {
    listed_[page] = 1;
    ++tracked_;
  }
}

void PreloadedPageList::unlist(PageNum page) noexcept {
  listed_[page] = 0;
  --tracked_;
}

void PreloadedPageList::on_loaded(PageNum page) {
  list(page);
  pending_.push_back(page);
  ++preload_counter_;
}

void PreloadedPageList::on_touched(PageNum page) {
  if (listed(page)) {
    pending_.push_back(page);
  }
}

void PreloadedPageList::on_evicted(PageNum page) {
  if (listed(page)) {
    unlist(page);
    ++evicted_unused_;
  }
}

std::uint64_t PreloadedPageList::scan(const sgxsim::PageTable& pt) {
  std::uint64_t credited = 0;
  for (const PageNum page : pending_) {
    if (!listed(page)) {
      continue;  // evicted, or settled by an earlier entry of this walk
    }
    if (page >= pt.elrange_pages() || !pt.present(page)) {
      // Evicted between notifications; treat as unused (conservative).
      unlist(page);
      ++evicted_unused_;
      continue;
    }
    const auto& entry = pt.entry(page);
    if (entry.accessed || !entry.preloaded) {
      // The access bit is set, or the hardware already cleared the
      // preloaded flag on first touch (the bit may have been consumed by a
      // CLOCK sweep since): the preload paid off.
      unlist(page);
      ++acc_preload_counter_;
      ++credited;
    }
    // Otherwise the page stays listed, unaccessed, until its first touch
    // or its eviction is reported.
  }
  pending_.clear();
  return credited;
}

std::vector<PageNum> PreloadedPageList::pages() const {
  std::vector<PageNum> out;
  out.reserve(tracked_);
  for (PageNum p = 0; p < listed_.size() && out.size() < tracked_; ++p) {
    if (listed_[p] != 0) {
      out.push_back(p);
    }
  }
  return out;
}

void PreloadedPageList::reset() {
  listed_.clear();
  tracked_ = 0;
  pending_.clear();
  preload_counter_ = 0;
  acc_preload_counter_ = 0;
  evicted_unused_ = 0;
}

void PreloadedPageList::save(snapshot::Writer& w) const {
  w.u64("ppl.preload_counter", preload_counter_);
  w.u64("ppl.acc_preload_counter", acc_preload_counter_);
  w.u64("ppl.evicted_unused", evicted_unused_);
  w.u64_vec("ppl.pages", pages());
}

void PreloadedPageList::load(snapshot::Reader& r, PageNum elrange_pages) {
  const std::uint64_t preload_counter = r.u64("ppl.preload_counter");
  const std::uint64_t acc_preload_counter = r.u64("ppl.acc_preload_counter");
  const std::uint64_t evicted_unused = r.u64("ppl.evicted_unused");
  std::vector<std::uint64_t> pages = r.u64_vec("ppl.pages");
  snapshot::check_page_list(pages, elrange_pages, "ppl.pages");
  reset();
  preload_counter_ = preload_counter;
  acc_preload_counter_ = acc_preload_counter;
  evicted_unused_ = evicted_unused;
  if (!pages.empty()) {
    listed_.resize(pages.back() + 1, 0);
  }
  for (const PageNum page : pages) {
    listed_[page] = 1;
  }
  tracked_ = pages.size();
  pending_ = std::move(pages);
}

}  // namespace sgxpl::dfp
