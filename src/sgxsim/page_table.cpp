#include "sgxsim/page_table.h"

#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

namespace {
constexpr std::uint64_t kPresentBit = 1ull << 32;
constexpr std::uint64_t kAccessedBit = 1ull << 33;
constexpr std::uint64_t kPreloadedBit = 1ull << 34;
}  // namespace

std::uint64_t pack_entry(const PageTableEntry& e, bool present) noexcept {
  return e.slot | (present ? kPresentBit : 0) |
         (e.accessed ? kAccessedBit : 0) | (e.preloaded ? kPreloadedBit : 0);
}

std::pair<PageTableEntry, bool> unpack_entry(std::uint64_t v) noexcept {
  return {PageTableEntry{.slot = static_cast<SlotIndex>(v & 0xFFFFFFFFull),
                         .accessed = (v & kAccessedBit) != 0,
                         .preloaded = (v & kPreloadedBit) != 0},
          (v & kPresentBit) != 0};
}

PageTable::PageTable(PageNum elrange_pages)
    : entries_(elrange_pages), present_(elrange_pages),
      dirty_(elrange_pages) {
  SGXPL_CHECK_MSG(elrange_pages > 0, "ELRANGE must contain at least one page");
}

void PageTable::map(PageNum page, SlotIndex slot, bool via_preload) {
  const bool was_absent = present_.set(page);
  SGXPL_CHECK_MSG(was_absent, "double map of page " << page);
  entries_[page] = PageTableEntry{.slot = slot, .accessed = false,
                                  .preloaded = via_preload};
  dirty_.mark(page);
}

PageTableEntry PageTable::unmap(PageNum page) {
  const bool was_present = present_.clear(page);
  SGXPL_CHECK_MSG(was_present, "unmap of non-resident page " << page);
  const PageTableEntry prior = std::exchange(entries_[page], PageTableEntry{});
  dirty_.mark(page);
  return prior;
}

bool PageTable::test_and_clear_accessed(PageNum page) {
  SGXPL_DCHECK(page < entries_.size());
  auto& e = entries_[page];
  const bool was = e.accessed;
  if (was) dirty_.mark(page);
  e.accessed = false;
  return was;
}

void PageTable::write(snapshot::Writer& w, bool delta) const {
  w.u64("pt.pages", elrange_pages());
  w.u64("pt.resident", resident_count());
  std::vector<std::uint64_t> pages;
  std::vector<std::uint64_t> packed;
  const auto pack = [&](std::uint64_t p) {
    packed.push_back(pack_entry(entries_[p], present_.test(p)));
  };
  if (delta) {
    dirty_.bits().for_each([&](std::uint64_t p) {
      pages.push_back(p);
      pack(p);
    });
    w.u64_vec("pt.delta_runs", snapshot::encode_runs(pages));
  } else {
    packed.reserve(elrange_pages());
    for (PageNum p = 0; p < elrange_pages(); ++p) pack(p);
  }
  w.u64_vec(delta ? "pt.delta_entries" : "pt.entries", packed);
}

void PageTable::restore(snapshot::Reader& r, bool delta) {
  const char* what =
      delta ? "snapshot page-table delta" : "snapshot page table";
  const std::uint64_t pages = r.u64("pt.pages");
  SGXPL_CHECK_MSG(pages == elrange_pages(),
                  what << " covers " << pages
                       << " ELRANGE pages but this enclave has "
                       << elrange_pages());
  const std::uint64_t resident = r.u64("pt.resident");
  std::vector<std::uint64_t> ids;
  if (delta) {
    ids = snapshot::decode_runs(r.u64_vec("pt.delta_runs"),
                                elrange_pages(), "page-table");
  }
  const std::vector<std::uint64_t> packed =
      r.u64_vec(delta ? "pt.delta_entries" : "pt.entries");
  const std::uint64_t expected = delta ? ids.size() : elrange_pages();
  SGXPL_CHECK_MSG(packed.size() == expected,
                  what << " holds " << packed.size() << " entries for "
                       << expected << " pages");
  // A whole-table load installs, and so marks dirty, every page: it
  // invalidates any delta baseline a caller may hold.
  for (std::size_t i = 0; i < packed.size(); ++i) {
    install(delta ? ids[i] : i, packed[i]);
  }
  SGXPL_CHECK_MSG(present_.count() == resident,
                  what << " is inconsistent: " << present_.count()
                       << " present pages, the frame recorded " << resident);
}

void PageTable::install(PageNum page, std::uint64_t packed) {
  const auto [e, present] = unpack_entry(packed);
  entries_[page] = e;
  if (present) {
    present_.set(page);
  } else {
    present_.clear(page);
  }
  dirty_.mark(page);
}

}  // namespace sgxpl::sgxsim
