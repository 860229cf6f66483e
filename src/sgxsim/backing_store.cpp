#include "sgxsim/backing_store.h"

#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

BackingStore::BackingStore(PageNum elrange_pages)
    : versions_(elrange_pages, 0), dirty_(elrange_pages) {
  SGXPL_CHECK_MSG(elrange_pages > 0, "ELRANGE must contain at least one page");
}

std::uint64_t BackingStore::evict(PageNum page) {
  SGXPL_DCHECK(page < versions_.size());
  const std::uint64_t version = ++versions_[page];
  ++total_evictions_;
  dirty_.mark(page);
  return version;
}

void BackingStore::write(snapshot::Writer& w, bool delta) const {
  std::vector<std::uint64_t> pages;
  if (delta) {
    dirty_.bits().for_each([&](std::uint64_t page) { pages.push_back(page); });
  } else {
    for (PageNum page = 0; page < versions_.size(); ++page) {
      if (versions_[page] > 0) pages.push_back(page);
    }
  }
  std::vector<std::uint64_t> versions;
  versions.reserve(pages.size());
  for (const std::uint64_t page : pages) versions.push_back(versions_[page]);
  w.u64("backing.total_evictions", total_evictions_);
  w.u64("backing.total_loads", total_loads_);
  w.u64_vec(delta ? "backing.delta_pages" : "backing.pages", pages);
  w.u64_vec(delta ? "backing.delta_versions" : "backing.versions", versions);
}

void BackingStore::restore(snapshot::Reader& r, bool delta) {
  const std::string_view pages_label =
      delta ? "backing.delta_pages" : "backing.pages";
  const std::string_view versions_label =
      delta ? "backing.delta_versions" : "backing.versions";
  const std::uint64_t total_evictions = r.u64("backing.total_evictions");
  const std::uint64_t total_loads = r.u64("backing.total_loads");
  const std::vector<std::uint64_t> pages = r.u64_vec(pages_label);
  const std::vector<std::uint64_t> versions = r.u64_vec(versions_label);
  SGXPL_CHECK_MSG(pages.size() == versions.size(),
                  "snapshot " << pages_label << " and " << versions_label
                              << " are misaligned");
  snapshot::check_page_list(pages, versions_.size(), pages_label);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    SGXPL_CHECK_MSG(versions[i] > 0, "snapshot " << versions_label
                                         << " holds version 0 for page "
                                         << pages[i]);
  }
  total_evictions_ = total_evictions;
  total_loads_ = total_loads;
  if (!delta) {
    // Whole-store load: every populated slot is dirty until clear_dirty().
    versions_.assign(versions_.size(), 0);
    dirty_.clear();
  }
  for (std::size_t i = 0; i < pages.size(); ++i) {
    versions_[pages[i]] = versions[i];
    dirty_.mark(pages[i]);
  }
  dirty_.mark_scalar();
}

}  // namespace sgxpl::sgxsim
