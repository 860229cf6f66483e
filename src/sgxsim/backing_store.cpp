#include "sgxsim/backing_store.h"

#include <algorithm>
#include <string_view>

#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

namespace {

/// The version slots of one BSTR/BSTD section: parallel page and version
/// lists, pages strictly ascending and inside the ELRANGE, no version 0.
struct VersionLists {
  std::vector<std::uint64_t> pages;
  std::vector<std::uint64_t> versions;
};

VersionLists read_version_lists(snapshot::Reader& r,
                                std::string_view pages_label,
                                std::string_view versions_label,
                                PageNum elrange_pages, const char* what) {
  VersionLists out{r.u64_vec(pages_label), r.u64_vec(versions_label)};
  SGXPL_CHECK_MSG(out.pages.size() == out.versions.size(),
                  "snapshot " << what << " page/version lists are misaligned");
  for (std::size_t i = 0; i < out.pages.size(); ++i) {
    const std::uint64_t page = out.pages[i];
    SGXPL_CHECK_MSG(page < elrange_pages,
                    "snapshot " << what << " page " << page
                        << " lies outside the " << elrange_pages
                        << "-page ELRANGE");
    SGXPL_CHECK_MSG(i == 0 || page > out.pages[i - 1],
                    "snapshot " << what << " pages are not sorted and "
                        "unique at page " << page);
    SGXPL_CHECK_MSG(out.versions[i] > 0,
                    "snapshot " << what << " holds version 0 for page "
                        << page);
  }
  return out;
}

}  // namespace

BackingStore::BackingStore(PageNum elrange_pages)
    : versions_(elrange_pages, 0), dirty_flag_(elrange_pages, false) {
  SGXPL_CHECK_MSG(elrange_pages > 0, "ELRANGE must contain at least one page");
}

void BackingStore::mark_dirty(PageNum page) {
  if (!dirty_flag_[page]) {
    dirty_flag_[page] = true;
    dirty_list_.push_back(page);
  }
}

std::uint64_t BackingStore::evict(PageNum page) {
  SGXPL_DCHECK(page < versions_.size());
  const std::uint64_t version = ++versions_[page];
  ++total_evictions_;
  ++gen_;
  mark_dirty(page);
  return version;
}

void BackingStore::save(snapshot::Writer& w) const {
  w.u64("backing.total_evictions", total_evictions_);
  w.u64("backing.total_loads", total_loads_);
  std::vector<std::uint64_t> pages;
  std::vector<std::uint64_t> versions;
  for (PageNum page = 0; page < versions_.size(); ++page) {
    if (versions_[page] > 0) {
      pages.push_back(page);
      versions.push_back(versions_[page]);
    }
  }
  w.u64_vec("backing.pages", pages);
  w.u64_vec("backing.versions", versions);
}

void BackingStore::load(snapshot::Reader& r) {
  const std::uint64_t total_evictions = r.u64("backing.total_evictions");
  const std::uint64_t total_loads = r.u64("backing.total_loads");
  const VersionLists lists =
      read_version_lists(r, "backing.pages", "backing.versions",
                         versions_.size(), "backing store");
  total_evictions_ = total_evictions;
  total_loads_ = total_loads;
  versions_.assign(versions_.size(), 0);
  // Whole-store load: every populated slot is dirty until clear_dirty().
  clear_dirty();
  for (std::size_t i = 0; i < lists.pages.size(); ++i) {
    versions_[lists.pages[i]] = lists.versions[i];
    mark_dirty(lists.pages[i]);
  }
  ++gen_;
}

void BackingStore::save_delta(snapshot::Writer& w) const {
  w.u64("backing.total_evictions", total_evictions_);
  w.u64("backing.total_loads", total_loads_);
  std::vector<std::uint64_t> pages = dirty_list_;
  std::sort(pages.begin(), pages.end());
  std::vector<std::uint64_t> versions;
  versions.reserve(pages.size());
  for (const std::uint64_t page : pages) versions.push_back(versions_[page]);
  w.u64_vec("backing.delta_pages", pages);
  w.u64_vec("backing.delta_versions", versions);
}

void BackingStore::apply_delta(snapshot::Reader& r) {
  const std::uint64_t total_evictions = r.u64("backing.total_evictions");
  const std::uint64_t total_loads = r.u64("backing.total_loads");
  const VersionLists lists =
      read_version_lists(r, "backing.delta_pages", "backing.delta_versions",
                         versions_.size(), "backing-store delta");
  total_evictions_ = total_evictions;
  total_loads_ = total_loads;
  for (std::size_t i = 0; i < lists.pages.size(); ++i) {
    versions_[lists.pages[i]] = lists.versions[i];
    mark_dirty(lists.pages[i]);
  }
  ++gen_;
}

void BackingStore::clear_dirty() {
  for (const std::uint64_t page : dirty_list_) dirty_flag_[page] = false;
  dirty_list_.clear();
}

}  // namespace sgxpl::sgxsim
