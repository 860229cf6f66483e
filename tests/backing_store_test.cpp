#include "sgxsim/backing_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {
namespace {

using snapshot::Reader;
using snapshot::Writer;

TEST(BackingStore, NeverEvictedPageLoadsVersionZero) {
  BackingStore bs(64);
  EXPECT_EQ(bs.load(42), 0u);
  EXPECT_EQ(bs.eviction_count(42), 0u);
}

TEST(BackingStore, EvictBumpsAntiReplayVersion) {
  BackingStore bs(64);
  EXPECT_EQ(bs.evict(7), 1u);
  EXPECT_EQ(bs.evict(7), 2u);
  EXPECT_EQ(bs.load(7), 2u);
  EXPECT_EQ(bs.eviction_count(7), 2u);
}

TEST(BackingStore, FreshnessPerPage) {
  BackingStore bs(64);
  bs.evict(1);
  bs.evict(1);
  bs.evict(2);
  // Each page's load sees exactly its own latest EWB version.
  EXPECT_EQ(bs.load(1), 2u);
  EXPECT_EQ(bs.load(2), 1u);
  EXPECT_EQ(bs.load(3), 0u);
}

TEST(BackingStore, GlobalCounters) {
  BackingStore bs(64);
  bs.evict(1);
  bs.evict(2);
  bs.load(1);
  bs.load(1);
  bs.load(9);
  EXPECT_EQ(bs.total_evictions(), 2u);
  EXPECT_EQ(bs.total_loads(), 3u);
}

TEST(BackingStore, RejectsEmptyElrange) {
  EXPECT_THROW(BackingStore(0), CheckFailure);
}

// --- Snapshot sections -----------------------------------------------------

const char* section_tag(bool delta) { return delta ? "BSTD" : "BSTR"; }

template <typename Store>
std::vector<std::uint8_t> frame_of(const Store& s, bool delta) {
  Writer w;
  w.begin_section(section_tag(delta));
  if (delta) {
    s.save_delta(w);
  } else {
    s.save(w);
  }
  w.end_section();
  return w.finish();
}

template <typename Store>
void restore(Store& s, const std::vector<std::uint8_t>& frame, bool delta) {
  Reader r(frame);
  r.enter_section(section_tag(delta));
  if (delta) {
    s.apply_delta(r);
  } else {
    s.load(r);
  }
  r.leave_section();
}

/// A hand-built BSTR (full) or BSTD (delta) section with the given lists.
std::vector<std::uint8_t> section_with(bool delta,
                                       const std::vector<std::uint64_t>& pages,
                                       const std::vector<std::uint64_t>& versions) {
  Writer w;
  w.begin_section(section_tag(delta));
  w.u64("backing.total_evictions", 5);
  w.u64("backing.total_loads", 3);
  w.u64_vec(delta ? "backing.delta_pages" : "backing.pages", pages);
  w.u64_vec(delta ? "backing.delta_versions" : "backing.versions", versions);
  w.end_section();
  return w.finish();
}

void expect_rejected_by_load_and_apply_delta(
    const std::vector<std::uint64_t>& pages,
    const std::vector<std::uint64_t>& versions) {
  for (const bool delta : {false, true}) {
    BackingStore bs(8);
    EXPECT_THROW(restore(bs, section_with(delta, pages, versions), delta),
                 CheckFailure)
        << section_tag(delta);
  }
}

TEST(BackingStore, RestoreAcceptsAWellFormedSection) {
  for (const bool delta : {false, true}) {
    BackingStore bs(8);
    restore(bs, section_with(delta, {0, 3, 7}, {2, 1, 4}), delta);
    EXPECT_EQ(bs.eviction_count(0), 2u);
    EXPECT_EQ(bs.eviction_count(3), 1u);
    EXPECT_EQ(bs.eviction_count(7), 4u);
    EXPECT_EQ(bs.total_evictions(), 5u);
    EXPECT_EQ(bs.total_loads(), 3u);
  }
}

TEST(BackingStore, RestoreRejectsAPageOutsideTheElrange) {
  expect_rejected_by_load_and_apply_delta({3, 8}, {1, 1});
}

TEST(BackingStore, RestoreRejectsUnsortedPages) {
  expect_rejected_by_load_and_apply_delta({5, 2}, {1, 1});
}

TEST(BackingStore, RestoreRejectsDuplicatedPages) {
  expect_rejected_by_load_and_apply_delta({4, 4}, {1, 2});
}

TEST(BackingStore, RestoreRejectsVersionZero) {
  expect_rejected_by_load_and_apply_delta({1, 2}, {1, 0});
}

TEST(BackingStore, RestoreRejectsMisalignedLists) {
  expect_rejected_by_load_and_apply_delta({1, 2}, {1});
}

TEST(BackingStore, RejectedRestoreLeavesTheStoreUntouched) {
  for (const bool delta : {false, true}) {
    BackingStore bs(8);
    bs.evict(2);
    bs.load(2);
    const std::vector<std::uint8_t> before = frame_of(bs, false);
    EXPECT_THROW(restore(bs, section_with(delta, {1, 9}, {1, 1}), delta),
                 CheckFailure);
    EXPECT_EQ(frame_of(bs, false), before) << section_tag(delta);
  }
}

// --- Reference-model property test -----------------------------------------

/// The sparse map-based store the dense one replaced, kept as the model:
/// versions in an ordered map, dirty pages in an ordered set.
class ModelStore {
 public:
  std::uint64_t evict(PageNum page) {
    ++total_evictions_;
    changed_ = true;
    dirty_.insert(page);
    return ++versions_[page];
  }
  std::uint64_t load(PageNum page) {
    ++total_loads_;
    changed_ = true;
    return eviction_count(page);
  }
  std::uint64_t eviction_count(PageNum page) const {
    const auto it = versions_.find(page);
    return it == versions_.end() ? 0 : it->second;
  }
  std::uint64_t total_evictions() const { return total_evictions_; }
  std::uint64_t total_loads() const { return total_loads_; }
  bool changed() const { return changed_; }

  void save(Writer& w) const {
    std::vector<std::uint64_t> pages;
    for (const auto& [page, version] : versions_) pages.push_back(page);
    write(w, "backing.pages", "backing.versions", pages);
  }
  void save_delta(Writer& w) const {
    const std::vector<std::uint64_t> pages(dirty_.begin(), dirty_.end());
    write(w, "backing.delta_pages", "backing.delta_versions", pages);
  }
  void load(Reader& r) {
    versions_.clear();
    dirty_.clear();
    apply(r, "backing.pages", "backing.versions");
  }
  void apply_delta(Reader& r) {
    apply(r, "backing.delta_pages", "backing.delta_versions");
  }
  void clear_dirty() {
    dirty_.clear();
    changed_ = false;
  }

 private:
  void write(Writer& w, const char* pages_label, const char* versions_label,
             const std::vector<std::uint64_t>& pages) const {
    w.u64("backing.total_evictions", total_evictions_);
    w.u64("backing.total_loads", total_loads_);
    std::vector<std::uint64_t> versions;
    for (const std::uint64_t page : pages) versions.push_back(versions_.at(page));
    w.u64_vec(pages_label, pages);
    w.u64_vec(versions_label, versions);
  }
  void apply(Reader& r, const char* pages_label, const char* versions_label) {
    total_evictions_ = r.u64("backing.total_evictions");
    total_loads_ = r.u64("backing.total_loads");
    const std::vector<std::uint64_t> pages = r.u64_vec(pages_label);
    const std::vector<std::uint64_t> versions = r.u64_vec(versions_label);
    for (std::size_t i = 0; i < pages.size(); ++i) {
      versions_[pages[i]] = versions[i];
      dirty_.insert(pages[i]);
    }
    changed_ = true;
  }

  std::map<PageNum, std::uint64_t> versions_;
  std::set<PageNum> dirty_;
  std::uint64_t total_evictions_ = 0;
  std::uint64_t total_loads_ = 0;
  bool changed_ = false;
};

constexpr PageNum kModelPages = 48;

void expect_same(const BackingStore& bs, const ModelStore& model,
                 const char* which, std::uint64_t seed, int op) {
  SCOPED_TRACE(testing::Message() << which << " seed " << seed << " op " << op);
  ASSERT_EQ(bs.total_evictions(), model.total_evictions());
  ASSERT_EQ(bs.total_loads(), model.total_loads());
  ASSERT_EQ(bs.changed(), model.changed());
  for (PageNum page = 0; page < kModelPages; ++page) {
    ASSERT_EQ(bs.eviction_count(page), model.eviction_count(page))
        << "page " << page;
  }
  ASSERT_EQ(frame_of(bs, false), frame_of(model, false));
  ASSERT_EQ(frame_of(bs, true), frame_of(model, true));
}

TEST(BackingStore, MatchesTheMapReferenceModelOnRandomOperationSequences) {
  // A primary pair runs EWB/ELDU and checkpoints; a replica pair restores
  // those checkpoints (full and delta) and also runs its own operations, so
  // deltas land on top of diverged state as they do after a recovery.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    BackingStore bs(kModelPages);
    ModelStore model;
    BackingStore replica(kModelPages);
    ModelStore replica_model;
    for (int op = 0; op < 1500; ++op) {
      const std::uint64_t roll = rng.bounded(100);
      const PageNum page = rng.bounded(kModelPages);
      if (roll < 35) {
        ASSERT_EQ(bs.evict(page), model.evict(page));
      } else if (roll < 60) {
        ASSERT_EQ(bs.load(page), model.load(page));
      } else if (roll < 68) {
        bs.clear_dirty();
        model.clear_dirty();
      } else if (roll < 80) {
        const std::vector<std::uint8_t> frame = frame_of(bs, true);
        ASSERT_EQ(frame, frame_of(model, true));
        restore(replica, frame, true);
        restore(replica_model, frame, true);
        if (rng.bounded(2) == 0) {
          bs.clear_dirty();
          model.clear_dirty();
        }
      } else if (roll < 86) {
        const std::vector<std::uint8_t> frame = frame_of(bs, false);
        ASSERT_EQ(frame, frame_of(model, false));
        restore(replica, frame, false);
        restore(replica_model, frame, false);
      } else if (roll < 92) {
        ASSERT_EQ(replica.evict(page), replica_model.evict(page));
      } else if (roll < 96) {
        ASSERT_EQ(replica.load(page), replica_model.load(page));
      } else {
        replica.clear_dirty();
        replica_model.clear_dirty();
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(bs, model, "primary", seed, op));
      ASSERT_NO_FATAL_FAILURE(
          expect_same(replica, replica_model, "replica", seed, op));
    }
  }
}

}  // namespace
}  // namespace sgxpl::sgxsim
