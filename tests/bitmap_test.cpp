#include "sgxsim/bitmap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sgxsim/page_bits.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {
namespace {

TEST(PresenceBitmap, StartsAllClear) {
  PresenceBitmap bm(200);
  EXPECT_EQ(bm.pages(), 200u);
  EXPECT_EQ(bm.popcount(), 0u);
  for (PageNum p = 0; p < 200; ++p) {
    EXPECT_FALSE(bm.test(p));
  }
}

TEST(PresenceBitmap, SetTestClear) {
  PresenceBitmap bm(100);
  bm.set(0);
  bm.set(63);
  bm.set(64);
  bm.set(99);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(63));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(99));
  EXPECT_FALSE(bm.test(1));
  EXPECT_EQ(bm.popcount(), 4u);
  bm.clear(63);
  EXPECT_FALSE(bm.test(63));
  EXPECT_EQ(bm.popcount(), 3u);
}

TEST(PresenceBitmap, SetIdempotent) {
  PresenceBitmap bm(10);
  bm.set(5);
  bm.set(5);
  EXPECT_EQ(bm.popcount(), 1u);
  bm.clear(5);
  bm.clear(5);
  EXPECT_EQ(bm.popcount(), 0u);
}

TEST(PresenceBitmap, WordBoundarySizes) {
  // Sizes around the 64-bit word boundary must all work.
  for (const PageNum n : {1u, 63u, 64u, 65u, 128u}) {
    PresenceBitmap bm(n);
    for (PageNum p = 0; p < n; ++p) {
      bm.set(p);
    }
    EXPECT_EQ(bm.popcount(), n) << "size " << n;
  }
}

TEST(PresenceBitmap, RestoresRecountThePopulation) {
  // popcount() is a counter; a whole load and a delta replay must leave it
  // equal to the bits they wrote.
  PresenceBitmap src(200);
  for (const PageNum p : {3u, 64u, 65u, 190u}) src.set(p);
  snapshot::Writer full;
  full.begin_section("BMAP");
  src.save(full);
  full.end_section();
  src.clear_dirty();
  src.clear(64);
  src.set(7);
  src.set(8);
  snapshot::Writer delta;
  delta.begin_section("BMPD");
  src.save_delta(delta);
  delta.end_section();

  PresenceBitmap dst(200);
  dst.set(100);  // overwritten by the load
  const auto full_bytes = full.finish();
  snapshot::Reader r(full_bytes);
  r.enter_section("BMAP");
  dst.load(r);
  EXPECT_EQ(dst.popcount(), 4u);
  const auto delta_bytes = delta.finish();
  snapshot::Reader rd(delta_bytes);
  rd.enter_section("BMPD");
  dst.apply_delta(rd);
  EXPECT_EQ(dst.popcount(), src.popcount());
  EXPECT_EQ(dst.popcount(), 5u);
}

TEST(PresenceBitmap, RejectsZeroPages) {
  EXPECT_THROW(PresenceBitmap(0), CheckFailure);
}

// --- The page-bitset layer ---------------------------------------------------

std::vector<std::uint64_t> walk(const PageBits& bits) {
  std::vector<std::uint64_t> out;
  bits.for_each([&out](std::uint64_t i) { out.push_back(i); });
  return out;
}

TEST(PageBits, MatchesAStdSetModelOnRandomOperations) {
  // Sizes on and off a 64-bit word boundary.
  for (const std::uint64_t size :
       std::vector<std::uint64_t>{1, 5, 63, 64, 65, 128, 200, 1000}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "size " << size << " seed " << seed);
      Rng rng(seed * 7919 + size);
      PageBits bits(size);
      std::set<std::uint64_t> model;
      for (int op = 0; op < 3000; ++op) {
        const std::uint64_t i = rng.bounded(size);
        const std::uint64_t roll = rng.bounded(100);
        if (roll < 45) {
          ASSERT_EQ(bits.set(i), model.insert(i).second);
        } else if (roll < 85) {
          ASSERT_EQ(bits.clear(i), model.erase(i) == 1);
        } else if (roll < 99) {
          const std::uint64_t lo = rng.bounded(size + 1);
          const std::uint64_t hi = lo + rng.bounded(size + 1 - lo);
          ASSERT_EQ(bits.count(lo, hi),
                    static_cast<std::uint64_t>(std::distance(
                        model.lower_bound(lo), model.lower_bound(hi))))
              << "[" << lo << ", " << hi << ")";
        } else {
          bits.clear_all();
          model.clear();
        }
        ASSERT_EQ(bits.count(), model.size());
        ASSERT_EQ(bits.test(i), model.count(i) == 1);
        if (op % 100 == 0) {
          ASSERT_EQ(walk(bits),
                    std::vector<std::uint64_t>(model.begin(), model.end()));
        }
      }
      EXPECT_EQ(walk(bits),
                std::vector<std::uint64_t>(model.begin(), model.end()));
      EXPECT_EQ(bits.count(0, size), model.size());

      // Word-wise equality against a copy rebuilt from the model, then the
      // first difference after flipping one bit of the copy.
      PageBits copy(size);
      for (const std::uint64_t i : model) copy.set(i);
      EXPECT_EQ(bits.first_difference(copy), size);
      const std::uint64_t flip = rng.bounded(size);
      if (!copy.clear(flip)) copy.set(flip);
      EXPECT_EQ(bits.first_difference(copy), flip);
      EXPECT_EQ(copy.first_difference(bits), flip);
    }
  }
}

TEST(PageBits, RestoredWordsKeepTheCount) {
  PageBits bits(100);
  bits.set(3);
  bits.set_word(0, 0xF0);
  bits.set_word(1, 1ull << 35);  // page 99
  EXPECT_EQ(bits.count(), 5u);
  EXPECT_EQ(walk(bits), (std::vector<std::uint64_t>{4, 5, 6, 7, 99}));
}

TEST(DirtyBits, ChangedTracksMarksAndScalarsUntilCleared) {
  DirtyBits dirty(70);
  EXPECT_FALSE(dirty.changed());
  dirty.mark(69);
  dirty.mark(69);
  EXPECT_TRUE(dirty.changed());
  EXPECT_EQ(walk(dirty.bits()), std::vector<std::uint64_t>{69});
  dirty.clear();
  EXPECT_FALSE(dirty.changed());
  dirty.mark_scalar();
  EXPECT_TRUE(dirty.changed());
  EXPECT_EQ(dirty.bits().count(), 0u);
  dirty.clear();
  EXPECT_FALSE(dirty.changed());
}

}  // namespace
}  // namespace sgxpl::sgxsim
