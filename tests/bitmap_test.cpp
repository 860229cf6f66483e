#include "sgxsim/bitmap.h"

#include <gtest/gtest.h>

#include "common/check.h"
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

}  // namespace
}  // namespace sgxpl::sgxsim
