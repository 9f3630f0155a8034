#include "src/sim/pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace mstk {
namespace {

struct Payload {
  int value = 0;
};

TEST(SlabPoolTest, HandsOutSequentialSlotsWhenFresh) {
  SlabPool<Payload> pool;
  for (uint32_t i = 0; i < 3 * SlabPool<Payload>::kSlabSize; ++i) {
    EXPECT_EQ(pool.Acquire(), i);
  }
  EXPECT_EQ(pool.live(), 3 * SlabPool<Payload>::kSlabSize);
  EXPECT_EQ(pool.Size(), 3 * SlabPool<Payload>::kSlabSize);
}

TEST(SlabPoolTest, ReusesReleasedSlotsLifo) {
  SlabPool<Payload> pool;
  const auto a = pool.Acquire();
  const auto b = pool.Acquire();
  const auto c = pool.Acquire();
  pool.Release(b);
  pool.Release(c);
  // Most recently released comes back first (hot slots stay in cache).
  EXPECT_EQ(pool.Acquire(), c);
  EXPECT_EQ(pool.Acquire(), b);
  // No new slab was needed for the churn.
  EXPECT_EQ(pool.Size(), SlabPool<Payload>::kSlabSize);
  pool.Release(a);
  EXPECT_EQ(pool.Acquire(), a);
}

TEST(SlabPoolTest, SlotStateSurvivesRelease) {
  // Slots are constructed once and reused in place; callers own resetting
  // state. Verify the object identity is stable across a release/acquire.
  SlabPool<Payload> pool;
  const auto slot = pool.Acquire();
  pool[slot].value = 42;
  pool.Release(slot);
  const auto again = pool.Acquire();
  ASSERT_EQ(again, slot);
  EXPECT_EQ(pool[again].value, 42);
}

TEST(SlabPoolTest, PointersStableAcrossGrowth) {
  SlabPool<Payload> pool;
  const auto first = pool.Acquire();
  Payload* p = &pool[first];
  p->value = 7;
  // Force several slab growths; earlier slabs must not move.
  std::vector<uint32_t> slots;
  for (int i = 0; i < 10 * static_cast<int>(SlabPool<Payload>::kSlabSize); ++i) {
    slots.push_back(pool.Acquire());
  }
  EXPECT_EQ(p, &pool[first]);
  EXPECT_EQ(p->value, 7);
}

TEST(SlabPoolTest, LiveCountTracksChurn) {
  SlabPool<Payload> pool;
  std::vector<uint32_t> slots;
  for (int i = 0; i < 100; ++i) {
    slots.push_back(pool.Acquire());
  }
  EXPECT_EQ(pool.live(), 100u);
  for (int i = 0; i < 60; ++i) {
    pool.Release(slots.back());
    slots.pop_back();
  }
  EXPECT_EQ(pool.live(), 40u);
  for (int i = 0; i < 25; ++i) {
    slots.push_back(pool.Acquire());
  }
  EXPECT_EQ(pool.live(), 65u);
}

}  // namespace
}  // namespace mstk
