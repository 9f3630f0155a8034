#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "src/workload/cello_like.h"
#include "src/workload/random_workload.h"
#include "src/workload/tpcc_like.h"

namespace mstk {
namespace {

constexpr int64_t kCapacity = 6750000;

TEST(RandomWorkloadTest, BasicStatistics) {
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = 500.0;
  config.request_count = 50000;
  config.capacity_blocks = kCapacity;
  Rng rng(1);
  const auto reqs = GenerateRandomWorkload(config, rng);
  ASSERT_EQ(reqs.size(), 50000u);

  int64_t reads = 0;
  double bytes = 0.0;
  double prev = -1.0;
  for (const Request& r : reqs) {
    EXPECT_GE(r.lbn, 0);
    EXPECT_LE(r.last_lbn(), kCapacity - 1);
    EXPECT_GE(r.block_count, 1);
    EXPECT_GT(r.arrival_ms, prev - 1e-12);
    prev = r.arrival_ms;
    reads += r.is_read();
    bytes += static_cast<double>(r.bytes());
  }
  EXPECT_NEAR(static_cast<double>(reads) / reqs.size(), 0.67, 0.01);
  // Exponential(4096) rounded up to whole 512 B blocks has mean
  // 512 / (1 - e^(-1/8)) = 4356 bytes.
  EXPECT_NEAR(bytes / reqs.size(), 4356.0, 120.0);
  // Mean interarrival 2 ms at 500/s.
  EXPECT_NEAR(reqs.back().arrival_ms / reqs.size(), 2.0, 0.1);
}

TEST(RandomWorkloadTest, DeterministicGivenSeed) {
  RandomWorkloadConfig config;
  config.request_count = 100;
  config.capacity_blocks = kCapacity;
  Rng a(9);
  Rng b(9);
  const auto r1 = GenerateRandomWorkload(config, a);
  const auto r2 = GenerateRandomWorkload(config, b);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].lbn, r2[i].lbn);
    EXPECT_EQ(r1[i].arrival_ms, r2[i].arrival_ms);
  }
}

TEST(CelloLikeTest, MatchesAdvertisedCharacter) {
  CelloLikeConfig config;
  config.request_count = 40000;
  config.capacity_blocks = kCapacity;
  Rng rng(3);
  const auto reqs = GenerateCelloLike(config, rng);
  ASSERT_EQ(reqs.size(), 40000u);
  int64_t writes = 0;
  double prev = -1.0;
  for (const Request& r : reqs) {
    EXPECT_GE(r.lbn, 0);
    EXPECT_LE(r.last_lbn(), kCapacity - 1);
    EXPECT_GE(r.arrival_ms, prev - 1e-12);
    prev = r.arrival_ms;
    writes += !r.is_read();
  }
  EXPECT_NEAR(static_cast<double>(writes) / reqs.size(), 0.57, 0.02);
  // Mean rate should land near base_rate_per_s.
  const double rate = static_cast<double>(reqs.size()) / (reqs.back().arrival_ms / 1000.0);
  EXPECT_NEAR(rate, config.base_rate_per_s, config.base_rate_per_s * 0.25);
}

TEST(CelloLikeTest, ScaleCompressesTime) {
  CelloLikeConfig config;
  config.request_count = 2000;
  config.capacity_blocks = kCapacity;
  Rng a(4);
  const auto base = GenerateCelloLike(config, a);
  config.scale = 4.0;
  Rng b(4);
  const auto scaled = GenerateCelloLike(config, b);
  EXPECT_NEAR(scaled.back().arrival_ms, base.back().arrival_ms / 4.0, 1e-6);
}

TEST(CelloLikeTest, SpatialSkewPresent) {
  CelloLikeConfig config;
  config.request_count = 40000;
  config.capacity_blocks = kCapacity;
  Rng rng(5);
  const auto reqs = GenerateCelloLike(config, rng);
  // Count accesses per 1/100th of the footprint; the hottest bucket should
  // be far above uniform.
  const int64_t footprint = 2LL * 1024 * 1024 * 1024 / 512;
  std::vector<int> buckets(100, 0);
  for (const Request& r : reqs) {
    const int64_t b = r.lbn * 100 / footprint;
    if (b >= 0 && b < 100) {
      ++buckets[static_cast<size_t>(b)];
    }
  }
  const int max_bucket = *std::max_element(buckets.begin(), buckets.end());
  EXPECT_GT(max_bucket, static_cast<int>(reqs.size()) / 100 * 3);
}

TEST(TpccLikeTest, MatchesAdvertisedCharacter) {
  TpccLikeConfig config;
  config.request_count = 30000;
  config.capacity_blocks = kCapacity;
  Rng rng(6);
  const auto reqs = GenerateTpccLike(config, rng);
  ASSERT_EQ(reqs.size(), 30000u);
  const int64_t db_blocks = static_cast<int64_t>(config.database_bytes / 512);
  int64_t in_db = 0;
  int64_t reads = 0;
  for (const Request& r : reqs) {
    EXPECT_LE(r.last_lbn(), kCapacity - 1);
    in_db += r.lbn < db_blocks;
    reads += r.is_read();
  }
  // The footprint is small: nearly everything inside ~1.1 GB.
  EXPECT_GT(static_cast<double>(in_db) / reqs.size(), 0.80);
  // Read fraction ~ (1-log_fraction)*read_fraction.
  EXPECT_NEAR(static_cast<double>(reads) / reqs.size(), 0.85 * 0.65, 0.02);
}

TEST(TpccLikeTest, SmallInterLbnDistancesUnderLoad) {
  // §4.3: the scaled-up TPC-C workload has many pending requests at very
  // small inter-LBN distances. Proxy: median nearest-neighbor LBN distance
  // among a 64-request window is small relative to device capacity.
  TpccLikeConfig config;
  config.request_count = 10000;
  config.capacity_blocks = kCapacity;
  Rng rng(7);
  const auto reqs = GenerateTpccLike(config, rng);
  int64_t close = 0;
  int64_t total = 0;
  for (size_t i = 64; i < reqs.size(); i += 64) {
    int64_t best = kCapacity;
    for (size_t j = i - 64; j < i; ++j) {
      best = std::min(best, std::abs(reqs[j].lbn - reqs[i].lbn));
    }
    close += best < kCapacity / 100;
    ++total;
  }
  EXPECT_GT(static_cast<double>(close) / static_cast<double>(total), 0.7);
}

}  // namespace
}  // namespace mstk
