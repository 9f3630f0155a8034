// Randomized properties of RaidPlanner: mapping bijection, stripe-row
// barrier coverage, degraded-plan equivalence to a naive per-block
// reference, and coalescing that never merges across row/type boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "src/array/raid.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

using MemberOp = RaidPlanner::MemberOp;

Request MakeReq(int64_t lbn, int32_t blocks, IoType type) {
  Request req;
  req.lbn = lbn;
  req.block_count = blocks;
  req.type = type;
  return req;
}

// Expands an op list into per-block (member, lbn) read touches, counted as a
// multiset (a block can legitimately be read both as data and as a
// reconstruction input).
std::map<std::pair<int, int64_t>, int> ExpandReads(const std::vector<MemberOp>& ops) {
  std::map<std::pair<int, int64_t>, int> blocks;
  for (const MemberOp& op : ops) {
    if (op.type != IoType::kRead) {
      continue;
    }
    for (int32_t b = 0; b < op.blocks; ++b) {
      blocks[{op.member, op.lbn + b}]++;
    }
  }
  return blocks;
}

// The naive reference read planner: one block at a time, no coalescing.
// Healthy blocks read themselves; a block on a failed member reads the same
// member-lbn from every surviving member of its stripe row.
std::map<std::pair<int, int64_t>, int> NaiveReadReference(const RaidPlanner& planner,
                                                          const Request& req,
                                                          const std::vector<bool>& failed) {
  std::map<std::pair<int, int64_t>, int> blocks;
  for (int64_t lbn = req.lbn; lbn <= req.last_lbn(); ++lbn) {
    const MemberBlock mb = planner.MapRaid5Data(lbn);
    if (!failed[static_cast<size_t>(mb.member)]) {
      blocks[{mb.member, mb.lbn}]++;
      continue;
    }
    for (int m = 0; m < planner.member_count(); ++m) {
      if (m != mb.member) {
        blocks[{m, mb.lbn}]++;
      }
    }
  }
  return blocks;
}

TEST(RaidPlanPropertyTest, Raid5MappingIsBijectiveAndAvoidsParity) {
  Rng rng(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(6));
    const int32_t unit = rng.UniformInt(2) == 0 ? 16 : 64;
    const RaidPlanner planner(RaidConfig{RaidLevel::kRaid5, unit}, n);

    const int64_t span = static_cast<int64_t>(unit) * (n - 1) * 7;  // 7 stripe rows
    std::map<std::pair<int, int64_t>, int64_t> seen;
    for (int64_t lbn = 0; lbn < span; ++lbn) {
      const MemberBlock mb = planner.MapRaid5Data(lbn);
      ASSERT_GE(mb.member, 0);
      ASSERT_LT(mb.member, n);
      const int64_t row = mb.lbn / unit;
      ASSERT_NE(mb.member, planner.Raid5ParityMember(row))
          << "data block mapped onto its row's parity member";
      const auto [it, inserted] = seen.insert({{mb.member, mb.lbn}, lbn});
      ASSERT_TRUE(inserted) << "array lbns " << it->second << " and " << lbn
                            << " collide on member " << mb.member << " lbn " << mb.lbn;
    }
  }
}

TEST(RaidPlanPropertyTest, ReadPlansMatchNaiveReferenceHealthyAndDegraded) {
  Rng rng(987);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(6));
    const int32_t unit = rng.UniformInt(2) == 0 ? 16 : 64;
    const RaidPlanner planner(RaidConfig{RaidLevel::kRaid5, unit}, n);
    std::vector<bool> failed(static_cast<size_t>(n), false);
    if (trial % 2 == 1) {
      failed[static_cast<size_t>(rng.UniformInt(n))] = true;
    }

    const int64_t capacity = static_cast<int64_t>(unit) * (n - 1) * 8;
    const int64_t lbn = rng.UniformInt(capacity - 1);
    const int32_t blocks = 1 + static_cast<int32_t>(rng.UniformInt(capacity - lbn));
    const Request req = MakeReq(lbn, blocks, IoType::kRead);

    std::vector<MemberOp> plan;
    planner.PlanRead(req, failed, 0.0, nullptr, &plan);
    EXPECT_EQ(ExpandReads(plan), NaiveReadReference(planner, req, failed))
        << "n=" << n << " unit=" << unit << " lbn=" << lbn << " blocks=" << blocks;
  }
}

TEST(RaidPlanPropertyTest, CoalescedOpsNeverMixRowOrTypeOrPhase) {
  Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(6));
    const int32_t unit = 16;
    const RaidPlanner planner(RaidConfig{RaidLevel::kRaid5, unit}, n);
    std::vector<bool> failed(static_cast<size_t>(n), false);
    failed[static_cast<size_t>(rng.UniformInt(n))] = true;

    const int64_t capacity = static_cast<int64_t>(unit) * (n - 1) * 8;
    const int64_t lbn = rng.UniformInt(capacity - 1);
    const int32_t blocks = 1 + static_cast<int32_t>(rng.UniformInt(capacity - lbn));
    std::vector<MemberOp> plan;
    planner.PlanRead(MakeReq(lbn, blocks, IoType::kRead), failed, 0.0, nullptr, &plan);

    // A row-tagged (reconstruction) op must cover exactly its own stripe
    // row: merging it with a neighboring plain read would smear the barrier
    // tag across rows.
    for (const MemberOp& op : plan) {
      if (op.row < 0) {
        continue;
      }
      EXPECT_EQ(op.lbn / unit, op.row);
      EXPECT_EQ((op.lbn + op.blocks - 1) / unit, op.row)
          << "row-tagged op spans stripe rows";
    }
  }
}

TEST(RaidPlanPropertyTest, EveryPhase2RowHasPhase1CoverageOrIsFullStripe) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(6));
    const int32_t unit = rng.UniformInt(2) == 0 ? 16 : 64;
    const RaidPlanner planner(RaidConfig{RaidLevel::kRaid5, unit}, n);
    std::vector<bool> failed(static_cast<size_t>(n), false);
    if (trial % 3 != 0) {
      failed[static_cast<size_t>(rng.UniformInt(n))] = true;
    }

    const int64_t row_span = static_cast<int64_t>(unit) * (n - 1);
    const int64_t capacity = row_span * 8;
    const int64_t lbn = rng.UniformInt(capacity - 1);
    const int32_t blocks = 1 + static_cast<int32_t>(rng.UniformInt(capacity - lbn));
    const Request req = MakeReq(lbn, blocks, IoType::kWrite);
    std::vector<MemberOp> plan;
    planner.PlanWrite(req, failed, &plan);

    std::vector<int64_t> rows_with_reads;
    for (const MemberOp& op : plan) {
      if (!op.phase2 && op.type == IoType::kRead && op.row >= 0) {
        rows_with_reads.push_back(op.row);
      }
    }
    for (const MemberOp& op : plan) {
      if (!op.phase2) {
        continue;
      }
      ASSERT_GE(op.row, 0) << "phase-2 op without a barrier row";
      const bool covered = std::find(rows_with_reads.begin(), rows_with_reads.end(),
                                     op.row) != rows_with_reads.end();
      // Full-stripe rows legitimately have no reads: the whole row's data is
      // being replaced, so parity derives from the new data alone.
      const int64_t row_lo = op.row * row_span;
      const bool full_stripe = req.lbn <= row_lo && req.last_lbn() >= row_lo + row_span - 1;
      EXPECT_TRUE(covered || full_stripe)
          << "phase-2 op on row " << op.row << " has no phase-1 reads and is not a "
          << "full-stripe write (n=" << n << " unit=" << unit << " lbn=" << lbn
          << " blocks=" << blocks << ")";
    }
  }
}

TEST(RaidPlanPropertyTest, ReconstructWriteWritesWholeParityUnit) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(6));
    const int32_t unit = 64;
    const RaidPlanner planner(RaidConfig{RaidLevel::kRaid5, unit}, n);
    std::vector<bool> failed(static_cast<size_t>(n), false);
    const int dead = static_cast<int>(rng.UniformInt(n));
    failed[static_cast<size_t>(dead)] = true;

    const int64_t row_span = static_cast<int64_t>(unit) * (n - 1);
    const int64_t capacity = row_span * 8;
    const int64_t lbn = rng.UniformInt(capacity - 1);
    const int32_t blocks = 1 + static_cast<int32_t>(rng.UniformInt(capacity - lbn));
    const Request req = MakeReq(lbn, blocks, IoType::kWrite);
    std::vector<MemberOp> plan;
    planner.PlanWrite(req, failed, &plan);

    // For every row whose plan reads a full surviving unit (the
    // reconstruct-write signature), the parity write must cover the whole
    // unit: parity was recomputed from full units, so a partial write would
    // leave the unwritten span inconsistent.
    for (int64_t row = req.lbn / row_span; row <= req.last_lbn() / row_span; ++row) {
      const int parity = planner.Raid5ParityMember(row);
      if (failed[static_cast<size_t>(parity)]) {
        continue;
      }
      bool reconstruct_reads = false;
      for (const MemberOp& op : plan) {
        if (op.row == row && !op.phase2 && op.type == IoType::kRead &&
            op.member != parity && op.lbn == row * unit && op.blocks == unit) {
          reconstruct_reads = true;
        }
      }
      for (const MemberOp& op : plan) {
        if (op.row == row && op.phase2 && op.member == parity && reconstruct_reads) {
          const bool row_has_failed_data = [&] {
            for (int64_t u = 0; u < n - 1; ++u) {
              const int m = u < parity ? static_cast<int>(u) : static_cast<int>(u) + 1;
              if (failed[static_cast<size_t>(m)]) {
                return true;
              }
            }
            return false;
          }();
          if (row_has_failed_data) {
            EXPECT_EQ(op.lbn, row * unit);
            EXPECT_EQ(op.blocks, unit) << "partial parity write in reconstruct mode";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mstk
