#include "src/sched/sptf.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "src/sim/check.h"

namespace mstk {
namespace {

constexpr uint64_t kAllBits = ~uint64_t{0};

}  // namespace

void SptfScheduler::Add(const Request& req) {
  MSTK_CHECK(pending_.size() < static_cast<std::size_t>(std::numeric_limits<int32_t>::max()),
             "SPTF queue full");
  const int32_t key = device_->PositioningKey(req);
  MSTK_CHECK(key >= 0, "SPTF needs a positioning key >= 0 for every request");
  const auto k = static_cast<std::size_t>(key);
  if (k >= head_.size()) {
    head_.resize(k + 1, -1);
    occupied_.resize(k / 64 + 1, 0);
  }
  const auto slot = static_cast<int32_t>(pending_.size());
  pending_.push_back(req);
  entries_.push_back(Entry{next_seq_++, key, -1, head_[k]});
  Attach(slot);
  occupied_[k / 64] |= uint64_t{1} << (k % 64);
}

void SptfScheduler::Reset() {
  pending_.clear();
  entries_.clear();
  head_.clear();
  occupied_.clear();
  next_seq_ = 0;
}

Request SptfScheduler::Pop(TimeMs now_ms) {
  assert(!pending_.empty());
  const std::size_t best = pending_.size() > 1 ? Walk(now_ms) : 0;
  Request req = pending_[best];
  Remove(best);
  return req;
}

std::size_t SptfScheduler::Walk(TimeMs now_ms) {
  constexpr TimeMs kDone = std::numeric_limits<TimeMs>::infinity();
  // With a state key, side 0 visits the occupied keys state_key, state_key
  // + 1, ... and side 1 visits state_key - 1, state_key - 2, ... Without
  // one, legs follow no order: side 0 visits every occupied key from 0,
  // side 1 none, and nothing is pruned.
  const int32_t state_key = device_->StateKey();
  const bool prune = state_key != StorageDevice::kNoKey;
  const int32_t from = prune ? state_key : 0;
  // Each side holds its next key and a value for it: first the key leg's
  // floor, then, once the side comes up with that floor, the exact leg.
  // Each exact leg is computed once and serves the prune test and the
  // bucket's costs. Floors never exceed legs, so the side with the smaller
  // value holds the key with the smaller exact leg whenever its value is
  // exact: keys are visited in the order of their exact legs, ties going to
  // side 0, with or without floors.
  struct Side {
    int32_t key;   // next occupied key, or -1 when the side is done
    TimeMs value;  // its floor, its exact leg, or kDone
    bool exact;
  };
  const auto next_on = [this](int32_t key) {
    return Side{key, key >= 0 ? device_->KeyLegFloorMs(key) : kDone, key < 0};
  };
  Side sides[2] = {next_on(OccupiedAtOrAbove(from)), next_on(OccupiedAtOrBelow(from - 1))};
  std::size_t best = 0;
  double best_cost = kDone;
  for (;;) {
    const int s = sides[0].value <= sides[1].value ? 0 : 1;
    Side& side = sides[s];
    // Stop when both sides are done, or when the smaller value's bound
    // exceeds the best cost: every later leg on either side is at least
    // that value, and no request costs less than its key's bound. An equal
    // bound is visited, since a request there may tie with a lower add
    // sequence.
    if (side.key < 0 || (prune && KeyBound(side.value) > best_cost)) {
      break;
    }
    if (!side.exact) {
      side.value = device_->KeyLegMs(side.key);
      side.exact = true;
      continue;
    }
    for (int32_t i = head_[static_cast<std::size_t>(side.key)]; i >= 0; i = At(i).next) {
      const auto slot = static_cast<std::size_t>(i);
      const Request& req = pending_[slot];
      const double cost =
          EffectiveCost(req, device_->EstimateGivenKeyLeg(req, side.value, now_ms), now_ms);
      if (cost < best_cost || (cost == best_cost && AddedBefore(slot, best))) {
        best_cost = cost;
        best = slot;
      }
    }
    side = next_on(s == 0 ? OccupiedAtOrAbove(side.key + 1) : OccupiedAtOrBelow(side.key - 1));
  }
  assert(best_cost < kDone);
  return best;
}

int32_t SptfScheduler::OccupiedAtOrAbove(int32_t key) const {
  std::size_t word = static_cast<std::size_t>(key) / 64;
  if (word >= occupied_.size()) {
    return -1;
  }
  uint64_t bits = occupied_[word] & (kAllBits << (key % 64));
  while (bits == 0) {
    if (++word == occupied_.size()) {
      return -1;
    }
    bits = occupied_[word];
  }
  return static_cast<int32_t>(word * 64) + std::countr_zero(bits);
}

int32_t SptfScheduler::OccupiedAtOrBelow(int32_t key) const {
  if (key < 0 || occupied_.empty()) {
    return -1;
  }
  std::size_t word = static_cast<std::size_t>(key) / 64;
  uint64_t bits = kAllBits;
  if (word < occupied_.size()) {
    bits >>= 63 - key % 64;
  } else {
    word = occupied_.size() - 1;
  }
  bits &= occupied_[word];
  while (bits == 0) {
    if (word == 0) {
      return -1;
    }
    bits = occupied_[--word];
  }
  return static_cast<int32_t>(word * 64) + 63 - std::countl_zero(bits);
}

int32_t& SptfScheduler::Link(int32_t prev, int32_t key) {
  return prev >= 0 ? At(prev).next : head_[static_cast<std::size_t>(key)];
}

void SptfScheduler::Attach(int32_t slot) {
  const Entry& entry = At(slot);
  Link(entry.prev, entry.key) = slot;
  if (entry.next >= 0) {
    At(entry.next).prev = slot;
  }
}

void SptfScheduler::Remove(std::size_t i) {
  const Entry gone = entries_[i];
  Link(gone.prev, gone.key) = gone.next;
  if (gone.next >= 0) {
    At(gone.next).prev = gone.prev;
  }
  const auto k = static_cast<std::size_t>(gone.key);
  if (head_[k] < 0) {
    occupied_[k / 64] &= ~(uint64_t{1} << (k % 64));
  }
  const std::size_t last = pending_.size() - 1;
  if (i != last) {
    // The last request takes slot i.
    pending_[i] = pending_[last];
    entries_[i] = entries_[last];
    Attach(static_cast<int32_t>(i));
  }
  pending_.pop_back();
  entries_.pop_back();
}

double AgedSptfScheduler::EffectiveCost(const Request& req, TimeMs pos_ms,
                                        TimeMs now_ms) const {
  // Clamped at zero: unbounded negative aging would let one starved request
  // (and then every request, as they all age) swing the comparison by
  // arbitrary amounts; at the floor, selection falls back to FIFO among the
  // starved (the earliest added wins ties), which is the starvation bound
  // we want.
  return std::max(pos_ms - age_weight_ * (now_ms - req.arrival_ms), 0.0);
}

}  // namespace mstk
