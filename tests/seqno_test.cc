// Property tests for the 16-bit + era-bit sequence arithmetic (§3.5).
//
// The reference model is plain 64-bit integers: wire(v) = (v mod 2^16,
// (v / 2^16) mod 2). Every comparison the protocol makes must agree with the
// 64-bit truth as long as the operands are within N/2 of each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "lg/seq_ring.h"
#include "lg/seqno.h"
#include "sim/random.h"

namespace lgsim::lg {
namespace {

SeqEra wire_of(std::int64_t v) {
  return SeqEra{static_cast<std::uint16_t>(v & 0xFFFF),
                static_cast<std::uint8_t>((v >> 16) & 1)};
}

TEST(SeqNo, NextIncrementsWithinEra) {
  SeqEra s{5, 0};
  s = seq_next(s);
  EXPECT_EQ(s.seq, 6);
  EXPECT_EQ(s.era, 0);
}

TEST(SeqNo, NextTogglesEraOnWrap) {
  SeqEra s{0xFFFF, 0};
  s = seq_next(s);
  EXPECT_EQ(s.seq, 0);
  EXPECT_EQ(s.era, 1);
  // And back again on the next wrap.
  s.seq = 0xFFFF;
  s = seq_next(s);
  EXPECT_EQ(s.seq, 0);
  EXPECT_EQ(s.era, 0);
}

TEST(SeqNo, SameEraDistance) {
  EXPECT_EQ(seq_distance({100, 0}, {40, 0}), 60);
  EXPECT_EQ(seq_distance({40, 0}, {100, 0}), -60);
  EXPECT_EQ(seq_distance({7, 1}, {7, 1}), 0);
}

TEST(SeqNo, CrossEraDistanceNearWrap) {
  // 65530 (era 0) followed by 5 (era 1): forward distance 11.
  EXPECT_EQ(seq_distance({5, 1}, {65530, 0}), 11);
  EXPECT_EQ(seq_distance({65530, 0}, {5, 1}), -11);
}

TEST(SeqNo, ComparisonHelpers) {
  EXPECT_TRUE(seq_less({65530, 0}, {5, 1}));
  EXPECT_TRUE(seq_greater({5, 1}, {65530, 0}));
  EXPECT_TRUE(seq_leq({9, 0}, {9, 0}));
  EXPECT_FALSE(seq_less({9, 0}, {9, 0}));
}

TEST(SeqNo, BeforeFirstPrecedesZero) {
  EXPECT_EQ(seq_next(seq_before_first()), (SeqEra{0, 0}));
  EXPECT_EQ(seq_distance({0, 0}, seq_before_first()), 1);
}

TEST(SeqNo, SeqAddMatchesRepeatedNext) {
  SeqEra s{0xFFFE, 1};
  const SeqEra t = seq_add(s, 3);
  EXPECT_EQ(t.seq, 1);
  EXPECT_EQ(t.era, 0);
}

// Property: for random 64-bit positions and offsets within (-N/2, N/2), the
// wire-format distance equals the integer distance.
TEST(SeqNoProperty, DistanceMatchesReferenceAcrossWraps) {
  Rng rng(1234);
  for (int i = 0; i < 200'000; ++i) {
    const std::int64_t base = static_cast<std::int64_t>(rng.uniform_int(1'000'000'000));
    const std::int32_t off =
        static_cast<std::int32_t>(rng.uniform_int(kSeqSpace - 1)) -
        static_cast<std::int32_t>(kSeqHalf - 1);
    const std::int64_t other = base + off;
    if (other < 0) continue;
    ASSERT_EQ(seq_distance(wire_of(other), wire_of(base)), off)
        << "base=" << base << " off=" << off;
  }
}

// Property: walking seq_next for many steps stays consistent with wire_of.
TEST(SeqNoProperty, NextWalkMatchesReference) {
  SeqEra s = wire_of(0);
  for (std::int64_t v = 0; v < 200'000; ++v) {
    ASSERT_EQ(s.seq, wire_of(v).seq);
    ASSERT_EQ(s.era, wire_of(v).era);
    s = seq_next(s);
  }
}

// The paper's correctness condition: era correction works as long as the two
// sequence numbers are not more than N/2 apart. Verify the boundary.
TEST(SeqNoProperty, HalfWindowBoundary) {
  const std::int64_t base = 3 * kSeqSpace + 7;  // arbitrary, era toggles hit
  // Exactly N/2 - 1 apart: still correct.
  EXPECT_EQ(seq_distance(wire_of(base + kSeqHalf - 1), wire_of(base)),
            kSeqHalf - 1);
  EXPECT_EQ(seq_distance(wire_of(base - (kSeqHalf - 1)), wire_of(base)),
            -(kSeqHalf - 1));
}

// SeqRing (lg/seq_ring.h) against a std::map reference: random inserts,
// erases and lookups over a sliding window of virtual seqs, with stale and
// negative lookups mixed in. Every find must agree with the map, the ascending
// walk must list exactly the map's keys in order, and the capacity must only
// grow while the live window widens.
TEST(SeqRing, MatchesOrderedMapReference) {
  SeqRing<std::int64_t> ring;
  std::map<std::int64_t, std::int64_t> ref;
  Rng rng(7);
  std::int64_t next = 0;
  std::size_t max_window = 0;
  for (int step = 0; step < 200'000; ++step) {
    const std::uint64_t op = rng.uniform_int(10);
    if (op < 4) {
      ring.insert(next) = next * 3;
      ref[next] = next * 3;
      ++next;
    } else if (op < 8 && !ref.empty()) {
      // Erase mostly near the bottom of the window, sometimes anywhere.
      auto it = ref.begin();
      const std::uint64_t span = op == 7 ? ref.size() : std::min<std::uint64_t>(ref.size(), 4);
      std::advance(it, static_cast<long>(rng.uniform_int(span)));
      ring.erase(it->first);
      ref.erase(it);
    } else {
      const std::int64_t v =
          static_cast<std::int64_t>(rng.uniform_int(static_cast<std::uint64_t>(next) + 40)) - 20;
      const std::int64_t* e = ring.find(v);
      const auto it = ref.find(v);
      ASSERT_EQ(e != nullptr, it != ref.end()) << "v=" << v;
      if (e != nullptr) {
        ASSERT_EQ(*e, it->second);
      }
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      max_window = std::max<std::size_t>(
          max_window, static_cast<std::size_t>(ref.rbegin()->first - ref.begin()->first + 1));
      ASSERT_LE(ring.lo(), ref.begin()->first);
      ASSERT_GE(ring.hi(), ref.rbegin()->first);
    }
    if (step % 997 == 0) {
      std::vector<std::int64_t> walked;
      ring.for_each([&](std::int64_t v, std::int64_t& x) {
        EXPECT_EQ(x, v * 3);
        walked.push_back(v);
      });
      std::vector<std::int64_t> keys;
      for (const auto& [k, x] : ref) keys.push_back(k);
      ASSERT_EQ(walked, keys);
    }
  }
  // Growth is driven by the widest live window, not by the seqs consumed.
  EXPECT_GT(next, 50'000);
  EXPECT_LE(ring.capacity(), std::max(SeqRing<std::int64_t>::kInitialCapacity,
                                      2 * std::bit_ceil(max_window)));
}

TEST(SeqRing, StaleSeqMissesAndEraseDuringWalk) {
  SeqRing<int> ring;
  const auto cap = SeqRing<int>::kInitialCapacity;
  ring.insert(5) = 1;
  ring.erase(5);
  ring.insert(5 + static_cast<std::int64_t>(cap)) = 2;  // same slot, new seq
  EXPECT_EQ(ring.find(5), nullptr);
  ASSERT_NE(ring.find(5 + static_cast<std::int64_t>(cap)), nullptr);
  EXPECT_EQ(ring.capacity(), cap);
  // A live seq in the slot forces growth; both stay reachable.
  ring.insert(5 + 2 * static_cast<std::int64_t>(cap)) = 3;
  EXPECT_EQ(ring.capacity(), 2 * cap);
  EXPECT_EQ(*ring.find(5 + static_cast<std::int64_t>(cap)), 2);
  EXPECT_EQ(*ring.find(5 + 2 * static_cast<std::int64_t>(cap)), 3);
  EXPECT_EQ(ring.find(-1), nullptr);
  // The walk may erase the entry it is handed.
  int seen = 0;
  ring.for_each([&](std::int64_t v, int&) {
    ++seen;
    ring.erase(v);
  });
  EXPECT_EQ(seen, 2);
  EXPECT_TRUE(ring.empty());
  ring.clear();
  EXPECT_EQ(ring.capacity(), 2 * cap);  // capacity is kept
}

}  // namespace
}  // namespace lgsim::lg
