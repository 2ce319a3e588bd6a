// Functional tests for the CTrie: insert/lookup/remove semantics, snapshot
// isolation, collision handling (LNodes), and structural contraction.
#include "ctrie/ctrie.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace idf {
namespace {

TEST(CTrieTest, EmptyLookupMisses) {
  CTrie t;
  EXPECT_FALSE(t.Lookup(42).has_value());
  EXPECT_EQ(t.Size(), 0u);
}

TEST(CTrieTest, InsertThenLookup) {
  CTrie t;
  EXPECT_FALSE(t.Insert(1, 100).has_value());
  auto v = t.Lookup(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 100u);
}

TEST(CTrieTest, InsertReturnsPreviousValue) {
  CTrie t;
  EXPECT_FALSE(t.Insert(5, 50).has_value());
  auto prev = t.Insert(5, 51);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 50u);
  EXPECT_EQ(*t.Lookup(5), 51u);
  EXPECT_EQ(t.Size(), 1u);
}

TEST(CTrieTest, RemoveReturnsValue) {
  CTrie t;
  t.Insert(9, 90);
  auto removed = t.Remove(9);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 90u);
  EXPECT_FALSE(t.Lookup(9).has_value());
  EXPECT_FALSE(t.Remove(9).has_value());
}

TEST(CTrieTest, RemoveMissingKeyIsNoop) {
  CTrie t;
  t.Insert(1, 1);
  EXPECT_FALSE(t.Remove(2).has_value());
  EXPECT_EQ(t.Size(), 1u);
}

TEST(CTrieTest, ManyKeysRoundTrip) {
  CTrie t;
  for (uint64_t i = 0; i < 50000; ++i) t.Insert(i, i * 3 + 1);
  EXPECT_EQ(t.Size(), 50000u);
  EXPECT_EQ(t.size_hint(), 50000u);
  for (uint64_t i = 0; i < 50000; ++i) {
    auto v = t.Lookup(i);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i * 3 + 1) << i;
  }
  EXPECT_FALSE(t.Lookup(50001).has_value());
}

TEST(CTrieTest, InsertRemoveInterleaved) {
  CTrie t;
  for (uint64_t i = 0; i < 10000; ++i) t.Insert(i, i);
  for (uint64_t i = 0; i < 10000; i += 2) t.Remove(i);
  EXPECT_EQ(t.Size(), 5000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(t.Lookup(i).has_value(), i % 2 == 1) << i;
  }
}

TEST(CTrieTest, RemoveAllLeavesEmptyTrie) {
  CTrie t;
  for (uint64_t i = 0; i < 1000; ++i) t.Insert(i, i);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.Remove(i).has_value()) << i;
  }
  EXPECT_EQ(t.Size(), 0u);
  // Reuse after emptying must still work (contraction left a valid root).
  t.Insert(5, 55);
  EXPECT_EQ(*t.Lookup(5), 55u);
}

TEST(CTrieTest, ForEachVisitsAllPairs) {
  CTrie t;
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t i = 0; i < 3000; ++i) {
    t.Insert(i * 17, i);
    expected[i * 17] = i;
  }
  std::map<uint64_t, uint64_t> seen;
  t.ForEach([&seen](uint64_t k, uint64_t v) { seen[k] = v; });
  EXPECT_EQ(seen, expected);
}

TEST(CTrieTest, SnapshotIsolatedFromLaterWrites) {
  CTrie t;
  for (uint64_t i = 0; i < 1000; ++i) t.Insert(i, i);
  CTrie snap = t.ReadOnlySnapshot();
  for (uint64_t i = 1000; i < 2000; ++i) t.Insert(i, i);
  for (uint64_t i = 0; i < 500; ++i) t.Remove(i);
  t.Insert(0, 9999);  // overwrite after remove

  EXPECT_EQ(snap.Size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) {
    auto v = snap.Lookup(i);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(snap.Lookup(1500).has_value());
  EXPECT_EQ(t.Size(), 1501u);
}

TEST(CTrieTest, WritableSnapshotDivergesIndependently) {
  CTrie t;
  for (uint64_t i = 0; i < 100; ++i) t.Insert(i, i);
  CTrie snap = t.Snapshot();
  EXPECT_FALSE(snap.read_only());
  snap.Insert(200, 1);
  t.Insert(300, 2);
  EXPECT_TRUE(snap.Lookup(200).has_value());
  EXPECT_FALSE(snap.Lookup(300).has_value());
  EXPECT_FALSE(t.Lookup(200).has_value());
  EXPECT_TRUE(t.Lookup(300).has_value());
  EXPECT_EQ(snap.Size(), 101u);
  EXPECT_EQ(t.Size(), 101u);
}

TEST(CTrieTest, SnapshotOfSnapshot) {
  CTrie t;
  t.Insert(1, 1);
  CTrie s1 = t.ReadOnlySnapshot();
  t.Insert(2, 2);
  CTrie s2 = t.ReadOnlySnapshot();
  t.Insert(3, 3);
  EXPECT_EQ(s1.Size(), 1u);
  EXPECT_EQ(s2.Size(), 2u);
  EXPECT_EQ(t.Size(), 3u);
  CTrie s3 = s2.ReadOnlySnapshot();
  EXPECT_EQ(s3.Size(), 2u);
}

TEST(CTrieTest, ReadOnlySnapshotOfEmptyTrie) {
  CTrie t;
  CTrie snap = t.ReadOnlySnapshot();
  t.Insert(1, 1);
  EXPECT_EQ(snap.Size(), 0u);
  EXPECT_FALSE(snap.Lookup(1).has_value());
}

// Degenerate hash: all keys collide into 16 buckets, forcing deep paths
// and LNode collision lists.
uint64_t BadHash(uint64_t k) { return k & 0xF; }

TEST(CTrieCollisionTest, LNodeInsertLookup) {
  CTrie t(&BadHash);
  for (uint64_t i = 0; i < 500; ++i) t.Insert(i, i + 1);
  EXPECT_EQ(t.Size(), 500u);
  for (uint64_t i = 0; i < 500; ++i) {
    auto v = t.Lookup(i);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i + 1);
  }
  EXPECT_FALSE(t.Lookup(1000).has_value());
}

TEST(CTrieCollisionTest, LNodeUpdateReturnsPrevious) {
  CTrie t(&BadHash);
  for (uint64_t i = 0; i < 100; ++i) t.Insert(i, i);
  auto prev = t.Insert(37, 999);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 37u);
  EXPECT_EQ(*t.Lookup(37), 999u);
  EXPECT_EQ(t.Size(), 100u);
}

TEST(CTrieCollisionTest, LNodeRemove) {
  CTrie t(&BadHash);
  for (uint64_t i = 0; i < 64; ++i) t.Insert(i, i);
  for (uint64_t i = 0; i < 64; i += 2) {
    auto removed = t.Remove(i);
    ASSERT_TRUE(removed.has_value()) << i;
  }
  EXPECT_EQ(t.Size(), 32u);
  for (uint64_t i = 1; i < 64; i += 2) {
    EXPECT_TRUE(t.Lookup(i).has_value()) << i;
  }
}

TEST(CTrieCollisionTest, SnapshotWithCollisions) {
  CTrie t(&BadHash);
  for (uint64_t i = 0; i < 200; ++i) t.Insert(i, i);
  CTrie snap = t.ReadOnlySnapshot();
  for (uint64_t i = 200; i < 400; ++i) t.Insert(i, i);
  for (uint64_t i = 0; i < 100; ++i) t.Remove(i);
  EXPECT_EQ(snap.Size(), 200u);
  EXPECT_EQ(t.Size(), 300u);
  EXPECT_TRUE(snap.Lookup(50).has_value());
  EXPECT_FALSE(t.Lookup(50).has_value());
}

TEST(CTrieTest, MoveTransfersContents) {
  CTrie t;
  t.Insert(1, 10);
  CTrie moved = std::move(t);
  EXPECT_EQ(*moved.Lookup(1), 10u);
  moved.Insert(2, 20);
  EXPECT_EQ(moved.Size(), 2u);
}

TEST(CTrieTest, AllocatedNodesGrowWithInserts) {
  CTrie t;
  size_t before = t.allocated_nodes();
  for (uint64_t i = 0; i < 100; ++i) t.Insert(i, i);
  EXPECT_GT(t.allocated_nodes(), before);
  EXPECT_GT(t.MemoryBytesEstimate(), 0u);
}

// --- Live walks --------------------------------------------------------------

std::map<uint64_t, uint64_t> LiveContents(const CTrie& t) {
  std::map<uint64_t, uint64_t> seen;
  t.ForEachLive([&seen](uint64_t k, uint64_t v) { seen[k] = v; });
  return seen;
}

TEST(CTrieLiveWalkTest, NeverSnapshottedTrieIsReadWithoutAllocating) {
  CTrie t(&BadHash);  // colliding hashes: LNodes as well as CNodes
  std::map<uint64_t, uint64_t> model;
  for (uint64_t i = 0; i < 600; ++i) {
    t.Insert(i, i * 3);
    model[i] = i * 3;
  }
  const size_t nodes = t.allocated_nodes();
  for (uint64_t k = 0; k < 1000; ++k) {
    auto v = t.Lookup(k);
    EXPECT_EQ(v.has_value(), k < 600) << k;
    if (v.has_value()) EXPECT_EQ(*v, k * 3) << k;
  }
  EXPECT_EQ(LiveContents(t), model);
  const size_t bytes = t.LiveMemoryBytes();
  EXPECT_EQ(t.allocated_nodes(), nodes);
  EXPECT_EQ(bytes, t.ReadOnlySnapshot().LiveMemoryBytes());
}

TEST(CTrieLiveWalkTest, LiveWalkSeesEachHandlesOwnVersion) {
  CTrie t;
  std::map<uint64_t, uint64_t> base;
  for (uint64_t i = 0; i < 500; ++i) {
    t.Insert(i, i);
    base[i] = i;
  }
  CTrie frozen = t.ReadOnlySnapshot();
  std::map<uint64_t, uint64_t> live = base;
  for (uint64_t i = 0; i < 200; ++i) {
    t.Insert(i, i + 1000);
    live[i] = i + 1000;
  }
  EXPECT_EQ(LiveContents(frozen), base);
  EXPECT_EQ(LiveContents(t), live);
}

class CTrieSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CTrieSweepTest, InsertLookupRemoveAtScale) {
  const size_t n = GetParam();
  CTrie t;
  Random64 rng(n);
  std::map<uint64_t, uint64_t> model;
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = rng.Uniform(n * 2);
    uint64_t v = rng.Next();
    auto prev = t.Insert(k, v);
    auto it = model.find(k);
    if (it == model.end()) {
      EXPECT_FALSE(prev.has_value());
    } else {
      ASSERT_TRUE(prev.has_value());
      EXPECT_EQ(*prev, it->second);
    }
    model[k] = v;
  }
  EXPECT_EQ(t.Size(), model.size());
  for (const auto& [k, v] : model) {
    auto found = t.Lookup(k);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, v);
  }
  // Remove a random half and re-verify against the model.
  size_t removed = 0;
  for (auto it = model.begin(); it != model.end();) {
    if (rng.Uniform(2) == 0) {
      auto r = t.Remove(it->first);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(*r, it->second);
      it = model.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  EXPECT_EQ(t.Size(), model.size());
  for (const auto& [k, v] : model) {
    EXPECT_EQ(*t.Lookup(k), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CTrieSweepTest,
                         ::testing::Values(16, 256, 4096, 65536));

}  // namespace
}  // namespace idf
