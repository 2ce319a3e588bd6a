// Functional tests for the CTrie: insert/lookup/update semantics, in-place
// value cells, deep paths under shared hash prefixes, and live walks.
#include "ctrie/ctrie.h"

#include <atomic>
#include <map>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "ctrie_deep_keys.h"

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

TEST(CTrieTest, UpdatesAllocateNothing) {
  CTrie t;
  for (uint64_t i = 0; i < 5000; ++i) t.Insert(i, i);
  const size_t nodes = t.allocated_nodes();
  for (uint64_t i = 0; i < 5000; ++i) {
    auto prev = t.Insert(i, i + 7);
    ASSERT_TRUE(prev.has_value()) << i;
    EXPECT_EQ(*prev, i) << i;
  }
  EXPECT_EQ(t.allocated_nodes(), nodes);
  EXPECT_EQ(t.size_hint(), 5000u);
  for (uint64_t i = 0; i < 5000; ++i) EXPECT_EQ(*t.Lookup(i), i + 7) << i;
}

TEST(CTrieTest, CellIsTheKeysCellAcrossLaterInserts) {
  CTrie t;
  EXPECT_EQ(t.Cell(DeepKey(0)), nullptr);
  t.Insert(DeepKey(0), 1);
  std::atomic<uint64_t>* cell = t.Cell(DeepKey(0));
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->load(), 1u);
  // Every later key shares the first nine levels with DeepKey(0), so the
  // inserts push its leaf down and copy every CNode above it.
  for (uint64_t i = 1; i < kDeepKeys; ++i) t.Insert(DeepKey(i), i);
  EXPECT_EQ(t.Cell(DeepKey(0)), cell);
  const size_t nodes = t.allocated_nodes();
  cell->store(42, std::memory_order_release);
  EXPECT_EQ(*t.Lookup(DeepKey(0)), 42u);
  EXPECT_EQ(*t.Insert(DeepKey(0), 43), 42u);
  EXPECT_EQ(cell->load(), 43u);
  EXPECT_EQ(t.allocated_nodes(), nodes);
}

// --- Deep paths --------------------------------------------------------------

TEST(CTrieDeepPathTest, DeepKeysShareTheirFirstNineLevels) {
  Random64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t h = rng.Next();
    ASSERT_EQ(Mix64(UnMix64(h)), h);
  }
  constexpr uint64_t kLow54 = (uint64_t{1} << 54) - 1;
  for (uint64_t i = 0; i < kDeepKeys; ++i) {
    ASSERT_EQ(Mix64(DeepKey(i)) & kLow54, Mix64(DeepKey(0)) & kLow54) << i;
    ASSERT_EQ(Mix64(DeepKey(i)) >> 54, i);
  }
  // The second key splits the first one's root slot into a chain of one
  // INode and one CNode per shared level (1-8), ending in a two-leaf CNode
  // at level 9: 20 nodes with its leaf and the root's CNode copy.
  CTrie t;
  t.Insert(DeepKey(0), 0);
  const size_t before = t.allocated_nodes();
  t.Insert(DeepKey(1), 1);
  EXPECT_EQ(t.allocated_nodes() - before, 20u);
}

TEST(CTrieDeepPathTest, InsertLookup) {
  CTrie t;
  for (uint64_t i = 0; i < 500; ++i) t.Insert(DeepKey(i), i + 1);
  EXPECT_EQ(t.Size(), 500u);
  for (uint64_t i = 0; i < 500; ++i) {
    auto v = t.Lookup(DeepKey(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i + 1);
  }
  EXPECT_FALSE(t.Lookup(DeepKey(1000)).has_value());
}

TEST(CTrieDeepPathTest, UpdateReturnsPrevious) {
  CTrie t;
  for (uint64_t i = 0; i < 100; ++i) t.Insert(DeepKey(i), i);
  auto prev = t.Insert(DeepKey(37), 999);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 37u);
  EXPECT_EQ(*t.Lookup(DeepKey(37)), 999u);
  EXPECT_EQ(t.Size(), 100u);
}

// --- Live walks --------------------------------------------------------------

std::map<uint64_t, uint64_t> LiveContents(const CTrie& t) {
  std::map<uint64_t, uint64_t> seen;
  t.ForEach([&seen](uint64_t k, uint64_t v) { seen[k] = v; });
  return seen;
}

TEST(CTrieLiveWalkTest, NeverSnapshottedTrieIsReadWithoutAllocating) {
  CTrie t;  // deep keys: long INode chains as well as wide CNodes
  std::map<uint64_t, uint64_t> model;
  for (uint64_t i = 0; i < 600; ++i) {
    t.Insert(DeepKey(i), i * 3);
    model[DeepKey(i)] = i * 3;
  }
  const size_t nodes = t.allocated_nodes();
  for (uint64_t k = 0; k < 1000; ++k) {
    auto v = t.Lookup(DeepKey(k));
    EXPECT_EQ(v.has_value(), k < 600) << k;
    if (v.has_value()) {
      EXPECT_EQ(*v, k * 3) << k;
    }
  }
  EXPECT_EQ(LiveContents(t), model);
  EXPECT_GT(t.LiveMemoryBytes(), 0u);
  EXPECT_EQ(t.allocated_nodes(), nodes);
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
  EXPECT_EQ(LiveContents(t), model);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CTrieSweepTest,
                         ::testing::Values(16, 256, 4096, 65536));

}  // namespace
}  // namespace idf
