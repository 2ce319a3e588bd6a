// Concurrency tests for the CTrie: concurrent writers, and readers racing
// writers that add keys and update present keys in place — the properties
// the Indexed DataFrame's lock-free lookups rely on.
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "ctrie/ctrie.h"
#include "ctrie_deep_keys.h"

namespace idf {
namespace {

TEST(CTrieConcurrencyTest, DisjointWritersAllLand) {
  CTrie t;
  constexpr int kWriters = 8;
  constexpr uint64_t kPerWriter = 20000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&t, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        t.Insert(static_cast<uint64_t>(w) * 1000000 + i, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.Size(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t i = 0; i < kPerWriter; i += 997) {
      auto v = t.Lookup(static_cast<uint64_t>(w) * 1000000 + i);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
  }
}

TEST(CTrieConcurrencyTest, OverlappingWritersLastValueWins) {
  CTrie t;
  constexpr int kWriters = 6;
  constexpr uint64_t kKeys = 512;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&t, w] {
      for (int round = 0; round < 50; ++round) {
        for (uint64_t k = 0; k < kKeys; ++k) {
          t.Insert(k, static_cast<uint64_t>(w) * 1000 + static_cast<uint64_t>(round));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.Size(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto v = t.Lookup(k);
    ASSERT_TRUE(v.has_value());
    // The surviving value must be one some writer actually wrote.
    EXPECT_LT(*v % 1000, 50u);
    EXPECT_LT(*v / 1000, static_cast<uint64_t>(kWriters));
  }
}

TEST(CTrieConcurrencyTest, ReadersNeverSeeTornState) {
  CTrie t;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> write_floor{0};
  std::thread writer([&] {
    for (uint64_t i = 0; i < 200000; ++i) {
      t.Insert(i, i + 1);
      write_floor.store(i, std::memory_order_release);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> errors{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random64 rng(static_cast<uint64_t>(r) + 1);
      while (!stop.load()) {
        uint64_t floor = write_floor.load(std::memory_order_acquire);
        if (floor == 0) continue;
        uint64_t k = rng.Uniform(floor);
        auto v = t.Lookup(k);
        // Keys below the write floor are guaranteed present, and a present
        // value must be exactly k+1 (values are written once).
        if (!v.has_value() || *v != k + 1) errors.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0u);
}

TEST(CTrieConcurrencyTest, MixedRemoveInsertKeysStayConsistent) {
  // The inserter adds even keys, the updater rewrites present even keys in
  // place through their cells, and the reader checks that the odd sentinel
  // keys (never touched) survive every interleaving of CNode copies.
  CTrie t;
  for (uint64_t i = 1; i < 2000; i += 2) t.Insert(i, i);
  std::atomic<bool> stop{false};
  std::thread inserter([&] {
    Random64 rng(1);
    while (!stop.load()) {
      uint64_t k = rng.Uniform(1000) * 2;
      t.Insert(k, k);
    }
  });
  std::thread updater([&] {
    Random64 rng(2);
    while (!stop.load()) {
      uint64_t k = rng.Uniform(1000) * 2;
      if (std::atomic<uint64_t>* cell = t.Cell(k)) {
        cell->store(k + 1, std::memory_order_release);
      }
    }
  });
  std::atomic<uint64_t> errors{0};
  std::thread reader([&] {
    Random64 rng(3);
    for (int i = 0; i < 200000; ++i) {
      uint64_t k = rng.Uniform(1000) * 2 + 1;
      auto v = t.Lookup(k);
      if (!v.has_value() || *v != k) errors.fetch_add(1);
      // An even key is only ever bound to k or k + 1.
      auto e = t.Lookup(k - 1);
      if (e.has_value() && *e != k - 1 && *e != k) errors.fetch_add(1);
    }
    stop.store(true);
  });
  reader.join();
  inserter.join();
  updater.join();
  EXPECT_EQ(errors.load(), 0u);
  for (uint64_t i = 1; i < 2000; i += 2) {
    EXPECT_TRUE(t.Lookup(i).has_value()) << i;
  }
}

TEST(CTrieConcurrencyTest, CollidingHashConcurrentWriters) {
  // Deep keys share their first nine levels, so every insert contends for
  // the same few INodes and splits leaves below them.
  CTrie t;
  constexpr uint64_t kPerWriter = kDeepKeys / 4;
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < 4; ++w) {
    threads.emplace_back([&t, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) t.Insert(DeepKey(w * kPerWriter + i), i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.Size(), kDeepKeys);
  EXPECT_EQ(t.size_hint(), kDeepKeys);
  for (uint64_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < kPerWriter; ++i) {
      auto v = t.Lookup(DeepKey(w * kPerWriter + i));
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
  }
}

TEST(CTrieConcurrencyTest, InPlaceUpdatesNeverGoBackwards) {
  // One writer runs rounds 1..kRounds. Round r adds the keys of stripe r
  // and rewrites every earlier key to version r, alternating Insert's
  // exchange and a store into the key's cell. A value is (k << 32) |
  // version, so a reader can tell a value that was never written. Readers
  // look keys up and walk the trie live, and check that no key's version
  // goes backwards or runs ahead of the round the writer has begun.
  constexpr uint64_t kRounds = 64;
  constexpr uint64_t kStripe = 16;
  constexpr uint64_t kKeys = kRounds * kStripe;
  // Deep keys for half of them, so leaves split under the readers.
  auto key_of = [](uint64_t k) { return k % 2 == 0 ? DeepKey(k / 2) : k; };
  auto value_of = [](uint64_t k, uint64_t version) { return (k << 32) | version; };
  CTrie t;
  std::atomic<uint64_t> round_begun{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t r = 1; r <= kRounds; ++r) {
      round_begun.store(r, std::memory_order_release);
      for (uint64_t k = 0; k < r * kStripe; ++k) {
        if (k % 3 == 0 && k < (r - 1) * kStripe) {
          t.Cell(key_of(k))->store(value_of(k, r), std::memory_order_release);
        } else {
          t.Insert(key_of(k), value_of(k, r));
        }
      }
    }
    stop.store(true, std::memory_order_release);
  });
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> readers;
  for (int id = 0; id < 2; ++id) {
    readers.emplace_back([&, id] {
      std::vector<uint64_t> last(kKeys, 0);  // newest version seen per k
      auto check = [&](uint64_t k, uint64_t value, uint64_t bound) {
        const uint64_t version = value & 0xffffffffu;
        if (value >> 32 != k || version == 0 || version < last[k] || version > bound) {
          errors.fetch_add(1);
        }
        last[k] = std::max(last[k], version);
      };
      Random64 rng(static_cast<uint64_t>(id) + 11);
      while (!stop.load(std::memory_order_acquire)) {
        for (int i = 0; i < 64; ++i) {
          const uint64_t k = rng.Uniform(kKeys);
          auto v = t.Lookup(key_of(k));
          const uint64_t bound = round_begun.load(std::memory_order_acquire);
          if (v.has_value()) {
            check(k, *v, bound);
          } else if (last[k] != 0) {
            errors.fetch_add(1);  // a key seen present went missing
          }
        }
        std::vector<std::pair<uint64_t, uint64_t>> walked;
        t.ForEach([&walked](uint64_t key, uint64_t v) { walked.emplace_back(key, v); });
        const uint64_t bound = round_begun.load(std::memory_order_acquire);
        for (const auto& [key, v] : walked) {
          const uint64_t k = v >> 32;
          if (k >= kKeys || key_of(k) != key) {
            errors.fetch_add(1);
            continue;
          }
          check(k, v, bound);
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(t.Size(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(t.Lookup(key_of(k)).value_or(0), value_of(k, kRounds)) << k;
  }
}

}  // namespace
}  // namespace idf
