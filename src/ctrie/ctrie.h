// CTrie: the index of the Indexed DataFrame, a lock-free hash-array-mapped
// trie after the cTrie of Prokopec, Bronson, Bagwell, Odersky, "Concurrent
// Tries with Efficient Non-Blocking Snapshots" (PPoPP 2012) — reference [7]
// of the reproduced paper — kept to the operations the engine uses.
//
// It maps a 64-bit key (the canonical hash of the indexed column value) to
// a packed 64-bit row pointer (storage/packed_pointer.h). Keys are only
// ever added, never removed, and the trie is never snapshotted: the
// paper's "updates with multi-version concurrency" come from the row
// store's watermark (indexed/indexed_partition.h), which bounds the chain
// a reader walks from a key's live head.
//
// Implementation notes:
//  * 64-way branching over Mix64(key), 6 bits per level. Mix64 is a
//    bijection on uint64, so two distinct keys diverge by level 60 and no
//    collision list is needed.
//  * Three node kinds. An INode's `main` is the only mutable pointer; it
//    names an immutable CNode (bitmap plus dense branch array). A branch
//    is an INode or an SNode, which holds a const key and an atomic value.
//  * Adding a key copies one CNode and CASes the copy into its INode.
//    SNodes move between CNodes by pointer and are never copied, so a key
//    keeps one value cell for the trie's lifetime and a value stored into
//    it concurrently is never lost.
//  * Updating a present key exchanges its cell's value and allocates
//    nothing.
//  * Readers do acquire loads only: they never write, help or restart.
//  * Memory reclamation: every node is registered in the trie's NodeArena
//    and freed when the trie dies. Only adding a key leaves garbage (the
//    CNode its copy replaced); the Indexed DataFrame drops a partition's
//    trie whole when compaction retires its generation (DESIGN.md §6,
//    decision 8).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/macros.h"

namespace idf {

namespace ctrie_internal {

enum class NodeKind : uint8_t { kINode, kSNode, kCNode };

/// Base of every heap node; intrusively linked into the owning NodeArena.
struct ArenaNode {
  explicit ArenaNode(NodeKind k) : kind(k) {}
  virtual ~ArenaNode() = default;
  const NodeKind kind;
  ArenaNode* arena_next = nullptr;
};

/// Owns all nodes ever allocated by one trie (lock-free push).
class NodeArena {
 public:
  NodeArena() = default;
  ~NodeArena();
  IDF_DISALLOW_COPY_AND_ASSIGN(NodeArena);

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    T* node = new T(std::forward<Args>(args)...);
    Register(node);
    return node;
  }

  size_t allocated_count() const { return count_.load(std::memory_order_relaxed); }

 private:
  void Register(ArenaNode* node);
  std::atomic<ArenaNode*> head_{nullptr};
  std::atomic<size_t> count_{0};
};

/// A branch of a CNode: either an INode or an SNode.
struct Branch : ArenaNode {
  using ArenaNode::ArenaNode;
};

/// Leaf: one key and its value cell, updated in place.
struct SNode : Branch {
  SNode(uint64_t k, uint64_t v) : Branch(NodeKind::kSNode), key(k), value(v) {}
  const uint64_t key;
  std::atomic<uint64_t> value;
};

/// Branching node: 64-bit bitmap plus a dense branch array. Immutable.
struct CNode : ArenaNode {
  CNode(uint64_t b, std::vector<Branch*> a)
      : ArenaNode(NodeKind::kCNode), bmp(b), array(std::move(a)) {}
  const uint64_t bmp;
  const std::vector<Branch*> array;
};

/// Indirection node: the CNode below it is replaced whole when a key is
/// added there. Never removed, so it stays on the path of its keys.
struct INode : Branch {
  explicit INode(CNode* m) : Branch(NodeKind::kINode) {
    main.store(m, std::memory_order_relaxed);
  }
  std::atomic<CNode*> main;
};

}  // namespace ctrie_internal

/// \brief Lock-free insert-only map<uint64, uint64>.
class CTrie {
 public:
  CTrie();
  CTrie(CTrie&& other) noexcept
      : arena_(std::move(other.arena_)),
        root_(other.root_),
        size_hint_(other.size_hint()) {}
  CTrie& operator=(CTrie&& other) noexcept {
    arena_ = std::move(other.arena_);
    root_ = other.root_;
    size_hint_.store(other.size_hint(), std::memory_order_relaxed);
    return *this;
  }
  IDF_DISALLOW_COPY_AND_ASSIGN(CTrie);

  /// Adds `key`, or updates its value in place; returns the previous value
  /// if the key was present. Safe beside other writers and readers.
  std::optional<uint64_t> Insert(uint64_t key, uint64_t value);

  /// The value cell of `key`, or null when the key is absent. The cell is
  /// the key's for the trie's lifetime, so a writer may read it now and
  /// store (release) into it later instead of inserting again.
  std::atomic<uint64_t>* Cell(uint64_t key) {
    ctrie_internal::SNode* sn = Find(key);
    return sn != nullptr ? &sn->value : nullptr;
  }

  /// Looks up `key`; returns the bound value or nullopt. Writes nothing.
  std::optional<uint64_t> Lookup(uint64_t key) const {
    const ctrie_internal::SNode* sn = Find(key);
    if (sn == nullptr) return std::nullopt;
    return sn->value.load(std::memory_order_acquire);
  }

  /// Exact element count via a full walk.
  size_t Size() const;

  /// Element count maintained by Insert; exact once writers are done.
  size_t size_hint() const { return size_hint_.load(std::memory_order_relaxed); }

  /// Visits every (key, value) pair. Exact when no writer runs
  /// concurrently; beside a writer it sees every key present when the walk
  /// began, each at some value at least as recent as that moment's.
  void ForEach(const std::function<void(uint64_t, uint64_t)>& fn) const;

  /// Number of nodes ever allocated by this trie (diagnostics).
  size_t allocated_nodes() const { return arena_->allocated_count(); }

  /// Approximate heap bytes held by the arena, including the CNodes that
  /// adding keys replaced (see the reclamation note above).
  size_t MemoryBytesEstimate() const;

  /// Bytes of the live trie structure (nodes reachable from the root): the
  /// real index size, comparable to the paper's memory-overhead claim.
  size_t LiveMemoryBytes() const;

 private:
  using INode = ctrie_internal::INode;
  using CNode = ctrie_internal::CNode;
  using SNode = ctrie_internal::SNode;
  using Branch = ctrie_internal::Branch;

  SNode* Find(uint64_t key) const;
  CNode* DualBranchCNode(SNode* a, uint64_t ha, SNode* b, uint64_t hb, int lev);
  void ForEachIn(const CNode* cn,
                 const std::function<void(uint64_t, uint64_t)>& fn) const;
  size_t LiveBytesOf(const CNode* cn) const;

  std::unique_ptr<ctrie_internal::NodeArena> arena_;
  INode* root_;
  std::atomic<size_t> size_hint_{0};
};

}  // namespace idf
