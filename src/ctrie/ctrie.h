// CTrie: a lock-free concurrent hash trie with O(1) non-blocking snapshots,
// after Prokopec, Bronson, Bagwell, Odersky, "Concurrent Tries with
// Efficient Non-Blocking Snapshots" (PPoPP 2012) — reference [7] of the
// reproduced paper.
//
// This is the index of the Indexed DataFrame: it maps a 64-bit key (the
// canonical hash of the indexed column value) to a packed 64-bit row
// pointer (storage/packed_pointer.h). Snapshots provide the paper's
// "updates with multi-version concurrency": queries read an O(1) snapshot
// while the update stream keeps appending to the live trie.
//
// Implementation notes:
//  * 64-way branching (6 hash bits per level), 64-bit hashes.
//  * GCAS (generation-compare-and-swap) on INode main pointers and RDCSS on
//    the root make snapshot-vs-write races linearizable, exactly as in the
//    PPoPP paper.
//  * The hash function is pluggable so tests can force collisions deep
//    enough to exercise LNode (collision list) paths; production use
//    passes Mix64 (a bijection on uint64, so LNodes never form).
//  * Memory reclamation: nodes are registered in a NodeArena shared by all
//    snapshots of a trie family and freed when the last snapshot dies.
//    This trades peak memory for simplicity instead of hazard pointers;
//    the Indexed DataFrame's usage (append-mostly, bounded query lifetime)
//    tolerates it, and it is documented in DESIGN.md.
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

enum class NodeKind : uint8_t {
  kINode,
  kSNode,
  kCNode,
  kTNode,
  kLNode,
  kFailed,
  kRdcssDescriptor,
  kGen,
};

/// Base of every heap node; intrusively linked into the owning NodeArena.
struct ArenaNode {
  explicit ArenaNode(NodeKind k) : kind(k) {}
  virtual ~ArenaNode() = default;
  const NodeKind kind;
  ArenaNode* arena_next = nullptr;
};

/// Owns all nodes ever allocated by a trie family (lock-free push).
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

/// Generation token; identity (address) is what matters.
struct Gen : ArenaNode {
  Gen() : ArenaNode(NodeKind::kGen) {}
};

struct MainNode;

/// A branch of a CNode: either an INode or an SNode.
struct Branch : ArenaNode {
  using ArenaNode::ArenaNode;
};

/// Main nodes hang off INodes and carry the GCAS `prev` field.
struct MainNode : ArenaNode {
  using ArenaNode::ArenaNode;
  std::atomic<MainNode*> prev{nullptr};
};

/// Single key/value leaf.
struct SNode : Branch {
  SNode(uint64_t k, uint64_t h, uint64_t v)
      : Branch(NodeKind::kSNode), key(k), hash(h), value(v) {}
  const uint64_t key;
  const uint64_t hash;
  const uint64_t value;
};

/// Tombed SNode (single-entry node pending contraction).
struct TNode : MainNode {
  explicit TNode(SNode* s) : MainNode(NodeKind::kTNode), sn(s) {}
  SNode* const sn;
};

/// Collision list node (full 64-bit hash collision).
struct LNode : MainNode {
  LNode(SNode* s, LNode* n) : MainNode(NodeKind::kLNode), sn(s), next(n) {}
  SNode* const sn;
  LNode* const next;
};

/// GCAS failure marker: `prev` holds the node to roll back to.
struct FailedNode : MainNode {
  explicit FailedNode(MainNode* p) : MainNode(NodeKind::kFailed) {
    prev.store(p, std::memory_order_relaxed);
  }
};

/// Branching node: 64-bit bitmap plus a dense branch array.
struct CNode : MainNode {
  CNode(uint64_t b, std::vector<Branch*> a, Gen* g)
      : MainNode(NodeKind::kCNode), bmp(b), array(std::move(a)), gen(g) {}
  const uint64_t bmp;
  const std::vector<Branch*> array;
  Gen* const gen;
};

/// Indirection node: the only mutable cell in the trie (via GCAS).
struct INode : Branch {
  INode(MainNode* m, Gen* g) : Branch(NodeKind::kINode), gen(g) {
    main.store(m, std::memory_order_relaxed);
  }
  std::atomic<MainNode*> main;
  Gen* const gen;
};

/// RDCSS descriptor temporarily installed at the root during snapshots.
struct RdcssDescriptor : ArenaNode {
  RdcssDescriptor(INode* o, MainNode* e, INode* n)
      : ArenaNode(NodeKind::kRdcssDescriptor), ov(o), expmain(e), nv(n) {}
  INode* const ov;
  MainNode* const expmain;
  INode* const nv;
  std::atomic<bool> committed{false};
};

}  // namespace ctrie_internal

/// \brief Lock-free map<uint64, uint64> with O(1) snapshots.
class CTrie {
 public:
  using HashFn = uint64_t (*)(uint64_t);

  /// `hash_fn` must be deterministic; nullptr selects Mix64.
  explicit CTrie(HashFn hash_fn = nullptr);

  CTrie(CTrie&& other) noexcept
      : arena_(std::move(other.arena_)),
        hash_fn_(other.hash_fn_),
        root_(std::move(other.root_)),
        read_only_(other.read_only_),
        size_hint_(other.size_hint_.load(std::memory_order_relaxed)) {}
  CTrie& operator=(CTrie&& other) noexcept {
    arena_ = std::move(other.arena_);
    hash_fn_ = other.hash_fn_;
    root_ = std::move(other.root_);
    read_only_ = other.read_only_;
    size_hint_.store(other.size_hint_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }
  IDF_DISALLOW_COPY_AND_ASSIGN(CTrie);

  /// Inserts or updates; returns the previous value if the key was present.
  /// Must not be called on a read-only snapshot.
  std::optional<uint64_t> Insert(uint64_t key, uint64_t value);

  /// Looks up `key`; returns the bound value or nullopt.
  std::optional<uint64_t> Lookup(uint64_t key) const;

  /// Removes `key`; returns the removed value if it was present.
  std::optional<uint64_t> Remove(uint64_t key);

  /// O(1) writable snapshot. Both `this` and the snapshot remain writable;
  /// subsequent writes to either copy paths lazily (no data is copied up
  /// front).
  CTrie Snapshot();

  /// O(1) read-only snapshot: cheaper reads (no renewal CASes) and no
  /// writes allowed.
  CTrie ReadOnlySnapshot();

  bool read_only() const { return read_only_; }

  /// Exact element count via full traversal of a consistent snapshot.
  size_t Size() const;

  /// Cheap element-count estimate maintained by Insert/Remove on this
  /// handle; exact in the single-writer usage of the Indexed DataFrame.
  size_t size_hint() const { return size_hint_.load(std::memory_order_relaxed); }

  /// Visits every (key, value) pair of a consistent snapshot.
  void ForEach(const std::function<void(uint64_t, uint64_t)>& fn) const;

  /// Number of nodes ever allocated by this trie family (diagnostics).
  size_t allocated_nodes() const { return arena_->allocated_count(); }

  /// Approximate heap bytes held by the trie family arena. Includes
  /// garbage from path-copying updates, which the arena retains until the
  /// whole snapshot family dies (see the reclamation note above).
  size_t MemoryBytesEstimate() const;

  /// Bytes of the *live* trie structure (nodes reachable from the current
  /// root): the real index size, comparable to the paper's memory-overhead
  /// claim. O(n) walk of the live root; takes no snapshot.
  size_t LiveMemoryBytes() const;

  /// Visits every (key, value) pair reachable from the live root, without
  /// taking a snapshot. Exact when no writer runs concurrently; beside a
  /// writer it sees each key at some recent version. On a trie that is
  /// never snapshotted it allocates nothing (at most it helps a pending
  /// write commit, as Lookup does).
  void ForEachLive(const std::function<void(uint64_t, uint64_t)>& fn) const;

 private:
  using INode = ctrie_internal::INode;
  using MainNode = ctrie_internal::MainNode;
  using CNode = ctrie_internal::CNode;
  using SNode = ctrie_internal::SNode;
  using TNode = ctrie_internal::TNode;
  using LNode = ctrie_internal::LNode;
  using Branch = ctrie_internal::Branch;
  using Gen = ctrie_internal::Gen;

  CTrie(std::shared_ptr<ctrie_internal::NodeArena> arena, HashFn hash_fn,
        INode* root, bool read_only, size_t size_hint);

  enum class OpResult : uint8_t { kDone, kRestart, kNotFound };

  // --- RDCSS root access ---
  INode* RdcssReadRoot(bool abort = false) const;
  INode* RdcssComplete(bool abort) const;
  bool RdcssRoot(INode* ov, MainNode* expmain, INode* nv);

  // --- GCAS ---
  MainNode* GcasRead(INode* in) const;
  MainNode* GcasCommit(INode* in, MainNode* m) const;
  bool Gcas(INode* in, MainNode* old_main, MainNode* new_main);

  // --- recursive ops ---
  OpResult DoInsert(INode* in, uint64_t key, uint64_t hash, uint64_t value,
                    int lev, INode* parent, Gen* startgen,
                    std::optional<uint64_t>* previous);
  OpResult DoLookup(INode* in, uint64_t key, uint64_t hash, int lev,
                    INode* parent, Gen* startgen, uint64_t* out) const;
  OpResult DoRemove(INode* in, uint64_t key, uint64_t hash, int lev,
                    INode* parent, Gen* startgen,
                    std::optional<uint64_t>* removed);

  // --- helpers ---
  CNode* RenewedCNode(const CNode* cn, Gen* gen);
  INode* CopyINodeToGen(INode* in, Gen* gen);
  Branch* Resurrect(Branch* b) const;
  MainNode* ToContracted(CNode* cn, int lev);
  MainNode* ToCompressed(const CNode* cn, int lev, Gen* gen);
  void Clean(INode* in, int lev);
  void CleanParent(INode* parent, INode* in, uint64_t hash, int lev,
                   Gen* startgen);
  CNode* DualBranchCNode(SNode* a, SNode* b, int lev, Gen* gen);
  void ForEachNode(ctrie_internal::MainNode* m,
                   const std::function<void(uint64_t, uint64_t)>& fn) const;
  size_t LiveBytesOfMain(ctrie_internal::MainNode* m) const;

  static constexpr int kBitsPerLevel = 6;
  static constexpr int kBranchFactor = 64;
  static constexpr uint64_t kLevelMask = kBranchFactor - 1;
  static constexpr int kMaxLevel = 64;

  std::shared_ptr<ctrie_internal::NodeArena> arena_;
  HashFn hash_fn_;
  /// Either an INode* or an RdcssDescriptor* (tagged by NodeKind).
  std::unique_ptr<std::atomic<ctrie_internal::ArenaNode*>> root_;
  bool read_only_ = false;
  mutable std::atomic<size_t> size_hint_{0};
};

}  // namespace idf
