#include "ctrie/ctrie.h"

#include <bit>

#include "common/hash.h"
#include "common/logging.h"

namespace idf {

namespace ci = ctrie_internal;

namespace ctrie_internal {

NodeArena::~NodeArena() {
  ArenaNode* node = head_.load(std::memory_order_acquire);
  while (node != nullptr) {
    ArenaNode* next = node->arena_next;
    delete node;
    node = next;
  }
}

void NodeArena::Register(ArenaNode* node) {
  ArenaNode* old_head = head_.load(std::memory_order_relaxed);
  do {
    node->arena_next = old_head;
  } while (!head_.compare_exchange_weak(old_head, node, std::memory_order_release,
                                        std::memory_order_relaxed));
  count_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace ctrie_internal

namespace {

constexpr int kBitsPerLevel = 6;
constexpr int kMaxLevel = 64;

/// The bitmap bit of `hash` at level `lev` (6 hash bits per level).
inline uint64_t FlagOf(uint64_t hash, int lev) { return 1ULL << ((hash >> lev) & 63); }

inline size_t ArrayIndex(uint64_t bmp, uint64_t flag) {
  return static_cast<size_t>(std::popcount(bmp & (flag - 1)));
}

}  // namespace

CTrie::CTrie()
    : arena_(std::make_unique<ci::NodeArena>()),
      root_(arena_->New<INode>(arena_->New<CNode>(0, std::vector<Branch*>{}))) {}

CTrie::SNode* CTrie::Find(uint64_t key) const {
  const uint64_t hash = Mix64(key);
  const INode* in = root_;
  for (int lev = 0;; lev += kBitsPerLevel) {
    const CNode* cn = in->main.load(std::memory_order_acquire);
    const uint64_t flag = FlagOf(hash, lev);
    if ((cn->bmp & flag) == 0) return nullptr;
    Branch* b = cn->array[ArrayIndex(cn->bmp, flag)];
    if (b->kind == ci::NodeKind::kINode) {
      in = static_cast<const INode*>(b);
      continue;
    }
    auto* sn = static_cast<SNode*>(b);
    return sn->key == key ? sn : nullptr;
  }
}

std::optional<uint64_t> CTrie::Insert(uint64_t key, uint64_t value) {
  const uint64_t hash = Mix64(key);
  INode* in = root_;
  int lev = 0;
  for (;;) {
    CNode* cn = in->main.load(std::memory_order_acquire);
    const uint64_t flag = FlagOf(hash, lev);
    const size_t idx = ArrayIndex(cn->bmp, flag);
    CNode* copy;
    if ((cn->bmp & flag) == 0) {
      std::vector<Branch*> array;
      array.reserve(cn->array.size() + 1);
      array.assign(cn->array.begin(), cn->array.end());
      array.insert(array.begin() + static_cast<ptrdiff_t>(idx),
                   arena_->New<SNode>(key, value));
      copy = arena_->New<CNode>(cn->bmp | flag, std::move(array));
    } else {
      Branch* b = cn->array[idx];
      if (b->kind == ci::NodeKind::kINode) {
        in = static_cast<INode*>(b);
        lev += kBitsPerLevel;
        continue;
      }
      auto* sn = static_cast<SNode*>(b);
      if (sn->key == key) return sn->value.exchange(value, std::memory_order_acq_rel);
      // Two keys share this slot: push the present SNode (the same node,
      // so its cell survives) one level down beside the new one.
      std::vector<Branch*> array = cn->array;
      array[idx] = arena_->New<INode>(DualBranchCNode(
          sn, Mix64(sn->key), arena_->New<SNode>(key, value), hash,
          lev + kBitsPerLevel));
      copy = arena_->New<CNode>(cn->bmp, std::move(array));
    }
    if (in->main.compare_exchange_strong(cn, copy, std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      size_hint_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    // Another writer replaced the CNode first; the nodes built for this
    // attempt stay in the arena. Retry at the same INode, which is still on
    // the key's path.
  }
}

CTrie::CNode* CTrie::DualBranchCNode(SNode* a, uint64_t ha, SNode* b, uint64_t hb,
                                     int lev) {
  // Mix64 is a bijection, so distinct keys have distinct hashes, which
  // differ in some bit below 64.
  IDF_CHECK_LT(lev, kMaxLevel) << "DualBranchCNode on equal hashes";
  const uint64_t fa = FlagOf(ha, lev);
  const uint64_t fb = FlagOf(hb, lev);
  if (fa == fb) {
    INode* in = arena_->New<INode>(DualBranchCNode(a, ha, b, hb, lev + kBitsPerLevel));
    return arena_->New<CNode>(fa, std::vector<Branch*>{in});
  }
  return arena_->New<CNode>(
      fa | fb, fa < fb ? std::vector<Branch*>{a, b} : std::vector<Branch*>{b, a});
}

void CTrie::ForEachIn(const CNode* cn,
                      const std::function<void(uint64_t, uint64_t)>& fn) const {
  for (const Branch* b : cn->array) {
    if (b->kind == ci::NodeKind::kSNode) {
      const auto* sn = static_cast<const SNode*>(b);
      fn(sn->key, sn->value.load(std::memory_order_acquire));
    } else {
      ForEachIn(static_cast<const INode*>(b)->main.load(std::memory_order_acquire), fn);
    }
  }
}

void CTrie::ForEach(const std::function<void(uint64_t, uint64_t)>& fn) const {
  ForEachIn(root_->main.load(std::memory_order_acquire), fn);
}

size_t CTrie::Size() const {
  size_t n = 0;
  ForEach([&n](uint64_t, uint64_t) { ++n; });
  return n;
}

size_t CTrie::MemoryBytesEstimate() const {
  // Rough per-node average: node header + payload + arena link.
  return arena_->allocated_count() * 72;
}

size_t CTrie::LiveBytesOf(const CNode* cn) const {
  size_t bytes = sizeof(CNode) + cn->array.capacity() * sizeof(Branch*);
  for (const Branch* b : cn->array) {
    if (b->kind == ci::NodeKind::kSNode) {
      bytes += sizeof(SNode);
    } else {
      bytes += sizeof(INode) +
               LiveBytesOf(static_cast<const INode*>(b)->main.load(std::memory_order_acquire));
    }
  }
  return bytes;
}

size_t CTrie::LiveMemoryBytes() const {
  return sizeof(INode) + LiveBytesOf(root_->main.load(std::memory_order_acquire));
}

}  // namespace idf
