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
uint64_t DefaultHash(uint64_t key) { return Mix64(key); }
}  // namespace

CTrie::CTrie(HashFn hash_fn)
    : arena_(std::make_shared<ci::NodeArena>()),
      hash_fn_(hash_fn ? hash_fn : &DefaultHash),
      root_(std::make_unique<std::atomic<ci::ArenaNode*>>()) {
  Gen* gen = arena_->New<Gen>();
  CNode* empty = arena_->New<CNode>(0, std::vector<Branch*>{}, gen);
  INode* root = arena_->New<INode>(empty, gen);
  root_->store(root, std::memory_order_release);
}

CTrie::CTrie(std::shared_ptr<ci::NodeArena> arena, HashFn hash_fn, INode* root,
             bool read_only, size_t size_hint)
    : arena_(std::move(arena)),
      hash_fn_(hash_fn),
      root_(std::make_unique<std::atomic<ci::ArenaNode*>>()),
      read_only_(read_only) {
  root_->store(root, std::memory_order_release);
  size_hint_.store(size_hint, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// RDCSS root access (snapshot linearization point)
// ---------------------------------------------------------------------------

CTrie::INode* CTrie::RdcssReadRoot(bool abort) const {
  ci::ArenaNode* r = root_->load(std::memory_order_acquire);
  if (IDF_PREDICT_TRUE(r->kind == ci::NodeKind::kINode)) {
    return static_cast<INode*>(r);
  }
  return const_cast<CTrie*>(this)->RdcssComplete(abort);
}

CTrie::INode* CTrie::RdcssComplete(bool abort) const {
  for (;;) {
    ci::ArenaNode* r = root_->load(std::memory_order_acquire);
    if (r->kind == ci::NodeKind::kINode) return static_cast<INode*>(r);
    auto* desc = static_cast<ci::RdcssDescriptor*>(r);
    INode* ov = desc->ov;
    MainNode* exp = desc->expmain;
    if (!abort) {
      MainNode* main = GcasRead(ov);
      if (main == exp) {
        ci::ArenaNode* expected = desc;
        if (root_->compare_exchange_strong(expected, desc->nv,
                                           std::memory_order_acq_rel)) {
          desc->committed.store(true, std::memory_order_release);
          return desc->nv;
        }
        continue;
      }
    }
    ci::ArenaNode* expected = desc;
    if (root_->compare_exchange_strong(expected, ov, std::memory_order_acq_rel)) {
      return ov;
    }
  }
}

bool CTrie::RdcssRoot(INode* ov, MainNode* expmain, INode* nv) {
  auto* desc = arena_->New<ci::RdcssDescriptor>(ov, expmain, nv);
  ci::ArenaNode* expected = ov;
  if (root_->compare_exchange_strong(expected, desc, std::memory_order_acq_rel)) {
    RdcssComplete(/*abort=*/false);
    return desc->committed.load(std::memory_order_acquire);
  }
  return false;
}

// ---------------------------------------------------------------------------
// GCAS
// ---------------------------------------------------------------------------

CTrie::MainNode* CTrie::GcasRead(INode* in) const {
  MainNode* m = in->main.load(std::memory_order_acquire);
  if (IDF_PREDICT_TRUE(m->prev.load(std::memory_order_acquire) == nullptr)) {
    return m;
  }
  return GcasCommit(in, m);
}

CTrie::MainNode* CTrie::GcasCommit(INode* in, MainNode* m) const {
  for (;;) {
    MainNode* p = m->prev.load(std::memory_order_acquire);
    INode* root = RdcssReadRoot(/*abort=*/true);
    if (p == nullptr) return m;
    if (p->kind == ci::NodeKind::kFailed) {
      // The write failed; roll the main pointer back to the grandparent.
      MainNode* rollback = p->prev.load(std::memory_order_acquire);
      MainNode* expected = m;
      if (in->main.compare_exchange_strong(expected, rollback,
                                           std::memory_order_acq_rel)) {
        return rollback;
      }
      m = in->main.load(std::memory_order_acquire);
      continue;
    }
    if (root->gen == in->gen && !read_only_) {
      // Generation still current: try to commit.
      MainNode* expected = p;
      if (m->prev.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel)) {
        return m;
      }
      continue;
    }
    // Generation changed (or read-only snapshot): mark failed and retry.
    MainNode* expected = p;
    m->prev.compare_exchange_strong(expected,
                                    arena_->New<ci::FailedNode>(p),
                                    std::memory_order_acq_rel);
    m = in->main.load(std::memory_order_acquire);
  }
}

bool CTrie::Gcas(INode* in, MainNode* old_main, MainNode* new_main) {
  new_main->prev.store(old_main, std::memory_order_release);
  MainNode* expected = old_main;
  if (in->main.compare_exchange_strong(expected, new_main,
                                       std::memory_order_acq_rel)) {
    GcasCommit(in, new_main);
    return new_main->prev.load(std::memory_order_acquire) == nullptr;
  }
  return false;
}

// ---------------------------------------------------------------------------
// CNode helpers
// ---------------------------------------------------------------------------

namespace {

inline int BranchPos(uint64_t hash, int lev) {
  return static_cast<int>((hash >> lev) & 63);
}

inline uint64_t FlagOf(int pos) { return 1ULL << pos; }

inline int ArrayIndex(uint64_t bmp, uint64_t flag) {
  return std::popcount(bmp & (flag - 1));
}

std::vector<ci::Branch*> WithInserted(const std::vector<ci::Branch*>& a, int idx,
                                      ci::Branch* b) {
  std::vector<ci::Branch*> out;
  out.reserve(a.size() + 1);
  out.insert(out.end(), a.begin(), a.begin() + idx);
  out.push_back(b);
  out.insert(out.end(), a.begin() + idx, a.end());
  return out;
}

std::vector<ci::Branch*> WithUpdated(const std::vector<ci::Branch*>& a, int idx,
                                     ci::Branch* b) {
  std::vector<ci::Branch*> out = a;
  out[static_cast<size_t>(idx)] = b;
  return out;
}

std::vector<ci::Branch*> WithRemoved(const std::vector<ci::Branch*>& a, int idx) {
  std::vector<ci::Branch*> out;
  out.reserve(a.size() - 1);
  out.insert(out.end(), a.begin(), a.begin() + idx);
  out.insert(out.end(), a.begin() + idx + 1, a.end());
  return out;
}

}  // namespace

CTrie::CNode* CTrie::RenewedCNode(const CNode* cn, Gen* gen) {
  std::vector<Branch*> array = cn->array;
  for (Branch*& b : array) {
    if (b->kind == ci::NodeKind::kINode) {
      b = CopyINodeToGen(static_cast<INode*>(b), gen);
    }
  }
  return arena_->New<CNode>(cn->bmp, std::move(array), gen);
}

CTrie::INode* CTrie::CopyINodeToGen(INode* in, Gen* gen) {
  return arena_->New<INode>(GcasRead(in), gen);
}

ci::Branch* CTrie::Resurrect(Branch* b) const {
  if (b->kind == ci::NodeKind::kINode) {
    MainNode* m = GcasRead(static_cast<INode*>(b));
    if (m->kind == ci::NodeKind::kTNode) {
      return static_cast<TNode*>(m)->sn;
    }
  }
  return b;
}

CTrie::MainNode* CTrie::ToContracted(CNode* cn, int lev) {
  if (lev > 0 && cn->array.size() == 1 &&
      cn->array[0]->kind == ci::NodeKind::kSNode) {
    return arena_->New<TNode>(static_cast<SNode*>(cn->array[0]));
  }
  return cn;
}

CTrie::MainNode* CTrie::ToCompressed(const CNode* cn, int lev, Gen* gen) {
  std::vector<Branch*> array = cn->array;
  for (Branch*& b : array) b = Resurrect(b);
  return ToContracted(arena_->New<CNode>(cn->bmp, std::move(array), gen), lev);
}

void CTrie::Clean(INode* in, int lev) {
  MainNode* m = GcasRead(in);
  if (m->kind == ci::NodeKind::kCNode) {
    Gcas(in, m, ToCompressed(static_cast<CNode*>(m), lev, in->gen));
  }
}

void CTrie::CleanParent(INode* parent, INode* in, uint64_t hash, int lev,
                        Gen* startgen) {
  for (;;) {
    MainNode* m = GcasRead(in);
    MainNode* pm = GcasRead(parent);
    if (pm->kind != ci::NodeKind::kCNode) return;
    CNode* cn = static_cast<CNode*>(pm);
    int pos = BranchPos(hash, lev);
    uint64_t flag = FlagOf(pos);
    if ((cn->bmp & flag) == 0) return;
    int idx = ArrayIndex(cn->bmp, flag);
    Branch* sub = cn->array[static_cast<size_t>(idx)];
    if (sub != in) return;
    if (m->kind != ci::NodeKind::kTNode) return;
    CNode* ncn = arena_->New<CNode>(
        cn->bmp, WithUpdated(cn->array, idx, static_cast<TNode*>(m)->sn),
        parent->gen);
    if (Gcas(parent, cn, ToContracted(ncn, lev))) return;
    if (RdcssReadRoot()->gen != startgen) return;
  }
}

CTrie::CNode* CTrie::DualBranchCNode(SNode* a, SNode* b, int lev, Gen* gen) {
  // Callers route full 64-bit hash collisions to LNodes before calling, so
  // two distinct hashes always diverge at some level <= 60 here.
  IDF_CHECK_LT(lev, kMaxLevel) << "DualBranchCNode on equal hashes";
  int pa = BranchPos(a->hash, lev);
  int pb = BranchPos(b->hash, lev);
  if (pa != pb) {
    std::vector<Branch*> array;
    if (pa < pb) {
      array = {a, b};
    } else {
      array = {b, a};
    }
    return arena_->New<CNode>(FlagOf(pa) | FlagOf(pb), std::move(array), gen);
  }
  CNode* child = DualBranchCNode(a, b, lev + kBitsPerLevel, gen);
  INode* in = arena_->New<INode>(child, gen);
  return arena_->New<CNode>(FlagOf(pa), std::vector<Branch*>{in}, gen);
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

std::optional<uint64_t> CTrie::Insert(uint64_t key, uint64_t value) {
  IDF_CHECK(!read_only_) << "Insert on a read-only CTrie snapshot";
  uint64_t hash = hash_fn_(key);
  for (;;) {
    INode* root = RdcssReadRoot();
    std::optional<uint64_t> previous;
    OpResult res = DoInsert(root, key, hash, value, 0, nullptr, root->gen,
                            &previous);
    if (res == OpResult::kDone) {
      if (!previous.has_value()) {
        size_hint_.fetch_add(1, std::memory_order_relaxed);
      }
      return previous;
    }
  }
}

CTrie::OpResult CTrie::DoInsert(INode* in, uint64_t key, uint64_t hash,
                                uint64_t value, int lev, INode* parent,
                                Gen* startgen, std::optional<uint64_t>* previous) {
  MainNode* m = GcasRead(in);
  switch (m->kind) {
    case ci::NodeKind::kCNode: {
      CNode* cn = static_cast<CNode*>(m);
      int pos = BranchPos(hash, lev);
      uint64_t flag = FlagOf(pos);
      int idx = ArrayIndex(cn->bmp, flag);
      if ((cn->bmp & flag) == 0) {
        CNode* rn = (cn->gen == in->gen) ? cn : RenewedCNode(cn, in->gen);
        SNode* sn = arena_->New<SNode>(key, hash, value);
        CNode* ncn = arena_->New<CNode>(rn->bmp | flag,
                                        WithInserted(rn->array, idx, sn), in->gen);
        if (Gcas(in, cn, ncn)) {
          previous->reset();
          return OpResult::kDone;
        }
        return OpResult::kRestart;
      }
      Branch* branch = cn->array[static_cast<size_t>(idx)];
      if (branch->kind == ci::NodeKind::kINode) {
        INode* sin = static_cast<INode*>(branch);
        if (sin->gen == startgen) {
          return DoInsert(sin, key, hash, value, lev + kBitsPerLevel, in,
                          startgen, previous);
        }
        if (Gcas(in, cn, RenewedCNode(cn, startgen))) {
          return DoInsert(in, key, hash, value, lev, parent, startgen, previous);
        }
        return OpResult::kRestart;
      }
      SNode* sn = static_cast<SNode*>(branch);
      CNode* rn = (cn->gen == in->gen) ? cn : RenewedCNode(cn, in->gen);
      if (sn->hash == hash && sn->key == key) {
        SNode* nsn = arena_->New<SNode>(key, hash, value);
        CNode* ncn =
            arena_->New<CNode>(rn->bmp, WithUpdated(rn->array, idx, nsn), in->gen);
        if (Gcas(in, cn, ncn)) {
          *previous = sn->value;
          return OpResult::kDone;
        }
        return OpResult::kRestart;
      }
      SNode* nsn = arena_->New<SNode>(key, hash, value);
      MainNode* child;
      if (sn->hash == hash) {
        // Full hash collision directly below this level.
        child = arena_->New<LNode>(nsn, arena_->New<LNode>(sn, nullptr));
      } else {
        child = DualBranchCNode(sn, nsn, lev + kBitsPerLevel, in->gen);
      }
      INode* nin = arena_->New<INode>(child, in->gen);
      CNode* ncn =
          arena_->New<CNode>(rn->bmp, WithUpdated(rn->array, idx, nin), in->gen);
      if (Gcas(in, cn, ncn)) {
        previous->reset();
        return OpResult::kDone;
      }
      return OpResult::kRestart;
    }
    case ci::NodeKind::kTNode: {
      if (parent != nullptr) Clean(parent, lev - kBitsPerLevel);
      return OpResult::kRestart;
    }
    case ci::NodeKind::kLNode: {
      LNode* ln = static_cast<LNode*>(m);
      // Rebuild the list, replacing the key if present.
      SNode* nsn = arena_->New<SNode>(key, hash, value);
      LNode* nln = arena_->New<LNode>(nsn, nullptr);
      std::optional<uint64_t> old;
      for (LNode* p = ln; p != nullptr; p = p->next) {
        if (p->sn->key == key) {
          old = p->sn->value;
          continue;
        }
        nln = arena_->New<LNode>(p->sn, nln);
      }
      if (Gcas(in, ln, nln)) {
        *previous = old;
        return OpResult::kDone;
      }
      return OpResult::kRestart;
    }
    default:
      IDF_LOG(Fatal) << "unexpected main node kind in DoInsert";
      return OpResult::kRestart;
  }
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

std::optional<uint64_t> CTrie::Lookup(uint64_t key) const {
  uint64_t hash = hash_fn_(key);
  for (;;) {
    INode* root = RdcssReadRoot();
    uint64_t out = 0;
    OpResult res = const_cast<CTrie*>(this)->DoLookup(root, key, hash, 0,
                                                      nullptr, root->gen, &out);
    if (res == OpResult::kDone) return out;
    if (res == OpResult::kNotFound) return std::nullopt;
  }
}

CTrie::OpResult CTrie::DoLookup(INode* in, uint64_t key, uint64_t hash, int lev,
                                INode* parent, Gen* startgen,
                                uint64_t* out) const {
  MainNode* m = GcasRead(in);
  switch (m->kind) {
    case ci::NodeKind::kCNode: {
      CNode* cn = static_cast<CNode*>(m);
      int pos = BranchPos(hash, lev);
      uint64_t flag = FlagOf(pos);
      if ((cn->bmp & flag) == 0) return OpResult::kNotFound;
      int idx = ArrayIndex(cn->bmp, flag);
      Branch* branch = cn->array[static_cast<size_t>(idx)];
      if (branch->kind == ci::NodeKind::kINode) {
        INode* sin = static_cast<INode*>(branch);
        if (read_only_ || sin->gen == startgen) {
          return DoLookup(sin, key, hash, lev + kBitsPerLevel, in, startgen, out);
        }
        if (const_cast<CTrie*>(this)->Gcas(
                in, cn, const_cast<CTrie*>(this)->RenewedCNode(cn, startgen))) {
          return DoLookup(in, key, hash, lev, parent, startgen, out);
        }
        return OpResult::kRestart;
      }
      SNode* sn = static_cast<SNode*>(branch);
      if (sn->hash == hash && sn->key == key) {
        *out = sn->value;
        return OpResult::kDone;
      }
      return OpResult::kNotFound;
    }
    case ci::NodeKind::kTNode: {
      TNode* tn = static_cast<TNode*>(m);
      if (read_only_) {
        // Deliver from the tomb: a read-only snapshot never cleans.
        if (tn->sn->hash == hash && tn->sn->key == key) {
          *out = tn->sn->value;
          return OpResult::kDone;
        }
        return OpResult::kNotFound;
      }
      if (parent != nullptr) {
        const_cast<CTrie*>(this)->Clean(parent, lev - kBitsPerLevel);
      }
      return OpResult::kRestart;
    }
    case ci::NodeKind::kLNode: {
      for (LNode* p = static_cast<LNode*>(m); p != nullptr; p = p->next) {
        if (p->sn->key == key) {
          *out = p->sn->value;
          return OpResult::kDone;
        }
      }
      return OpResult::kNotFound;
    }
    default:
      IDF_LOG(Fatal) << "unexpected main node kind in DoLookup";
      return OpResult::kRestart;
  }
}

// ---------------------------------------------------------------------------
// Remove
// ---------------------------------------------------------------------------

std::optional<uint64_t> CTrie::Remove(uint64_t key) {
  IDF_CHECK(!read_only_) << "Remove on a read-only CTrie snapshot";
  uint64_t hash = hash_fn_(key);
  for (;;) {
    INode* root = RdcssReadRoot();
    std::optional<uint64_t> removed;
    OpResult res = DoRemove(root, key, hash, 0, nullptr, root->gen, &removed);
    if (res == OpResult::kDone) {
      if (removed.has_value()) {
        size_hint_.fetch_sub(1, std::memory_order_relaxed);
      }
      return removed;
    }
    if (res == OpResult::kNotFound) return std::nullopt;
  }
}

CTrie::OpResult CTrie::DoRemove(INode* in, uint64_t key, uint64_t hash, int lev,
                                INode* parent, Gen* startgen,
                                std::optional<uint64_t>* removed) {
  MainNode* m = GcasRead(in);
  switch (m->kind) {
    case ci::NodeKind::kCNode: {
      CNode* cn = static_cast<CNode*>(m);
      int pos = BranchPos(hash, lev);
      uint64_t flag = FlagOf(pos);
      if ((cn->bmp & flag) == 0) return OpResult::kNotFound;
      int idx = ArrayIndex(cn->bmp, flag);
      Branch* branch = cn->array[static_cast<size_t>(idx)];
      OpResult res;
      if (branch->kind == ci::NodeKind::kINode) {
        INode* sin = static_cast<INode*>(branch);
        if (sin->gen == startgen) {
          res = DoRemove(sin, key, hash, lev + kBitsPerLevel, in, startgen,
                         removed);
        } else if (Gcas(in, cn, RenewedCNode(cn, startgen))) {
          res = DoRemove(in, key, hash, lev, parent, startgen, removed);
        } else {
          return OpResult::kRestart;
        }
      } else {
        SNode* sn = static_cast<SNode*>(branch);
        if (sn->hash != hash || sn->key != key) return OpResult::kNotFound;
        CNode* rn = (cn->gen == in->gen) ? cn : RenewedCNode(cn, in->gen);
        CNode* ncn = arena_->New<CNode>(rn->bmp & ~flag,
                                        WithRemoved(rn->array, idx), in->gen);
        if (Gcas(in, cn, ToContracted(ncn, lev))) {
          *removed = sn->value;
          res = OpResult::kDone;
        } else {
          return OpResult::kRestart;
        }
      }
      if (res == OpResult::kDone && removed->has_value() && parent != nullptr) {
        MainNode* now = GcasRead(in);
        if (now->kind == ci::NodeKind::kTNode) {
          CleanParent(parent, in, hash, lev - kBitsPerLevel, startgen);
        }
      }
      return res;
    }
    case ci::NodeKind::kTNode: {
      if (parent != nullptr) Clean(parent, lev - kBitsPerLevel);
      return OpResult::kRestart;
    }
    case ci::NodeKind::kLNode: {
      LNode* ln = static_cast<LNode*>(m);
      std::optional<uint64_t> old;
      LNode* nln = nullptr;
      size_t remaining = 0;
      for (LNode* p = ln; p != nullptr; p = p->next) {
        if (p->sn->key == key) {
          old = p->sn->value;
          continue;
        }
        nln = arena_->New<LNode>(p->sn, nln);
        ++remaining;
      }
      if (!old.has_value()) return OpResult::kNotFound;
      // LNodes are created with >= 2 entries, so at least one remains.
      IDF_CHECK_GE(remaining, 1u);
      MainNode* replacement;
      if (remaining == 1) {
        replacement = arena_->New<TNode>(nln->sn);
      } else {
        replacement = nln;
      }
      if (Gcas(in, ln, replacement)) {
        *removed = old;
        return OpResult::kDone;
      }
      return OpResult::kRestart;
    }
    default:
      IDF_LOG(Fatal) << "unexpected main node kind in DoRemove";
      return OpResult::kRestart;
  }
}

// ---------------------------------------------------------------------------
// Snapshots and traversal
// ---------------------------------------------------------------------------

CTrie CTrie::Snapshot() {
  for (;;) {
    INode* r = RdcssReadRoot();
    MainNode* expmain = GcasRead(r);
    Gen* mine = arena_->New<Gen>();
    if (read_only_ ||
        RdcssRoot(r, expmain, arena_->New<INode>(expmain, mine))) {
      Gen* theirs = arena_->New<Gen>();
      INode* snap_root = arena_->New<INode>(expmain, theirs);
      return CTrie(arena_, hash_fn_, snap_root, /*read_only=*/false,
                   size_hint_.load(std::memory_order_relaxed));
    }
  }
}

CTrie CTrie::ReadOnlySnapshot() {
  for (;;) {
    INode* r = RdcssReadRoot();
    MainNode* expmain = GcasRead(r);
    Gen* mine = arena_->New<Gen>();
    if (read_only_ ||
        RdcssRoot(r, expmain, arena_->New<INode>(expmain, mine))) {
      // The old root r is frozen: every future write renews away from it.
      return CTrie(arena_, hash_fn_, r, /*read_only=*/true,
                   size_hint_.load(std::memory_order_relaxed));
    }
  }
}

void CTrie::ForEachNode(ci::MainNode* m,
                        const std::function<void(uint64_t, uint64_t)>& fn) const {
  switch (m->kind) {
    case ci::NodeKind::kCNode: {
      CNode* cn = static_cast<CNode*>(m);
      for (Branch* b : cn->array) {
        if (b->kind == ci::NodeKind::kSNode) {
          SNode* sn = static_cast<SNode*>(b);
          fn(sn->key, sn->value);
        } else {
          ForEachNode(GcasRead(static_cast<INode*>(b)), fn);
        }
      }
      break;
    }
    case ci::NodeKind::kTNode: {
      TNode* tn = static_cast<TNode*>(m);
      fn(tn->sn->key, tn->sn->value);
      break;
    }
    case ci::NodeKind::kLNode: {
      for (LNode* p = static_cast<LNode*>(m); p != nullptr; p = p->next) {
        fn(p->sn->key, p->sn->value);
      }
      break;
    }
    default:
      break;
  }
}

void CTrie::ForEach(const std::function<void(uint64_t, uint64_t)>& fn) const {
  if (read_only_) {
    ForEachLive(fn);
    return;
  }
  CTrie snap = const_cast<CTrie*>(this)->ReadOnlySnapshot();
  snap.ForEach(fn);
}

void CTrie::ForEachLive(const std::function<void(uint64_t, uint64_t)>& fn) const {
  ForEachNode(GcasRead(RdcssReadRoot()), fn);
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

size_t CTrie::LiveBytesOfMain(ci::MainNode* m) const {
  switch (m->kind) {
    case ci::NodeKind::kCNode: {
      CNode* cn = static_cast<CNode*>(m);
      size_t bytes = sizeof(CNode) + cn->array.capacity() * sizeof(Branch*);
      for (Branch* b : cn->array) {
        if (b->kind == ci::NodeKind::kSNode) {
          bytes += sizeof(SNode);
        } else {
          bytes += sizeof(INode) + LiveBytesOfMain(GcasRead(static_cast<INode*>(b)));
        }
      }
      return bytes;
    }
    case ci::NodeKind::kTNode:
      return sizeof(TNode) + sizeof(SNode);
    case ci::NodeKind::kLNode: {
      size_t bytes = 0;
      for (LNode* p = static_cast<LNode*>(m); p != nullptr; p = p->next) {
        bytes += sizeof(LNode) + sizeof(SNode);
      }
      return bytes;
    }
    default:
      return 0;
  }
}

size_t CTrie::LiveMemoryBytes() const {
  return sizeof(INode) + LiveBytesOfMain(GcasRead(RdcssReadRoot()));
}

}  // namespace idf
