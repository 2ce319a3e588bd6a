#include "service/plan_cache.h"

#include <cctype>

namespace idf {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (char c : sql) {
    if (in_string) {
      out.push_back(c);
      if (c == '\'') in_string = false;
      continue;
    }
    if (c == '\'') {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(c);
      in_string = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

PreparedStatementPtr PlanCache::Lookup(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  return *it->second;
}

void PlanCache::Insert(const PreparedStatementPtr& stmt) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_fingerprint_.find(stmt->fingerprint);
  if (it != by_fingerprint_.end()) {
    *it->second = stmt;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(stmt);
  by_fingerprint_[stmt->fingerprint] = lru_.begin();
  while (lru_.size() > capacity_) {
    by_fingerprint_.erase(lru_.back()->fingerprint);
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanCache::Erase(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end()) return;
  lru_.erase(it->second);
  by_fingerprint_.erase(it);
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_fingerprint_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace idf
