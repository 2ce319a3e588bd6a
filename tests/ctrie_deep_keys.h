// Test keys that reach the CTrie's deepest levels. The trie branches on
// Mix64(key), 6 bits per level from the low end, and Mix64 is a bijection,
// so keys are chosen by their hash: DeepKey(i) inverts Mix64 on a hash
// whose low 54 bits are fixed and whose top 10 bits are `i`. Up to 1024
// such keys share one path through levels 0-8 and branch only at levels 9
// and 10.
#pragma once

#include <cstdint>

namespace idf {

/// Multiplicative inverse of an odd `c` modulo 2^64 (Newton's iteration:
/// 3 correct bits to start, doubling per step).
constexpr uint64_t InverseMod64(uint64_t c) {
  uint64_t inv = c;
  for (int i = 0; i < 5; ++i) inv *= 2 - c * inv;
  return inv;
}

/// Solves y = x ^ (x >> shift) for x; each step fixes `shift` more bits.
constexpr uint64_t UnXorShift(uint64_t y, int shift) {
  uint64_t x = y;
  for (int fixed = shift; fixed < 64; fixed += shift) x = y ^ (x >> shift);
  return x;
}

/// Inverse of Mix64 (common/hash.h), step by step in reverse.
constexpr uint64_t UnMix64(uint64_t h) {
  h = UnXorShift(h, 31);
  h *= InverseMod64(0x94d049bb133111ebULL);
  h = UnXorShift(h, 27);
  h *= InverseMod64(0xbf58476d1ce4e5b9ULL);
  h = UnXorShift(h, 30);
  return h - 0x9e3779b97f4a7c15ULL;
}

constexpr uint64_t kDeepKeys = 1024;

/// The i-th (i < kDeepKeys) key whose Mix64 image shares its low 54 bits
/// with every other DeepKey.
constexpr uint64_t DeepKey(uint64_t i) { return UnMix64((i << 54) | 0x2d5a3c96e1f0bULL); }

}  // namespace idf
