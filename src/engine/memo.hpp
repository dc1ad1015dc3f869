// Memoised computation over a ResultCache: the one place a cached value is
// looked up, decoded (or invalidated), computed and stored.
//
// A cache family is a key domain (harness/cache_key.hpp) plus a Codec: the
// payload schema in both directions and which outcomes must never answer a
// later lookup.  The study's cells, the tuner's measurements and every ilpd
// family (cells, base cycles, whole searches) go through these three calls;
// ilpd adds in-flight coalescing on top (server/service.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "engine/cache.hpp"

namespace ilp::engine {

template <typename T>
struct Codec {
  std::string (*encode)(const T&) = nullptr;
  // False for a payload this family cannot read: another schema version, a
  // corrupted file, or a shape it never stores.
  bool (*decode)(const std::string& payload, T& out) = nullptr;
  // True for an outcome that is returned but never stored (a deadline-hit
  // cell, a search that stopped early).  Null stores every outcome.
  bool (*never_cache)(const T&) = nullptr;
};

// The decoded entry for `key`, or nullopt.  An entry the codec rejects is
// invalidated, so it reads as a miss and the next store replaces it.
template <typename T>
[[nodiscard]] std::optional<T> memo_lookup(ResultCache& cache, std::uint64_t key,
                                           const Codec<T>& codec) {
  if (auto payload = cache.lookup(key)) {
    T value{};
    if (codec.decode(*payload, value)) return value;
    cache.invalidate(key);
  }
  return std::nullopt;
}

template <typename T>
void memo_store(ResultCache& cache, std::uint64_t key, const Codec<T>& codec,
                const T& value) {
  if (codec.never_cache == nullptr || !codec.never_cache(value))
    cache.store(key, codec.encode(value));
}

// memo_lookup, then compute() and memo_store on a miss.
template <typename T, typename Compute>
T memoize(ResultCache& cache, std::uint64_t key, const Codec<T>& codec,
          Compute&& compute) {
  if (auto cached = memo_lookup(cache, key, codec)) return std::move(*cached);
  T value = std::forward<Compute>(compute)();
  memo_store(cache, key, codec, value);
  return value;
}

}  // namespace ilp::engine
