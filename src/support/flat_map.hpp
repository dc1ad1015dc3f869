// Open-addressed hash map from int64 keys to uint64 values, used on the hot
// paths that a node-based std::unordered_map dominates: the simulator's data
// memory outside its dense array window, and the dependence graph's
// duplicate-edge index ((from,to) -> edge id).
//
// Compared with std::unordered_map this avoids one heap allocation per entry
// and the pointer chase per probe: the table is a single flat array of
// (key, value) slots probed linearly.  Supports insert/overwrite and lookup
// only — no client erases, so tombstones are unnecessary.
//
// The hash is a policy: packed or adversarial keys want full avalanche
// (SplitMix64Hash), while keys that arrive in runs — the simulator's
// sequential array addresses — want a locality-preserving map so that
// consecutive keys land in consecutive slots and a linear scan of the keys
// is a linear scan of the table (ShiftHash).  With an avalanche hash a
// sequential sweep over a table bigger than the cache is one miss per
// access; with ShiftHash it is a hardware-prefetchable stride.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ilp {

// splitmix64 finalizer: full avalanche, so arbitrary keys spread evenly and
// linear probing stays near one slot per lookup.
struct SplitMix64Hash {
  std::size_t operator()(std::int64_t key) const {
    auto x = static_cast<std::uint64_t>(key);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

// Identity shifted by the key stride: keys Shift apart map to adjacent slots.
// Only for keys that are naturally spread (e.g. addresses); clustered key
// sets degrade to long linear probes.
template <unsigned Shift>
struct ShiftHash {
  std::size_t operator()(std::int64_t key) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(key) >> Shift);
  }
};

template <class Hash>
class BasicFlatMap64 {
 public:
  BasicFlatMap64() { rehash(kInitialCapacity); }

  // Inserts key -> value, overwriting any existing entry.
  void put(std::int64_t key, std::uint64_t value) {
    if ((size_ + 1) * 10 >= capacity_ * 7) rehash(capacity_ * 2);
    Slot& s = probe(key);
    if (!s.used) {
      s.used = true;
      s.key = key;
      ++size_;
    }
    s.value = value;
  }

  // Inserts key -> value only if absent.  Returns the value slot (existing or
  // new) and whether the insert happened; the pointer is valid until the next
  // mutating call.
  std::pair<std::uint64_t*, bool> try_emplace(std::int64_t key, std::uint64_t value) {
    if ((size_ + 1) * 10 >= capacity_ * 7) rehash(capacity_ * 2);
    Slot& s = probe(key);
    if (s.used) return {&s.value, false};
    s.used = true;
    s.key = key;
    s.value = value;
    ++size_;
    return {&s.value, true};
  }

  // Grows the table so `n` entries fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = capacity_;
    while ((n + 1) * 10 >= cap * 7) cap *= 2;
    if (cap != capacity_) rehash(cap);
  }

  // Returns a pointer to the value for `key`, or nullptr if absent.
  [[nodiscard]] const std::uint64_t* find(std::int64_t key) const {
    const Slot& s = const_cast<BasicFlatMap64*>(this)->probe(key);
    return s.used ? &s.value : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  // Calls fn(key, value) for every entry, in unspecified order.
  template <class F>
  void for_each(F&& fn) const {
    for (const Slot& s : slots_)
      if (s.used) fn(s.key, s.value);
  }

  void clear() {
    for (Slot& s : slots_) s.used = false;
    size_ = 0;
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    std::uint64_t value = 0;
    bool used = false;
  };

  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  Slot& probe(std::int64_t key) {
    std::size_t i = Hash{}(key) & (capacity_ - 1);
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & (capacity_ - 1);
    return slots_[i];
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    capacity_ = new_capacity;
    slots_.assign(capacity_, Slot{});
    for (const Slot& s : old) {
      if (!s.used) continue;
      Slot& dst = probe(s.key);
      dst = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

using FlatHashMap64 = BasicFlatMap64<SplitMix64Hash>;

}  // namespace ilp
