// Simulated data memory.
//
// Byte addresses key logical cells: every distinct address used by the
// program denotes one 64-bit cell (the workloads address arrays at a fixed
// element stride, so cells never overlap).  Stores record raw bits; integer
// and floating loads reinterpret them, matching a real memory.  The paper
// assumes a 100% cache hit rate, so timing is uniform and lives in the
// simulator, not here.
//
// Cells live in two places:
//   * a dense window: one slot per 4 bytes over a contiguous address range,
//     indexed by (addr - base) / 4.  seed_arrays() maps it over a function's
//     declared arrays, which the frontend packs back to back (with 256 bytes
//     of padding between them), so every in-bounds array access is an
//     indexed load or store with no hashing;
//   * an open-addressed flat map for everything else — addresses outside the
//     window, addresses off its 4-byte grid, and every cell of a memory that
//     never had a window mapped.  It uses a locality-preserving hash
//     (addresses stride 4 bytes, so addr >> 2): a sequential address walk is
//     a sequential, prefetchable table walk.
// The split is invisible through the API: an unwritten cell reads 0,
// footprint() counts written cells, and two memories compare equal exactly
// when they hold the same (address, bits) cells, however each stores them.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "support/flat_map.hpp"

namespace ilp {

class Memory {
 public:
  void store_int(std::int64_t addr, std::int64_t v) {
    store_bits(addr, std::bit_cast<std::uint64_t>(v));
  }
  void store_fp(std::int64_t addr, double v) {
    store_bits(addr, std::bit_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::int64_t load_int(std::int64_t addr) const {
    return std::bit_cast<std::int64_t>(load_bits(addr));
  }
  [[nodiscard]] double load_fp(std::int64_t addr) const {
    return std::bit_cast<double>(load_bits(addr));
  }

  // Grows the flat map so `n` cells fit without rehashing.
  void reserve(std::size_t n) { cells_.reserve(n); }

  // Maps the dense window over [lo, hi) (4-byte grid from `lo`).  Only an
  // empty memory without a window takes one; otherwise this is a no-op and
  // every cell stays in the flat map.  Returns whether the window was mapped.
  bool map_window(std::int64_t lo, std::int64_t hi) {
    if (!window_.empty() || cells_.size() != 0 || hi <= lo) return false;
    lo_ = lo;
    const auto bytes = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    window_.assign(static_cast<std::size_t>((bytes + 3) / 4), 0);
    written_.assign(window_.size(), 0);
    return true;
  }

  [[nodiscard]] std::size_t footprint() const { return window_cells_ + cells_.size(); }

  // Calls fn(addr, raw_bits) for every written cell, in unspecified order.
  template <class F>
  void for_each_cell(F&& fn) const {
    for (std::size_t i = 0; i < window_.size(); ++i)
      if (written_[i] != 0) fn(window_addr(i), window_[i]);
    cells_.for_each(fn);
  }

  [[nodiscard]] bool operator==(const Memory& o) const {
    if (footprint() != o.footprint()) return false;
    bool equal = true;
    for_each_cell([&](std::int64_t addr, std::uint64_t bits) {
      const std::uint64_t* p = o.find(addr);
      if (p == nullptr || *p != bits) equal = false;
    });
    return equal;
  }

 private:
  // Window slot of `addr`, or window_.size() when the address is outside the
  // window or off its grid: rotating the byte offset right by 2 moves any
  // misalignment into the top bits, so one compare rejects both.
  [[nodiscard]] std::size_t window_index(std::int64_t addr) const {
    const std::uint64_t off =
        static_cast<std::uint64_t>(addr) - static_cast<std::uint64_t>(lo_);
    const std::uint64_t i = std::rotr(off, 2);
    return i < window_.size() ? static_cast<std::size_t>(i) : window_.size();
  }
  [[nodiscard]] std::int64_t window_addr(std::size_t i) const {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo_) + 4 * i);
  }

  void store_bits(std::int64_t addr, std::uint64_t bits) {
    const std::size_t i = window_index(addr);
    if (i == window_.size()) {
      cells_.put(addr, bits);
      return;
    }
    window_[i] = bits;
    if (written_[i] == 0) {
      written_[i] = 1;
      ++window_cells_;
    }
  }
  [[nodiscard]] std::uint64_t load_bits(std::int64_t addr) const {
    const std::size_t i = window_index(addr);
    if (i != window_.size()) return window_[i];  // unwritten slots hold 0
    const std::uint64_t* p = cells_.find(addr);
    return p == nullptr ? 0 : *p;
  }
  // The written cell at `addr`, or nullptr.
  [[nodiscard]] const std::uint64_t* find(std::int64_t addr) const {
    const std::size_t i = window_index(addr);
    if (i == window_.size()) return cells_.find(addr);
    return written_[i] != 0 ? &window_[i] : nullptr;
  }

  std::int64_t lo_ = 0;
  std::vector<std::uint64_t> window_;
  std::vector<std::uint8_t> written_;  // parallel to window_
  std::size_t window_cells_ = 0;       // written window slots
  BasicFlatMap64<ShiftHash<2>> cells_;
};

}  // namespace ilp
