// Counting operator new for the traced study run (engine.allocs_per_cell).
// Counting is per thread and off unless a CountAllocs scope is open on that
// thread, so untraced runs pay one thread-local load per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounter {
  static thread_local bool active;
  static thread_local std::uint64_t count;
};

class CountAllocs {
 public:
  CountAllocs() { AllocCounter::active = true; }
  ~CountAllocs() { AllocCounter::active = false; }
  CountAllocs(const CountAllocs&) = delete;
  CountAllocs& operator=(const CountAllocs&) = delete;
};

}  // namespace perfbench
