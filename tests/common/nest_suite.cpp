#include "common/nest_suite.hpp"

namespace ilp {

using dsl::LoopType;

const std::vector<Workload>& nest_suite() {
  static const std::vector<Workload> w = [] {
    std::vector<Workload> v;

    // Column-major traversal of row-major storage: the inner loop walks the
    // row dimension, so interchange (and tiling) turn stride-12 accesses
    // into stride-1.  All dependences are (=,=) — every reordering is legal.
    v.push_back({"NEST-XPOSE", "NEST", 1, 8, 2, LoopType::DoAll, false, R"(
program nest_xpose
array M[8][12] fp
array N[8][12] fp
scalar c fp init 1.25
loop i = 0 to 11 {
  loop j = 0 to 7 {
    M[j][i] = M[j][i] * c + N[j][i];
  }
}
)"});

    // Two adjacent conformable loops over the same range with a forward
    // (loop-independent after fusion) dependence A -> second loop: fusable.
    v.push_back({"NEST-FUSE", "NEST", 1, 48, 1, LoopType::DoAll, false, R"(
program nest_fuse
array A[48] fp
array B[48] fp
array C[48] fp
scalar c fp init 0.5
loop i = 0 to 47 {
  A[i] = B[i] * c + 1.0;
}
loop i = 0 to 47 {
  C[i] = A[i] + B[i];
}
)"});

    // One loop mixing an independent DOALL stream with a first-order
    // recurrence: fission splits them so the stream schedules at full width.
    v.push_back({"NEST-FISS", "NEST", 2, 40, 1, LoopType::DoAcross, false, R"(
program nest_fiss
array A[41] fp
array B[41] fp
array C[41] fp
scalar c fp init 0.75
loop i = 1 to 40 {
  A[i] = B[i] * c + 2.0;
  C[i] = C[i - 1] * c + B[i];
}
)"});

    // Square nest with reuse along both dimensions; big enough that the
    // tiling pass strip-mines it (trip 16 > default test tile sizes).
    v.push_back({"NEST-TILE", "NEST", 1, 16, 2, LoopType::DoAll, false, R"(
program nest_tile
array M[16][16] fp
array N[16][16] fp
loop i = 0 to 15 {
  loop j = 0 to 15 {
    M[j][i] = M[j][i] + N[j][i] * 1.5;
  }
}
)"});

    // Skewed dependence M[i-1][j+1]: direction (<,>), the textbook
    // interchange-illegal nest.  The legality layer must leave it alone, so
    // this row pins the "nest on == nest off" baseline in BENCH_7.
    v.push_back({"NEST-SKEW", "NEST", 1, 10, 2, LoopType::DoAcross, false, R"(
program nest_skew
array M[8][12] fp
array N[8][12] fp
loop i = 1 to 6 {
  loop j = 1 to 10 {
    M[i][j] = M[i - 1][j + 1] + N[i][j];
  }
}
)"});

    // Fusion chain: three conformable loops where fusing the first pair is
    // legal but the third carries a backward dependence on the second
    // (B[i+1]) — fuses exactly once, pinning the fusion-preventing test.
    v.push_back({"NEST-CHAIN", "NEST", 1, 32, 1, LoopType::DoAll, false, R"(
program nest_chain
array A[34] fp
array B[34] fp
array C[34] fp
loop i = 1 to 32 {
  A[i] = B[i] * 1.25;
}
loop i = 1 to 32 {
  C[i] = A[i] + 0.5;
}
loop i = 1 to 32 {
  B[i + 1] = C[i] * 2.0;
}
)"});

    return v;
  }();
  return w;
}

}  // namespace ilp
