// Shared test helpers: construction of the paper's example loops (Figures 1,
// 3, 5, 6, 7), steady-state cycle measurement, and the randomized DSL
// program generator used by the differential fuzz tests, the server tests
// and the ilp_loadgen corpus.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "ir/builder.hpp"
#include "ir/function.hpp"
#include "machine/machine.hpp"
#include "sim/simulator.hpp"
#include "support/strings.hpp"

namespace ilp::testing {

// --- Randomized DSL corpus ---------------------------------------------------

// Deterministic 64-bit LCG used by all property-based tests.  next() exposes
// the top 47 bits of the state; range() draws without modulo bias (rejection
// sampling over the 47-bit output range), so small spans are exactly uniform
// — the old `next() % span` skewed low values and with them the generated
// statement mix.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 2654435761u + 0x9e3779b97f4a7c15ull) {}

  std::uint64_t next() {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return s_ >> 17;
  }

  int range(int lo, int hi) {  // inclusive, unbiased
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    constexpr std::uint64_t kOutRange = 1ull << 47;  // next() yields [0, 2^47)
    const std::uint64_t limit = kOutRange - kOutRange % span;
    std::uint64_t v;
    do {
      v = next();
    } while (v >= limit);
    return lo + static_cast<int>(v % span);
  }

  bool chance(int percent) { return range(1, 100) <= percent; }

 private:
  std::uint64_t s_;
};

// Scales a fuzz test's seed count by the ILP_FUZZ_SEEDS environment variable:
// unset/empty/invalid keeps the base count; "10" or "10x" multiplies it by 10
// (the nightly extended-fuzz CI job runs with ILP_FUZZ_SEEDS=10x).
inline int fuzz_seed_count(int base) {
  const char* env = std::getenv("ILP_FUZZ_SEEDS");
  if (env == nullptr || *env == '\0') return base;
  char* end = nullptr;
  const long mult = std::strtol(env, &end, 10);
  if (mult <= 0 || end == env) return base;
  return base * static_cast<int>(mult);
}

// Generates a random structurally valid single-nest program over fp arrays
// A..E, int arrays K/L and scalars.  The statement mix deliberately covers
// every transformation family: reductions and searches (expansion), fp and
// int recurrences, subscript offsets (disambiguation), integer
// multiply/divide/remainder by constants whose strength-reduced forms are
// shift/add chains, int-array stores, and — with small probability —
// zero-trip and single-trip loops, the unroll preconditioning edge cases.
inline std::string random_program(std::uint64_t seed) {
  Rng rng(seed);
  int trip;
  switch (rng.range(0, 19)) {
    case 0: trip = 0; break;   // zero-trip: guard branch skips the body
    case 1: trip = 1; break;   // single-trip: preconditioning leaves no kernel
    default: trip = rng.range(5, 90); break;
  }
  const int lo_off = 4;                // room for negative subscript offsets
  const int len = trip + 16;
  const bool nested = rng.chance(35);

  std::string src = "program fuzz\n";
  for (const char* a : {"A", "B", "C", "D", "E"})
    src += strformat("array %s[%d] fp\n", a, len);
  src += strformat("array K[%d] int\n", len);
  src += strformat("array L[%d] int\n", len);
  src +=
      "scalar s fp out\n"
      "scalar t fp\n"
      "scalar m fp init -1.0e30 out\n"
      "scalar n int out\n";

  // Multiplicands whose strength-reduced replacements are single shifts
  // (2^k) and two-shift add/sub chains (2^a +/- 2^b).
  static constexpr int kShiftAddConsts[] = {2, 3, 4, 5, 6, 8, 12, 15, 16, 17};
  auto shift_add_const = [&rng] { return kShiftAddConsts[rng.range(0, 9)]; };

  std::string body;
  const int stmts = rng.range(2, 8);
  bool t_defined = false;
  for (int k = 0; k < stmts; ++k) {
    switch (rng.range(0, 12)) {
      case 0:
        body += strformat("    C[i] = A[i%+d] %c B[i];\n", rng.range(-3, 3),
                          "+-*"[rng.range(0, 2)]);
        break;
      case 1:
        body += strformat("    D[i%+d] = A[i] * %d.5;\n", rng.range(-2, 2),
                          rng.range(0, 3));
        break;
      case 2:
        body += "    s = s + A[i] * B[i];\n";
        break;
      case 3:
        body += "    m = max(m, B[i] - A[i]);\n";
        break;
      case 4:
        body += strformat("    t = A[i] * %d.25 + C[i];\n", rng.range(0, 2));
        t_defined = true;
        break;
      case 5:
        if (t_defined)
          body += "    E[i] = t + B[i];\n";
        else
          body += "    E[i] = B[i] * 2.0;\n";
        break;
      case 6:
        body += strformat("    A[i] = A[i-%d] * 0.5 + B[i];\n", rng.range(1, 4));
        break;
      case 7:
        body += "    s = s + A[i] / (B[i] + 3.0);\n";
        break;
      case 8:
        body += strformat("    n = n + K[i] %% %d + K[i] / %d;\n", rng.range(2, 9),
                          rng.range(2, 9));
        break;
      case 9:
        body += "    E[i] = (A[i] + B[i]) * (C[i] + 1.5) * D[i] / (B[i] + 2.0);\n";
        break;
      case 10:  // int-array store with a shift/add-reducible multiply
        body += strformat("    K[i%+d] = K[i] * %d + %d;\n", rng.range(-2, 2),
                          shift_add_const(), rng.range(0, 7));
        break;
      case 11:  // int store reading the int reduction scalar (loop-carried)
        body += strformat("    L[i] = K[i] * %d - n;\n", shift_add_const());
        break;
      case 12:  // multiply-by-constant operand feeding an int reduction
        body += strformat("    n = n + L[i] * %d;\n", shift_add_const());
        break;
    }
  }
  if (rng.chance(25)) body += "    if (s > 1.0e14) break;\n";

  const std::string inner = strformat("  loop i = %d to %d {\n%s  }\n", lo_off,
                                      lo_off + trip - 1, body.c_str());
  if (nested)
    src += strformat("loop o = 0 to %d {\n%s}\n", rng.range(1, 2), inner.c_str());
  else
    src += inner.substr(2);  // unindent

  // Adjacent second loop: every seed ending in 7 gets one deterministically
  // (so any 10 consecutive seeds contain a multi-loop program — the nest
  // passes and their differential tests need loop sequences in the corpus),
  // plus a random 20% of the rest.  Bounds match the first loop 60% of the
  // time to produce fusion candidates; the rest are non-conformable.
  if (seed % 10 == 7 || rng.chance(20)) {
    const int trip2 = rng.chance(60) ? trip : rng.range(3, 40);
    std::string body2;
    const int stmts2 = rng.range(1, 4);
    for (int k = 0; k < stmts2; ++k) {
      switch (rng.range(0, 4)) {
        case 0: body2 += "    B[i] = A[i] * 1.5;\n"; break;
        case 1: body2 += "    s = s + C[i];\n"; break;
        case 2: body2 += strformat("    K[i] = K[i] + %d;\n", rng.range(1, 5)); break;
        case 3: body2 += strformat("    D[i] = C[i%+d] + A[i];\n", rng.range(-2, 2)); break;
        case 4: body2 += "    E[i] = E[i] * 0.5 + B[i];\n"; break;
      }
    }
    src += strformat("loop i = %d to %d {\n%s}\n", lo_off, lo_off + trip2 - 1,
                     body2.c_str());
  }
  return src;
}

// Generates programs shaped for the affine nest transformations
// (trans/nest/): perfect and imperfect 2-3-deep nests over 2-D arrays with
// every direction-vector class — (=,=), (=,<), (<,=), and the
// interchange-illegal (<,>) — transposed accesses that make interchange
// profitable, loop-carried scalar reductions (which interchange/tiling must
// refuse), adjacent fusable and fusion-preventing loop pairs, and
// multi-statement bodies for fission.  Subscript offsets stay within the +-1
// ring, and loop bounds keep every reference in range.
inline std::string random_nest_program(std::uint64_t seed) {
  Rng rng(seed);
  const int rows = rng.range(4, 8);    // 2-D outer dimension
  const int cols = rng.range(8, 24);   // 2-D inner dimension
  const int ti = rng.range(2, rows - 2);  // outer trip, i in [1, ti]
  const int tj = rng.range(4, cols - 2);  // inner trip, j in [1, tj]
  const int t1 = rng.range(4, 30);        // 1-D loop trip, i in [1, t1]
  const int len1 = t1 + 4;

  std::string src = "program nest\n";
  src += strformat("array M[%d][%d] fp\n", rows, cols);
  src += strformat("array N[%d][%d] fp\n", rows, cols);
  src += strformat("array A[%d] fp\narray B[%d] fp\narray C[%d] fp\n", len1, len1, len1);
  src += strformat("array K[%d] int\n", len1);
  src +=
      "scalar s fp out\n"
      "scalar t fp\n"
      "scalar n int out\n";

  // One statement of the perfect-nest body; the mix covers every direction
  // class plus transposed (interchange-profitable) accesses.
  auto nest_stmt = [&rng](const char* i, const char* j) {
    switch (rng.range(0, 6)) {
      case 0: return strformat("    M[%s][%s] = M[%s][%s] * 1.5 + N[%s][%s];\n",
                               i, j, i, j, i, j);              // (=,=)
      case 1: return strformat("    M[%s][%s] = M[%s][%s-1] + N[%s][%s];\n",
                               i, j, i, j, i, j);              // (=,<) serial inner
      case 2: return strformat("    M[%s][%s] = M[%s-1][%s] + 1.25;\n",
                               i, j, i, j);                    // (<,=)
      case 3: return strformat("    M[%s][%s] = M[%s-1][%s+1] * 0.5;\n",
                               i, j, i, j);                    // (<,>): interchange-illegal
      case 4: return strformat("    M[%s][%s] = M[%s][%s] + N[%s][%s];\n",
                               j, i, j, i, j, i);              // transposed: profitable swap
      case 5: return strformat("    N[%s][%s] = M[%s][%s] * 0.75;\n",
                               i, j, i, j);                    // two-array flow
      default: return strformat("    s = s + M[%s][%s];\n", i, j);  // carried scalar
    }
  };

  auto adjacent_1d_pair = [&] {
    std::string p = strformat("loop i = 1 to %d {\n    A[i] = B[i] * 1.5 + C[i];\n", t1);
    if (rng.chance(40)) p += "    K[i] = K[i] * 3 + 1;\n";
    p += "}\n";
    switch (rng.range(0, 2)) {
      case 0:  // fusable: same bounds, forward (distance <= 0) dependence only
        p += strformat("loop i = 1 to %d {\n    C[i] = A[i] + 2.0;\n}\n", t1);
        break;
      case 1:  // fusion-preventing: reads ahead of the producer
        p += strformat("loop i = 1 to %d {\n    C[i] = A[i+1] + 2.0;\n}\n", t1);
        break;
      case 2:  // non-conformable bounds
        p += strformat("loop i = 2 to %d {\n    C[i] = A[i] + 2.0;\n}\n", t1);
        break;
    }
    return p;
  };

  std::string prog;
  switch (seed % 6) {
    case 0: {  // perfect 2-deep nest
      std::string body;
      const int stmts = rng.range(1, 3);
      for (int k = 0; k < stmts; ++k) body += nest_stmt("i", "j");
      prog = strformat("loop i = 1 to %d {\n  loop j = 1 to %d {\n%s  }\n}\n", ti, tj,
                       body.c_str());
      break;
    }
    case 1: {  // imperfect: scalar work before and after the inner loop
      std::string body = nest_stmt("i", "j");
      prog = strformat(
          "loop i = 1 to %d {\n  t = A[i] * 2.0;\n  loop j = 1 to %d {\n%s"
          "    N[i][j] = N[i][j] + t;\n  }\n  B[i] = t + 1.0;\n}\n",
          ti, tj, body.c_str());
      break;
    }
    case 2: {  // 3-deep: the inner pair is perfect, the outer is not
      std::string body = nest_stmt("j", "k");
      prog = strformat(
          "loop i = 1 to %d {\n  loop j = 1 to %d {\n    loop k = 1 to %d {\n"
          "  %s      N[j][k] = N[j][k] + A[i];\n    }\n  }\n}\n",
          rng.range(1, 2), ti, tj, body.c_str());
      break;
    }
    case 3:  // adjacent 1-D pairs: fusion candidates and rejections
      prog = adjacent_1d_pair();
      break;
    case 4: {  // fission shapes: one loop, independent statement groups
      std::string body = strformat("    A[i] = B[i] * 1.5;\n    C[i] = C[i%+d] + 0.5;\n",
                                   rng.range(-1, 0));
      if (rng.chance(50)) body += "    s = s + B[i];\n";
      if (rng.chance(40)) body += strformat("    K[i] = K[i] * %d + 2;\n", rng.range(2, 5));
      prog = strformat("loop i = 1 to %d {\n%s}\n", t1, body.c_str());
      break;
    }
    default: {  // nest followed by an adjacent 1-D loop
      std::string body = nest_stmt("i", "j");
      prog = strformat("loop i = 1 to %d {\n  loop j = 1 to %d {\n%s  }\n}\n", ti, tj,
                       body.c_str());
      prog += strformat("loop i = 1 to %d {\n    n = n + K[i];\n    B[i] = A[i] + 1.0;\n}\n",
                        t1);
      break;
    }
  }
  src += prog;
  return src;
}

// Measures steady-state cycles per innermost iteration by differencing two
// runs with different trip counts (removes entry/exit overhead exactly for
// loops whose per-iteration cost is constant).
inline double cycles_per_iteration(const std::function<Function(std::int64_t)>& make,
                                   std::int64_t n1, std::int64_t n2,
                                   const MachineModel& machine) {
  const Function f1 = make(n1);
  const Function f2 = make(n2);
  const RunOutcome r1 = run_seeded(f1, machine);
  const RunOutcome r2 = run_seeded(f2, machine);
  if (!r1.result.ok || !r2.result.ok) return -1.0;
  return static_cast<double>(r2.result.cycles - r1.result.cycles) /
         static_cast<double>(n2 - n1);
}

// A machine with effectively unlimited issue slots, as assumed by all the
// paper's Section 2 examples ("a superscalar processor with infinite
// resources and no register renaming hardware").
inline MachineModel infinite_issue() { return MachineModel::issue(64); }

// --- Figure 1(a/b): do j = 1,n: C(j) = A(j) + B(j) --------------------------
//
//   L1: r2f = MEM(A+r1i)
//       r3f = MEM(B+r1i)
//       r4f = r2f+r3f
//       MEM(C+r1i) = r4f
//       r1i = r1i + 4
//       blt (r1i r5i) L1
//
// 7 cycles / iteration on the infinite-issue machine.
inline Function make_fig1_loop(std::int64_t n) {
  Function fn("fig1");
  const std::int32_t A = fn.add_array({"A", 1000, 4, n, true});
  const std::int32_t B = fn.add_array({"B", 9000, 4, n, true});
  const std::int32_t C = fn.add_array({"C", 17000, 4, n, true});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId loop = b.create_block("L1");
  const BlockId exit = b.create_block("exit");

  b.set_block(entry);
  const Reg r1 = b.ldi(0);          // r1i: byte index
  const Reg r5 = b.ldi(4 * n);      // r5i: limit
  b.jump(loop);

  b.set_block(loop);
  const Reg r2 = b.fld(r1, fn.array(A)->base, A);
  const Reg r3 = b.fld(r1, fn.array(B)->base, B);
  const Reg r4 = b.fadd(r2, r3);
  b.fst(r1, fn.array(C)->base, r4, C);
  b.iaddi_to(r1, r1, 4);
  b.br(Opcode::BLT, r1, r5, loop);

  b.set_block(exit);
  b.ret();
  fn.renumber();
  return fn;
}

// --- Figure 3(a/b): do k = 1,SIZE: C(i,j) += A(i,k)*B(k,j) ------------------
//
//       r1f = MEM(C+r2i)            (preheader)
//   L1: r3f = MEM(A+r4i)
//       r5f = MEM(B+r6i)
//       r7f = r3f * r5f
//       r1f = r1f + r7f
//       r4i = r4i + 4
//       r6i = r6i + r8i
//       blt (r4i r9i) L1
//       MEM(C+r2i) = r1f            (exit)
//
// 8 cycles / iteration.
inline Function make_fig3_loop(std::int64_t n) {
  Function fn("fig3");
  const std::int32_t A = fn.add_array({"A", 1000, 4, n, true});
  const std::int32_t B = fn.add_array({"B", 9000, 4, 8 * n, true});
  const std::int32_t C = fn.add_array({"C", 17000, 4, 1, true});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId loop = b.create_block("L1");
  const BlockId exit = b.create_block("exit");

  b.set_block(entry);
  const Reg r2 = b.ldi(0);        // C index
  const Reg r4 = b.ldi(0);        // A stream
  const Reg r6 = b.ldi(0);        // B stream
  const Reg r8 = b.ldi(32);       // B stride (row stride)
  const Reg r9 = b.ldi(4 * n);    // limit
  const Reg r1 = fn.new_fp_reg();
  b.fld_to(r1, r2, fn.array(C)->base, C);
  b.jump(loop);

  b.set_block(loop);
  const Reg r3 = b.fld(r4, fn.array(A)->base, A);
  const Reg r5 = b.fld(r6, fn.array(B)->base, B);
  const Reg r7 = b.fmul(r3, r5);
  b.fadd_to(r1, r1, r7);
  b.iaddi_to(r4, r4, 4);
  b.iadd_to(r6, r6, r8);
  b.br(Opcode::BLT, r4, r9, loop);

  b.set_block(exit);
  b.fst(r2, fn.array(C)->base, r1, C);
  b.ret();
  fn.add_live_out(r1);
  fn.renumber();
  return fn;
}

// --- Figure 5(a/b): do i = 1,n: C(j) = A(j)*B(j); j += K --------------------
//
//   L1: r3f = MEM(A+r2i)
//       r4f = MEM(B+r2i)
//       r5f = r3f * r4f
//       MEM(C+r2i) = r5f
//       r2i = r2i + r7i
//       r1i = r1i + 1
//       blt (r1 r6) L1
//
// 6 cycles / iteration.
inline Function make_fig5_loop(std::int64_t n) {
  Function fn("fig5");
  const std::int64_t k_stride = 8;  // K elements = 2, byte stride 8
  const std::int64_t span = n * k_stride / 4 + 4;
  const std::int32_t A = fn.add_array({"A", 1000, 4, span, true});
  const std::int32_t B = fn.add_array({"B", 9000, 4, span, true});
  const std::int32_t C = fn.add_array({"C", 17000, 4, span, true});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId loop = b.create_block("L1");
  const BlockId exit = b.create_block("exit");

  b.set_block(entry);
  const Reg r2 = b.ldi(0);         // j byte offset
  const Reg r7 = b.ldi(k_stride);  // K byte stride
  const Reg r1 = b.ldi(0);         // i
  const Reg r6 = b.ldi(n);         // n
  b.jump(loop);

  b.set_block(loop);
  const Reg r3 = b.fld(r2, fn.array(A)->base, A);
  const Reg r4 = b.fld(r2, fn.array(B)->base, B);
  const Reg r5 = b.fmul(r3, r4);
  b.fst(r2, fn.array(C)->base, r5, C);
  b.iadd_to(r2, r2, r7);
  b.iaddi_to(r1, r1, 1);
  b.br(Opcode::BLT, r1, r6, loop);

  b.set_block(exit);
  b.ret();
  fn.renumber();
  return fn;
}

// --- Figure 6(a/b): t = A(i+2) - 3.2; if (t < 10.0) continue ----------------
//
//   L1: r1i = r1i + 4
//       r2f = MEM(r1i+8)
//       r3f = r2f - 3.2
//       blt (r3f 10.0) L1
//
// 7 cycles / iteration.  The loop runs while A(i+2) < 13.2; the caller
// controls iteration count through array contents.
inline Function make_fig6_loop(std::int64_t n) {
  Function fn("fig6");
  const std::int32_t A = fn.add_array({"A", 1000, 4, n + 4, true});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId loop = b.create_block("L1");
  const BlockId exit = b.create_block("exit");

  b.set_block(entry);
  const Reg r1 = b.ldi(0);
  b.jump(loop);

  b.set_block(loop);
  b.iaddi_to(r1, r1, 4);
  const Reg r2 = b.fld(r1, fn.array(A)->base + 8, A);
  const Reg r3 = b.fsubi(r2, 3.2);
  b.brf(Opcode::FBLT, r3, 10.0, loop);
  fn.add_live_out(r3);

  b.set_block(exit);
  b.ret();
  fn.renumber();
  return fn;
}

// Fills Figure 6's array so the loop executes exactly n iterations.
inline void fill_fig6_memory(const Function& fn, Memory& mem, std::int64_t n) {
  const ArrayInfo* a = fn.array(0);
  for (std::int64_t i = 0; i < a->length; ++i)
    mem.store_fp(a->base + 4 * i, i < n + 2 ? 1.0 : 99.0);
}

// --- Figure 7(a/b): A = B * (C + D) * E * F / G -----------------------------
//
// Sequential evaluation; result ready 22 cycles after the first issue.
inline Function make_fig7_expr() {
  Function fn("fig7");
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  b.set_block(entry);
  const Reg rB = b.fldi(2.0);
  const Reg rC = b.fldi(3.0);
  const Reg rD = b.fldi(4.0);
  const Reg rE = b.fldi(5.0);
  const Reg rF = b.fldi(6.0);
  const Reg rG = b.fldi(7.0);
  const Reg t1 = b.fadd(rC, rD);
  const Reg t2 = b.fmul(t1, rB);
  const Reg t3 = b.fmul(t2, rE);
  const Reg t4 = b.fmul(t3, rF);
  const Reg rA = b.fdiv(t4, rG);
  b.ret();
  fn.add_live_out(rA);
  fn.renumber();
  return fn;
}

// --- Loops that leave their steady state -------------------------------------
//
// Each loop runs long enough for the simulator to fast-forward its repeating
// iterations (sim/simulator.cpp), then changes behaviour at iteration
// kSteadyBreak — a branch outcome, a store->load alias, a fault — so the
// simulator must fall back to precise timing mid-way and still reproduce
// every observable of the step-by-step reference.

inline constexpr std::int64_t kSteadyBreak = 40;
inline constexpr std::int64_t kSteadyTrips = 64;

struct SteadyStateCase {
  std::string name;
  Function fn;
};

// The loop skeleton, in layout order: entry sets i = 0 and s = 0; `body`
// emits one iteration's work into the loop block and, when it branches to
// `latch` (skipping it), into the `slow` block; the latch counts i to
// kSteadyTrips.  s is live out.
inline Function make_steady_loop(
    const std::string& name,
    const std::function<void(Function&, IRBuilder&, Reg i, Reg s, BlockId slow,
                             BlockId latch)>& body) {
  Function fn(name);
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId loop = b.create_block("loop");
  const BlockId slow = b.create_block("slow");
  const BlockId latch = b.create_block("latch");
  const BlockId exit = b.create_block("exit");
  b.set_block(entry);
  const Reg i = b.ldi(0);
  const Reg s = b.ldi(0);
  b.set_block(loop);
  body(fn, b, i, s, slow, latch);
  b.set_block(latch);
  b.iaddi_to(i, i, 1);
  b.bri(Opcode::BLT, i, kSteadyTrips, loop);
  b.set_block(exit);
  fn.add_live_out(s);
  b.ret();
  fn.renumber();
  return fn;
}

inline std::vector<SteadyStateCase> steady_state_breaks() {
  std::vector<SteadyStateCase> cases;
  // A branch skips a slow multiply chain on every iteration but one: the
  // path changes once, then the old steady state returns.
  cases.push_back({"branch-flips-once",
                   make_steady_loop("flip1", [](Function&, IRBuilder& b, Reg i, Reg s,
                                                BlockId slow, BlockId latch) {
                     b.iadd_to(s, s, i);
                     b.bri(Opcode::BNE, i, kSteadyBreak, latch);
                     b.set_block(slow);
                     const Reg t = b.imul(b.imul(s, s), s);
                     b.iadd_to(s, s, t);
                   })});
  // From kSteadyBreak on the branch falls through every time: a second
  // steady state on a longer path.
  cases.push_back({"branch-flips-for-good",
                   make_steady_loop("flip2", [](Function&, IRBuilder& b, Reg i, Reg s,
                                                BlockId slow, BlockId latch) {
                     b.iadd_to(s, s, i);
                     b.bri(Opcode::BLT, i, kSteadyBreak, latch);
                     b.set_block(slow);
                     const Reg t = b.imul(s, i);
                     b.iadd_to(s, s, t);
                   })});
  // Every iteration stores A[i] and then loads A[kSteadyBreak]: the load
  // reads the store it may have to wait for only once, after the loop has
  // long repeated.
  cases.push_back({"late-alias",
                   make_steady_loop("alias", [](Function& fn, IRBuilder& b, Reg i, Reg s,
                                                BlockId, BlockId) {
                     const std::int32_t A = fn.add_array({"A", 0x10000, 4, kSteadyTrips, false});
                     const std::int64_t base = fn.array(A)->base;
                     const Reg off = b.ishli(i, 2);
                     b.st(off, base, b.iaddi(i, 7), A);
                     const Reg zero = b.ldi(0);
                     const Reg y = b.ld(zero, base + 4 * kSteadyBreak, A);
                     b.iadd_to(s, s, y);
                   })});
  // The same alias across the back edge: the load opens the iteration and
  // the store closes it, so with a long store latency the store is still
  // in flight when the next iteration's load issues.
  cases.push_back({"late-alias-across-iterations",
                   make_steady_loop("alias2", [](Function& fn, IRBuilder& b, Reg i, Reg s,
                                                 BlockId, BlockId) {
                     const std::int32_t A = fn.add_array({"A", 0x10000, 4, kSteadyTrips, false});
                     const std::int64_t base = fn.array(A)->base;
                     const Reg zero = b.ldi(0);
                     const Reg y = b.ld(zero, base + 4 * kSteadyBreak, A);
                     b.iadd_to(s, s, y);
                     b.st(b.ishli(i, 2), base, b.iaddi(i, 7), A);
                   })});
  // 1000 / (i - kSteadyBreak) divides by zero mid-run.
  cases.push_back({"divide-by-zero",
                   make_steady_loop("div0", [](Function&, IRBuilder& b, Reg i, Reg s, BlockId,
                                               BlockId) {
                     const Reg q = b.idiv(b.ldi(1000), b.isubi(i, kSteadyBreak));
                     b.iadd_to(s, s, q);
                   })});
  // ftoi(i * 2.4e17) leaves the int64 range at i = 39.
  cases.push_back({"ftoi-out-of-range",
                   make_steady_loop("ftoi", [](Function&, IRBuilder& b, Reg i, Reg s, BlockId,
                                               BlockId) {
                     const Reg z = b.ftoi(b.fmuli(b.itof(i), 2.4e17));
                     b.iadd_to(s, s, b.iremi(z, 1000));
                   })});
  return cases;
}

}  // namespace ilp::testing
