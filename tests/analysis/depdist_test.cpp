// Legality property tests for the direction/distance-vector layer
// (analysis/depdist) and the adversarial cases the nest passes must refuse:
// interchange on a (<,>) vector, fusion across a backward loop-carried
// dependence, fission through a dependence cycle, and the tiling==interchange
// legality equivalence.  Fixtures are DSL nests compiled through the real
// frontend, so the vectors are computed from lowered subscript arithmetic,
// not hand-built IR.
#include <gtest/gtest.h>

#include <string>

#include "analysis/depdist.hpp"
#include "common/fixtures.hpp"
#include "common/interp.hpp"
#include "frontend/compile.hpp"
#include "support/strings.hpp"
#include "trans/nest/internal.hpp"
#include "trans/nest/nest.hpp"

namespace ilp {
namespace {

Function compile_dsl(const std::string& body) {
  const std::string src =
      "program t\n"
      "array M[8][12] fp\n"
      "array N[8][12] fp\n"
      "array A[40] fp\narray B[40] fp\narray C[40] fp\n"
      "scalar s fp out\n" +
      body;
  DiagnosticEngine diags;
  auto r = dsl::compile(src, diags);
  EXPECT_TRUE(r.has_value()) << diags.to_string() << "\n" << src;
  return r ? std::move(r->fn) : Function{"empty"};
}

// The (outer, inner) pair of the first perfect nest in `fn`.
struct Nest {
  CanonLoop outer, inner;
  bool found = false;
};

Nest find_nest(const Function& fn) {
  Nest n;
  const auto loops = find_canonical_loops(fn);
  for (const CanonLoop& o : loops) {
    for (const CanonLoop& i : loops) {
      if (o.header == i.pre && perfectly_nested(fn, o, i)) {
        n.outer = o;
        n.inner = i;
        n.found = true;
        return n;
      }
    }
  }
  return n;
}

bool has_vector(const std::vector<NestDep>& deps, Dir d0, Dir d1) {
  for (const NestDep& d : deps)
    if (d.d0 == d0 && d.d1 == d1) return true;
  return false;
}

std::string nest_src(const char* stmt) {
  return strformat("loop i = 1 to 5 {\n  loop j = 1 to 9 {\n    %s\n  }\n}\n", stmt);
}

// --- Direction-vector classes ------------------------------------------------

TEST(DepDist, SameIterationDependenceIsEqEq) {
  const Function fn = compile_dsl(nest_src("M[i][j] = M[i][j] * 1.5;"));
  const Nest n = find_nest(fn);
  ASSERT_TRUE(n.found);
  const auto deps = nest_dependences(fn, n.outer, n.inner);
  ASSERT_FALSE(deps.empty());
  EXPECT_TRUE(has_vector(deps, Dir::Eq, Dir::Eq));
  EXPECT_FALSE(has_vector(deps, Dir::Lt, Dir::Gt));
  for (const NestDep& d : deps) {
    ASSERT_TRUE(d.dist_known);
    EXPECT_EQ(d.dist0, 0);
    EXPECT_EQ(d.dist1, 0);
  }
}

TEST(DepDist, InnerCarriedDependenceIsEqLt) {
  const Function fn = compile_dsl(nest_src("M[i][j] = M[i][j-1] + 1.0;"));
  const Nest n = find_nest(fn);
  ASSERT_TRUE(n.found);
  const auto deps = nest_dependences(fn, n.outer, n.inner);
  EXPECT_TRUE(has_vector(deps, Dir::Eq, Dir::Lt));
  bool saw_dist = false;
  for (const NestDep& d : deps)
    if (d.dist_known && d.dist0 == 0 && d.dist1 == 1) saw_dist = true;
  EXPECT_TRUE(saw_dist);
  EXPECT_TRUE(interchange_legal_vectors(deps));  // (=,<) survives the swap
}

TEST(DepDist, OuterCarriedDependenceIsLtEq) {
  const Function fn = compile_dsl(nest_src("M[i][j] = M[i-1][j] + 1.0;"));
  const Nest n = find_nest(fn);
  ASSERT_TRUE(n.found);
  const auto deps = nest_dependences(fn, n.outer, n.inner);
  EXPECT_TRUE(has_vector(deps, Dir::Lt, Dir::Eq));
  EXPECT_TRUE(interchange_legal_vectors(deps));
}

TEST(DepDist, MixedDependenceIsLtGtAndRejectsInterchange) {
  const Function fn = compile_dsl(nest_src("M[i][j] = M[i-1][j+1] * 0.5;"));
  const Nest n = find_nest(fn);
  ASSERT_TRUE(n.found);
  const auto deps = nest_dependences(fn, n.outer, n.inner);
  EXPECT_TRUE(has_vector(deps, Dir::Lt, Dir::Gt));
  EXPECT_FALSE(interchange_legal_vectors(deps));
  EXPECT_FALSE(interchange_legal(fn, n.outer, n.inner));
}

TEST(DepDist, DisjointReferencesCarryNoDependence) {
  const Function fn = compile_dsl(nest_src("M[i][j] = N[i][j] + 1.0;"));
  const Nest n = find_nest(fn);
  ASSERT_TRUE(n.found);
  // Store to M, load from N: different arrays never conflict.
  EXPECT_TRUE(nest_dependences(fn, n.outer, n.inner).empty());
}

// --- Interchange legality ----------------------------------------------------

TEST(DepDist, InterchangeLegalOnCleanNest) {
  const Function fn = compile_dsl(nest_src("M[j][i] = M[j][i] + N[j][i];"));
  const Nest n = find_nest(fn);
  ASSERT_TRUE(n.found);
  EXPECT_TRUE(interchange_legal(fn, n.outer, n.inner));
  const NestStrides s = nest_strides(fn, n.outer, n.inner);
  ASSERT_TRUE(s.known);
  EXPECT_GT(s.inner, s.outer);  // transposed access: the swap is profitable
}

TEST(DepDist, InterchangeRejectsCarriedScalarReduction) {
  const Function fn = compile_dsl(nest_src("s = s + M[i][j];"));
  const Nest n = find_nest(fn);
  ASSERT_TRUE(n.found);
  EXPECT_FALSE(carried_scalars(fn, n.inner).empty());
  EXPECT_FALSE(interchange_legal(fn, n.outer, n.inner));
}

TEST(DepDist, TilingLegalityEqualsInterchangeLegality) {
  // Tiling = strip-mine (always order-preserving) + interchange, so the two
  // passes must agree on every fixture: apply both to the same programs and
  // require tile fires exactly where interchange legality holds.
  const char* legal = "M[j][i] = M[j][i] + N[j][i];";
  const char* illegal = "M[j][i] = M[j-1][i+1] + N[j][i];";  // (<,>) on (i,j)
  for (const char* stmt : {legal, illegal}) {
    const Function base = compile_dsl(nest_src(stmt));
    const Nest n = find_nest(base);
    ASSERT_TRUE(n.found) << stmt;
    const bool legal_now = interchange_legal(base, n.outer, n.inner);

    Function tiled = base;
    NestOptions topt;
    topt.tile = true;
    topt.tile_size = 4;  // inner trip is 9: more than one tile
    EXPECT_EQ(tile_loops(tiled, topt) > 0, legal_now) << stmt;
  }
}

// --- Fusion ------------------------------------------------------------------

TEST(DepDist, ForwardDependenceDoesNotPreventFusion) {
  const Function fn = compile_dsl(
      "loop i = 2 to 20 {\n  A[i] = B[i] * 1.5;\n}\n"
      "loop i = 2 to 20 {\n  C[i] = A[i-1] + 2.0;\n}\n");
  const auto loops = find_canonical_loops(fn);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_FALSE(fusion_preventing_dep(fn, loops[0], loops[1]));
}

TEST(DepDist, BackwardDependencePreventsFusion) {
  const Function fn = compile_dsl(
      "loop i = 2 to 20 {\n  A[i] = B[i] * 1.5;\n}\n"
      "loop i = 2 to 20 {\n  C[i] = A[i+1] + 2.0;\n}\n");
  const auto loops = find_canonical_loops(fn);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_TRUE(fusion_preventing_dep(fn, loops[0], loops[1]));

  // And the pass itself must refuse.
  Function fn2 = fn;
  NestOptions fopt;
  fopt.fuse = true;
  EXPECT_EQ(fuse_loops(fn2, fopt), 0);
}

TEST(DepDist, FusePassMergesConformableLoops) {
  Function fn = compile_dsl(
      "loop i = 2 to 20 {\n  A[i] = B[i] * 1.5;\n}\n"
      "loop i = 2 to 20 {\n  C[i] = A[i] + 2.0;\n}\n");
  const std::uint64_t before = ilp::testing::run_digest(fn);
  NestOptions fopt;
  fopt.fuse = true;
  EXPECT_EQ(fuse_loops(fn, fopt), 1);
  EXPECT_EQ(ilp::testing::run_digest(fn), before);
}

// --- Fission -----------------------------------------------------------------

TEST(DepDist, FissionSplitsIndependentStatements) {
  Function fn = compile_dsl(
      "loop i = 2 to 20 {\n  A[i] = B[i] * 1.5;\n  C[i] = C[i-1] + 0.5;\n}\n");
  const std::uint64_t before = ilp::testing::run_digest(fn);
  NestOptions opt;
  opt.fission = true;
  EXPECT_GE(fission_loops(fn, opt), 1);
  EXPECT_EQ(ilp::testing::run_digest(fn), before);
}

TEST(DepDist, FissionNeverSplitsADependenceCycle) {
  // A[i] = B[i-1]...; B[i] = A[i]...: a flow dependence within the iteration
  // (A) plus a backward one across iterations (B) — a cycle in the statement
  // dependence graph.  Everything must stay in one loop.
  Function fn = compile_dsl(
      "loop i = 2 to 20 {\n  A[i] = B[i-1] * 0.5;\n  B[i] = A[i] + C[i];\n}\n");
  NestOptions opt;
  opt.fission = true;
  EXPECT_EQ(fission_loops(fn, opt), 0);
}

// --- Broken legality must be caught by the semantic oracle -------------------

TEST(DepDist, SkippingLegalityOnIllegalNestChangesSemantics) {
  // The (<,>) nest from above, with the transposed store making the swap
  // profitable.  The swap the legality layer refuses, built from the
  // structural mechanics alone, must change the observable state digest,
  // proving the differential oracle detects exactly the bug the legality
  // layer prevents.
  Function fn = compile_dsl(nest_src("M[j][i] = M[j-1][i+1] + N[j][i];"));
  const std::uint64_t before = ilp::testing::run_digest(fn);

  Function broken = fn;
  const Nest n = find_nest(broken);
  ASSERT_TRUE(n.found);
  ASSERT_TRUE(interchange_structural(broken, n.outer, n.inner));
  ASSERT_FALSE(interchange_legal(broken, n.outer, n.inner));
  nest_detail::swap_control(broken, n.outer, n.inner.header, n.inner.header);
  broken.renumber();
  bool ok = false;
  const std::uint64_t after = ilp::testing::run_digest(broken, &ok);
  ASSERT_TRUE(ok);
  EXPECT_NE(after, before);

  // The guarded pass refuses the same nest and preserves the digest.
  Function guarded = fn;
  NestOptions safe;
  safe.interchange = true;
  EXPECT_EQ(interchange_loops(guarded, safe), 0);
  EXPECT_EQ(ilp::testing::run_digest(guarded), before);
}

}  // namespace
}  // namespace ilp
