// Affine loop-nest restructuring (ROADMAP item 2): interchange, fusion,
// fission, and tiling over the frontend's canonical lowered loop shape,
// gated by the direction/distance-vector legality layer in
// analysis/depdist.  These run as pre-passes *before* the conventional
// optimizations in trans/level.cpp — LICM/ivopt rewrite subscripts into
// pointer-bumping form, after which the affine structure is unrecoverable.
//
// Legality summary (DESIGN.md §5d has the full rules with examples):
//   interchange  no dependence with direction (<, >); no carried scalar
//                recurrence; nothing body-computed observable after the nest
//   fuse         conformable constant bounds, disjoint scalar def/use across
//                bodies, and no backward loop-carried memory dependence
//                (second-body reference at iteration y against a first-body
//                reference at x > y)
//   fission      splits at the maximal strongly-connected dependence regions;
//                a dependence cycle is never separated
//   tile         strip-mine (always order-preserving) + interchange, so the
//                legality test is exactly the interchange test
#pragma once

#include "ir/function.hpp"

namespace ilp {

struct NestOptions {
  bool interchange = false;
  bool fuse = false;
  bool fission = false;
  bool tile = false;
  int tile_size = 16;

  [[nodiscard]] bool any() const { return interchange || fuse || fission || tile; }
  bool operator==(const NestOptions&) const = default;
};

// Each pass returns the number of transformations applied (loop pairs
// swapped, pairs fused, loops split, nests tiled) and leaves the function
// verifier-clean.  Zero means the function is untouched.  compile_prefix
// (trans/level.hpp) runs the enabled ones in the order fuse -> interchange ->
// tile -> fission: fusion first enlarges bodies for the others, and fission
// last because its split loops intentionally leave the canonical shape.
int interchange_loops(Function& fn, const NestOptions& opts);
int fuse_loops(Function& fn, const NestOptions& opts);
int fission_loops(Function& fn, const NestOptions& opts);
int tile_loops(Function& fn, const NestOptions& opts);

}  // namespace ilp
