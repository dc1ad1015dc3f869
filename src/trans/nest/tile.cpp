// Loop tiling: strip-mine the inner loop of a perfect 2-deep nest into
// tile-sized chunks and interchange the tile loop outward, so each tile of
// the inner axis is revisited across all outer iterations before moving on
// (cache blocking).  Strip-mining alone preserves iteration order — the
// reordering comes entirely from the interchange step, which is why the
// legality test is exactly interchange legality on the original (i, j) nest.
//
//   for i = lo_i..hi_i            for jj = lo_j..hi_j step T
//     for j = lo_j..hi_j    =>      for i = lo_i..hi_i
//       body(i, j)                    for j = jj..min(jj+T-1, hi_j)
//                                       body(i, j)
//
// The lowered result keeps the jj and i loops in canonical shape; the
// per-tile j loop is a guard-free do-while (the jj guard proves it runs).
#include <cstdlib>

#include "analysis/depdist.hpp"
#include "trans/nest/internal.hpp"
#include "trans/nest/nest.hpp"

namespace ilp {

namespace {

bool should_tile(const Function& fn, const CanonLoop& outer, const CanonLoop& inner,
                 const NestOptions& opts) {
  if (inner.step != 1 || opts.tile_size < 2) return false;
  if (inner.trip_known && inner.trip <= opts.tile_size) return false;  // one tile: no-op
  // Strip-mining renames the inner init's destination to the tile counter;
  // no other prologue instruction may read the inner iv (the guard, which
  // is renamed along with it, is the only expected reader).
  const Block& shared = fn.block(outer.header);
  for (std::size_t k = 0; k + 1 < shared.insts.size(); ++k)
    for (const Reg& u : shared.insts[k].uses())
      if (u == inner.iv) return false;
  return interchange_legal(fn, outer, inner);
}

void do_tile(Function& fn, const CanonLoop& outer, const CanonLoop& inner, std::int64_t T) {
  const Reg jj = fn.new_int_reg();
  const Reg tile_end = fn.new_int_reg();
  const Reg hc = fn.new_int_reg();

  // Strip-mine: the shared block's inner init/guard now drive the tile
  // counter jj; a new head block re-derives j and the clamped tile bound.
  {
    Block& shared = fn.block(outer.header);
    shared.insts[inner.init_idx].dst = jj;  // IMOV jj, lo_j
    shared.insts.back().src1 = jj;          // BGT jj, hi_j -> exit
  }
  const BlockId h2 = fn.insert_block_after(outer.header, "tile.head");
  const BlockId l2 = fn.insert_block_after(inner.header, "tile.latch");
  fn.block(h2).insts = {
      make_unary(Opcode::IMOV, inner.iv, jj),
      make_binary_imm(Opcode::IADD, tile_end, jj, T - 1),
      make_binary(Opcode::IMIN, hc, tile_end, inner.hi_reg),
  };
  fn.block(inner.header).insts.back().src2 = hc;  // BLE j, hc -> body
  fn.block(l2).insts = {
      make_binary_imm(Opcode::IADD, jj, jj, T),
      make_branch(Opcode::BLE, jj, inner.hi_reg, h2),
  };

  // Interchange the (still order-preserving) strip structure: the tile loop
  // moves outermost, the original outer loop iterates per tile.
  nest_detail::swap_control(fn, outer, h2, l2);
  fn.renumber();
}

}  // namespace

int tile_loops(Function& fn, const NestOptions& opts) {
  int tiled = 0;
  for (int round = 0; round < 8; ++round) {
    const std::vector<CanonLoop> loops = find_canonical_loops(fn);
    bool changed = false;
    for (const CanonLoop& outer : loops) {
      for (const CanonLoop& inner : loops) {
        if (outer.header != inner.pre) continue;
        if (!should_tile(fn, outer, inner, opts)) continue;
        do_tile(fn, outer, inner, opts.tile_size);
        ++tiled;
        changed = true;
        break;
      }
      if (changed) break;
    }
    if (!changed) break;
  }
  return tiled;
}

}  // namespace ilp
