// Loop fusion: merge two adjacent conformable counted loops into one body,
// halving loop overhead and exposing cross-statement ILP to unrolling and
// scheduling.  Layout before and after:
//
//   P1: [.., IMOV i,lo, guard1 -> E1]        P1: unchanged
//   B1: [S1.., i+=1, BLE i,hi -> B1]         B1: [S1.., S2[j:=i].., i+=1, BLE -> B1]
//   E1: [<pure>, IMOV j,lo, guard2 -> E2]    E1: [<pure>, IMOV j,lo]      (guard gone)
//   B2: [S2.., j+=1, BLE j,hi -> B2]         B2: []                       (empty)
//   E2:                                      E2: unchanged
//
// Legality: equal constant bounds and step, no scalar flow between the two
// bodies or from the inter-loop block into the second body (that block now
// executes after the fused loop), the second induction variable unobservable,
// and no backward loop-carried memory dependence (analysis/depdist
// fusion_preventing_dep).
#include <cstdlib>
#include <unordered_set>

#include "analysis/depdist.hpp"
#include "trans/nest/nest.hpp"

namespace ilp {

namespace {

bool pure_scalar(const Instruction& in) {
  return in.has_dest() && !in.is_memory() && !in.is_control();
}

bool body_straightline(const Block& b) {
  for (std::size_t k = 0; k + 1 < b.insts.size(); ++k)
    if (b.insts[k].is_control()) return false;
  return true;
}

void collect_body_defs_uses(const Block& b, const Reg& iv,
                            std::unordered_set<std::size_t>& defs,
                            std::unordered_set<std::size_t>& uses) {
  for (std::size_t k = 0; k + 2 < b.insts.size(); ++k) {  // skip [update, branch]
    const Instruction& in = b.insts[k];
    if (in.has_dest() && in.dst != iv) defs.insert(RegKey::key(in.dst));
    for (const Reg& u : in.uses())
      if (u != iv) uses.insert(RegKey::key(u));
  }
}

bool intersects(const std::unordered_set<std::size_t>& a,
                const std::unordered_set<std::size_t>& b) {
  for (const std::size_t k : a)
    if (b.count(k) != 0) return true;
  return false;
}

bool fusable(const Function& fn, const CanonLoop& l1, const CanonLoop& l2) {
  if (!l1.single_block() || !l2.single_block()) return false;
  if (l1.iv == l2.iv) return false;
  if (!l1.lo_known || !l1.hi_known || !l2.lo_known || !l2.hi_known) return false;
  if (l1.lo != l2.lo || l1.hi != l2.hi || l1.step != l2.step) return false;

  const Block& b1 = fn.block(l1.header);
  const Block& b2 = fn.block(l2.header);
  if (!body_straightline(b1) || !body_straightline(b2)) return false;
  if (b1.insts.size() < 2 || b2.insts.size() < 2) return false;

  // The inter-loop block must be a pure scalar prologue: it is demoted from
  // "between the loops" to "after the fused loop".
  const Block& mid = fn.block(l1.exit);
  for (std::size_t k = 0; k + 1 < mid.insts.size(); ++k)
    if (!pure_scalar(mid.insts[k])) return false;

  // The second body runs on the first induction variable after fusion; it
  // must not have touched that register under its original meaning (the
  // final value of the first loop's counter).
  for (std::size_t k = 0; k + 2 < b2.insts.size(); ++k) {
    const Instruction& in = b2.insts[k];
    if (in.has_dest() && in.dst == l1.iv) return false;
    for (const Reg& u : in.uses())
      if (u == l1.iv) return false;
  }

  std::unordered_set<std::size_t> defs1, uses1, defs2, uses2;
  collect_body_defs_uses(b1, l1.iv, defs1, uses1);
  collect_body_defs_uses(b2, l2.iv, defs2, uses2);
  // Include the first loop's own bound/update reads: the second body must not
  // clobber them either.
  for (std::size_t k = b1.insts.size() - 2; k < b1.insts.size(); ++k)
    for (const Reg& u : b1.insts[k].uses())
      if (u != l1.iv) uses1.insert(RegKey::key(u));

  std::unordered_set<std::size_t> mid_defs, mid_uses;
  for (std::size_t k = 0; k + 1 < mid.insts.size(); ++k) {
    mid_defs.insert(RegKey::key(mid.insts[k].dst));
    for (const Reg& u : mid.insts[k].uses()) mid_uses.insert(RegKey::key(u));
  }

  // No scalar flow in either direction between the bodies, none from the
  // inter-loop block into the second body, and the inter-loop block must not
  // observe second-body values (it now runs after them).
  if (intersects(defs1, uses2) || intersects(defs2, uses1)) return false;
  if (intersects(mid_defs, uses2) || intersects(defs2, mid_uses)) return false;

  // The second induction variable's final value changes (it stays at lo):
  // nothing outside the dropped control may observe it.
  const std::size_t iv2 = RegKey::key(l2.iv);
  for (const Reg& r : fn.live_out())
    if (RegKey::key(r) == iv2) return false;
  for (const auto& blk : fn.blocks()) {
    if (blk.id == l2.header) continue;
    const bool is_mid = blk.id == l1.exit;
    for (std::size_t k = 0; k < blk.insts.size(); ++k) {
      if (is_mid && k + 1 == blk.insts.size()) continue;  // guard2 is deleted
      for (const Reg& u : blk.insts[k].uses())
        if (RegKey::key(u) == iv2) return false;
    }
  }

  return !fusion_preventing_dep(fn, l1, l2);
}

void do_fuse(Function& fn, const CanonLoop& l1, const CanonLoop& l2) {
  Block& b1 = fn.block(l1.header);
  Block& b2 = fn.block(l2.header);
  Block& mid = fn.block(l1.exit);

  const Instruction upd1 = b1.insts[b1.insts.size() - 2];
  const Instruction br1 = b1.insts.back();
  b1.insts.resize(b1.insts.size() - 2);
  for (std::size_t k = 0; k + 2 < b2.insts.size(); ++k) {
    Instruction in = b2.insts[k];
    in.replace_uses(l2.iv, l1.iv);
    b1.insts.push_back(in);
  }
  b1.insts.push_back(upd1);
  b1.insts.push_back(br1);

  mid.insts.pop_back();  // guard2; the dead bound/init defs fall to DCE later
  b2.insts.clear();      // empty block: falls through to the old exit
}

}  // namespace

int fuse_loops(Function& fn, const NestOptions& /*opts*/) {
  int fused = 0;
  for (int round = 0; round < 8; ++round) {
    const std::vector<CanonLoop> loops = find_canonical_loops(fn);
    bool changed = false;
    for (const CanonLoop& l1 : loops) {
      for (const CanonLoop& l2 : loops) {
        if (l1.exit != l2.pre) continue;
        if (!fusable(fn, l1, l2)) continue;
        do_fuse(fn, l1, l2);
        fn.renumber();
        ++fused;
        changed = true;
        break;
      }
      if (changed) break;
    }
    if (!changed) break;
  }
  return fused;
}

}  // namespace ilp
