#include "common/reaching.hpp"

#include "ir/reg.hpp"

namespace ilp {

ReachingDefs::ReachingDefs(const Cfg& cfg) : fn_(&cfg.function()), cfg_(&cfg) {
  // Number the definition sites.
  const std::uint32_t maxid =
      std::max(fn_->num_regs(RegClass::Int), fn_->num_regs(RegClass::Fp));
  sites_of_reg_.assign(2 * static_cast<std::size_t>(maxid) + 2, {});
  for (const Block& b : fn_->blocks())
    for (std::size_t i = 0; i < b.insts.size(); ++i) {
      const Instruction& in = b.insts[i];
      if (!in.has_dest()) continue;
      sites_of_reg_[RegKey::key(in.dst)].push_back(sites_.size());
      sites_.push_back(DefSite{b.id, i, in.dst});
    }

  const std::size_t nsites = sites_.size();
  const std::size_t nblocks = fn_->num_blocks();
  in_.assign(nblocks, BitVector(nsites));
  std::vector<BitVector> out(nblocks, BitVector(nsites));

  // gen/kill per block (kill = all sites of regs defined here, minus gen).
  std::vector<BitVector> gen(nblocks, BitVector(nsites));
  std::vector<BitVector> kill(nblocks, BitVector(nsites));
  {
    std::size_t site = 0;
    for (const Block& b : fn_->blocks()) {
      const std::size_t bi = fn_->layout_index(b.id);
      // Forward scan: the last def of each register in the block survives.
      std::vector<std::size_t> block_sites;
      for (const Instruction& in : b.insts) {
        if (!in.has_dest()) continue;
        block_sites.push_back(site++);
      }
      std::size_t cursor = 0;
      std::vector<int> last_for_key(sites_of_reg_.size(), -1);
      for (const Instruction& in : b.insts) {
        if (!in.has_dest()) continue;
        const std::size_t s = block_sites[cursor++];
        last_for_key[RegKey::key(in.dst)] = static_cast<int>(s);
        for (std::size_t other : sites_of_reg_[RegKey::key(in.dst)])
          kill[bi].set(other);
      }
      for (std::size_t key = 0; key < last_for_key.size(); ++key)
        if (last_for_key[key] >= 0)
          gen[bi].set(static_cast<std::size_t>(last_for_key[key]));
      kill[bi].subtract(gen[bi]);
    }
  }

  // Forward fixpoint in reverse postorder.
  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId b : cfg.rpo()) {
      const std::size_t bi = fn_->layout_index(b);
      BitVector newin(nsites);
      for (BlockId p : cfg.preds(b)) newin |= out[fn_->layout_index(p)];
      BitVector newout = newin;
      newout.subtract(kill[bi]);
      newout |= gen[bi];
      if (!(newin == in_[bi]) || !(newout == out[bi])) {
        in_[bi] = std::move(newin);
        out[bi] = std::move(newout);
        changed = true;
      }
    }
  }
}

std::vector<std::size_t> ReachingDefs::reaching_defs_of(BlockId b, std::size_t idx,
                                                        const Reg& r) const {
  const Block& blk = fn_->block(b);
  const std::size_t key = RegKey::key(r);
  // Nearest in-block def before idx wins outright.
  for (std::size_t i = idx; i-- > 0;) {
    if (!blk.insts[i].writes(r)) continue;
    // Identify that site id.
    for (std::size_t s : sites_of_reg_[key])
      if (sites_[s].block == b && sites_[s].index == i) return {s};
  }
  // Otherwise every block-entry reaching def of r.
  std::vector<std::size_t> out;
  for (std::size_t s : sites_of_reg_[key])
    if (reach_in(b).test(s)) out.push_back(s);
  return out;
}

std::vector<UndefinedUse> find_undefined_uses(const Function& fn,
                                              const std::vector<Reg>& inputs) {
  const Cfg cfg(fn);
  const ReachingDefs rd(cfg);
  std::vector<UndefinedUse> out;
  auto is_input = [&](const Reg& r) {
    for (const Reg& i : inputs)
      if (i == r) return true;
    return false;
  };
  for (const Block& b : fn.blocks()) {
    for (std::size_t i = 0; i < b.insts.size(); ++i) {
      const Instruction& in = b.insts[i];
      for (const Reg& u : in.uses()) {
        if (is_input(u)) continue;
        if (rd.reaching_defs_of(b.id, i, u).empty())
          out.push_back(UndefinedUse{b.id, i, u});
      }
    }
  }
  return out;
}

}  // namespace ilp
