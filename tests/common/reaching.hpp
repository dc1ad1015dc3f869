// Reaching definitions and def-use chains over extended basic blocks.
//
// Definition sites are numbered function-wide; the block-level fixpoint
// propagates which sites reach each block entry, and per-instruction queries
// rebuild the in-block state on demand.  Test code: reaching_test uses
// `find_undefined_uses` to check the pipeline's output (a register read with
// no reaching definition and no function-input status indicates a
// transformation bug).
#pragma once

#include <vector>

#include "analysis/cfg.hpp"
#include "support/bitvector.hpp"

namespace ilp {

struct DefSite {
  BlockId block = kNoBlock;
  std::size_t index = 0;  // instruction index within the block
  Reg reg;
};

class ReachingDefs {
 public:
  explicit ReachingDefs(const Cfg& cfg);

  [[nodiscard]] const std::vector<DefSite>& def_sites() const { return sites_; }

  // Definition sites reaching the entry of `b` (bit i = sites()[i]).
  [[nodiscard]] const BitVector& reach_in(BlockId b) const {
    return in_[fn_->layout_index(b)];
  }

  // Definition sites of `r` that may reach the use at (b, idx).
  [[nodiscard]] std::vector<std::size_t> reaching_defs_of(BlockId b, std::size_t idx,
                                                          const Reg& r) const;

 private:
  const Function* fn_;
  const Cfg* cfg_;
  std::vector<DefSite> sites_;
  // Per register key, the site ids defining it (for kill sets).
  std::vector<std::vector<std::size_t>> sites_of_reg_;
  std::vector<BitVector> in_;
};

struct UndefinedUse {
  BlockId block = kNoBlock;
  std::size_t index = 0;
  Reg reg;
};

// Register reads with no reaching definition.  Registers in `inputs` are
// treated as externally initialized (function inputs).
std::vector<UndefinedUse> find_undefined_uses(const Function& fn,
                                              const std::vector<Reg>& inputs = {});

}  // namespace ilp
