// Function = a loop nest compiled as one unit.
//
// Blocks are *extended* basic blocks: conditional branches may appear in the
// middle of a block (superblock side exits); execution falls through past an
// untaken branch.  The block list is in layout order — a block without a
// terminating JUMP/RET falls through to the next block in the list.
//
// Functions also carry the array symbol table (name, base address, element
// size) used for alias ids, simulation memory initialization, and symbolic
// printing, mirroring what a Fortran front end would know about its arrays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/instruction.hpp"
#include "ir/reg.hpp"

namespace ilp {

struct Block {
  BlockId id = kNoBlock;
  std::string name;
  std::vector<Instruction> insts;

  [[nodiscard]] bool empty() const { return insts.empty(); }
  // True if the block ends in an instruction that never falls through.
  [[nodiscard]] bool has_terminator() const {
    if (insts.empty()) return false;
    const Opcode op = insts.back().op;
    return op == Opcode::JUMP || op == Opcode::RET;
  }
};

struct ArrayInfo {
  std::string name;
  std::int64_t base = 0;       // simulated base address
  std::int64_t elem_size = 4;  // bytes per element (paper examples use 4)
  std::int64_t length = 0;     // elements (for simulation initialization)
  bool is_fp = true;
};

class Function {
 public:
  explicit Function(std::string name = "fn") : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // Blocks -------------------------------------------------------------------
  BlockId add_block(std::string name);
  [[nodiscard]] Block& block(BlockId id);
  [[nodiscard]] const Block& block(BlockId id) const;
  [[nodiscard]] std::vector<Block>& blocks() { return blocks_; }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }

  // Layout index of a block (blocks execute in layout order on fallthrough).
  [[nodiscard]] std::size_t layout_index(BlockId id) const;
  // Block following `id` in layout, or kNoBlock if last.
  [[nodiscard]] BlockId layout_next(BlockId id) const;
  // Inserts an existing-id-free block *after* `after` in layout order.
  BlockId insert_block_after(BlockId after, std::string name);

  // Registers ----------------------------------------------------------------
  Reg new_reg(RegClass cls);
  Reg new_int_reg() { return new_reg(RegClass::Int); }
  Reg new_fp_reg() { return new_reg(RegClass::Fp); }
  [[nodiscard]] std::uint32_t num_regs(RegClass cls) const {
    return cls == RegClass::Int ? next_int_reg_ : next_fp_reg_;
  }
  // Ensures new_reg never hands out ids below `n` for the class (used by
  // builders that pre-assign register numbers).
  void reserve_regs(RegClass cls, std::uint32_t n);

  // Arrays -------------------------------------------------------------------
  std::int32_t add_array(ArrayInfo info);
  [[nodiscard]] const std::vector<ArrayInfo>& arrays() const { return arrays_; }
  [[nodiscard]] const ArrayInfo* array(std::int32_t id) const;
  [[nodiscard]] std::int32_t find_array(std::string_view name) const;

  // Assigns fresh uids to every instruction (stable keys for analyses).
  void renumber();
  [[nodiscard]] std::size_t num_insts() const;

  // Live-out registers: values an observer reads after RET (harness compares
  // these across transformation levels, and DCE must preserve them).
  void add_live_out(Reg r) { live_out_.push_back(r); }
  [[nodiscard]] const std::vector<Reg>& live_out() const { return live_out_; }
  // Wholesale replacement, used by register assignment to retarget live-outs
  // at physical registers (order must be preserved).
  void set_live_out(std::vector<Reg> v) { live_out_ = std::move(v); }

  // Clamps the fresh-register counters to a physical file size after
  // assignment (the simulator sizes its register state from these).
  void reset_reg_counters(std::uint32_t ints, std::uint32_t fps) {
    next_int_reg_ = ints;
    next_fp_reg_ = fps;
  }

 private:
  std::string name_;
  std::vector<Block> blocks_;
  std::vector<std::size_t> block_index_;  // id -> layout position
  std::uint32_t next_int_reg_ = 0;
  std::uint32_t next_fp_reg_ = 0;
  std::uint32_t next_uid_ = 0;
  std::vector<ArrayInfo> arrays_;
  std::vector<Reg> live_out_;
};

// Structural equality: same name, blocks in the same layout with the same ids,
// names and instructions, the same register counts, arrays and live-outs.
// Instruction uids are ignored — they are analysis keys, rewritten by
// renumber(), and no scheduling, register measurement or simulation reads
// them — so two compiles that reach the same code by different pass histories
// compare equal.  Immediates compare bit for bit.
[[nodiscard]] bool same_code(const Function& a, const Function& b);

}  // namespace ilp
