#include "ir/function.hpp"

#include <algorithm>
#include <bit>

#include "support/assert.hpp"

namespace ilp {

BlockId Function::add_block(std::string name) {
  const BlockId id = static_cast<BlockId>(block_index_.size());
  block_index_.push_back(blocks_.size());
  Block b;
  b.id = id;
  b.name = std::move(name);
  blocks_.push_back(std::move(b));
  return id;
}

Block& Function::block(BlockId id) {
  ILP_ASSERT(id < block_index_.size(), "bad block id");
  return blocks_[block_index_[id]];
}

const Block& Function::block(BlockId id) const {
  ILP_ASSERT(id < block_index_.size(), "bad block id");
  return blocks_[block_index_[id]];
}

std::size_t Function::layout_index(BlockId id) const {
  ILP_ASSERT(id < block_index_.size(), "bad block id");
  return block_index_[id];
}

BlockId Function::layout_next(BlockId id) const {
  const std::size_t pos = layout_index(id);
  if (pos + 1 >= blocks_.size()) return kNoBlock;
  return blocks_[pos + 1].id;
}

BlockId Function::insert_block_after(BlockId after, std::string name) {
  const std::size_t pos = layout_index(after);
  const BlockId id = static_cast<BlockId>(block_index_.size());
  Block b;
  b.id = id;
  b.name = std::move(name);
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(pos) + 1, std::move(b));
  block_index_.push_back(0);  // placeholder; rebuild below
  for (std::size_t i = 0; i < blocks_.size(); ++i) block_index_[blocks_[i].id] = i;
  return id;
}

Reg Function::new_reg(RegClass cls) {
  if (cls == RegClass::Int) return Reg{cls, next_int_reg_++};
  return Reg{cls, next_fp_reg_++};
}

void Function::reserve_regs(RegClass cls, std::uint32_t n) {
  if (cls == RegClass::Int)
    next_int_reg_ = std::max(next_int_reg_, n);
  else
    next_fp_reg_ = std::max(next_fp_reg_, n);
}

std::int32_t Function::add_array(ArrayInfo info) {
  const auto id = static_cast<std::int32_t>(arrays_.size());
  arrays_.push_back(std::move(info));
  return id;
}

const ArrayInfo* Function::array(std::int32_t id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= arrays_.size()) return nullptr;
  return &arrays_[static_cast<std::size_t>(id)];
}

std::int32_t Function::find_array(std::string_view name) const {
  for (std::size_t i = 0; i < arrays_.size(); ++i)
    if (arrays_[i].name == name) return static_cast<std::int32_t>(i);
  return -1;
}

void Function::renumber() {
  next_uid_ = 0;
  for (auto& b : blocks_)
    for (auto& in : b.insts) in.uid = next_uid_++;
}

std::size_t Function::num_insts() const {
  std::size_t n = 0;
  for (const auto& b : blocks_) n += b.insts.size();
  return n;
}

namespace {

bool same_inst(const Instruction& a, const Instruction& b) {
  return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 && a.src2 == b.src2 &&
         a.src2_is_imm == b.src2_is_imm && a.ival == b.ival &&
         std::bit_cast<std::uint64_t>(a.fval) == std::bit_cast<std::uint64_t>(b.fval) &&
         a.array_id == b.array_id && a.target == b.target;
}

bool same_array(const ArrayInfo& a, const ArrayInfo& b) {
  return a.name == b.name && a.base == b.base && a.elem_size == b.elem_size &&
         a.length == b.length && a.is_fp == b.is_fp;
}

}  // namespace

bool same_code(const Function& a, const Function& b) {
  if (a.name() != b.name() || a.num_regs(RegClass::Int) != b.num_regs(RegClass::Int) ||
      a.num_regs(RegClass::Fp) != b.num_regs(RegClass::Fp) ||
      a.live_out() != b.live_out() ||
      !std::equal(a.arrays().begin(), a.arrays().end(), b.arrays().begin(),
                  b.arrays().end(), same_array))
    return false;
  return std::equal(a.blocks().begin(), a.blocks().end(), b.blocks().begin(),
                    b.blocks().end(), [](const Block& x, const Block& y) {
                      return x.id == y.id && x.name == y.name &&
                             std::equal(x.insts.begin(), x.insts.end(), y.insts.begin(),
                                        y.insts.end(), same_inst);
                    });
}

}  // namespace ilp
