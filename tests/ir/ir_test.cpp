#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/function.hpp"
#include "ir/printer.hpp"

namespace ilp {
namespace {

TEST(Ir, RegistersAreDensePerClass) {
  Function fn;
  const Reg i0 = fn.new_int_reg();
  const Reg i1 = fn.new_int_reg();
  const Reg f0 = fn.new_fp_reg();
  EXPECT_EQ(i0.id, 0u);
  EXPECT_EQ(i1.id, 1u);
  EXPECT_EQ(f0.id, 0u);
  EXPECT_TRUE(i0.is_int());
  EXPECT_TRUE(f0.is_fp());
  EXPECT_NE(i0, Reg({RegClass::Fp, 0}));
  EXPECT_EQ(fn.num_regs(RegClass::Int), 2u);
  EXPECT_EQ(fn.num_regs(RegClass::Fp), 1u);
}

TEST(Ir, BlockLayoutAndInsertAfter) {
  Function fn;
  const BlockId a = fn.add_block("a");
  const BlockId b = fn.add_block("b");
  EXPECT_EQ(fn.layout_next(a), b);
  EXPECT_EQ(fn.layout_next(b), kNoBlock);
  const BlockId mid = fn.insert_block_after(a, "mid");
  EXPECT_EQ(fn.layout_next(a), mid);
  EXPECT_EQ(fn.layout_next(mid), b);
  EXPECT_EQ(fn.block(mid).name, "mid");
  // Ids keep resolving after layout changes.
  EXPECT_EQ(fn.block(a).name, "a");
  EXPECT_EQ(fn.block(b).name, "b");
}

TEST(Ir, InstructionUsesAndReplace) {
  Function fn;
  const Reg a = fn.new_fp_reg();
  const Reg b = fn.new_fp_reg();
  const Reg d = fn.new_fp_reg();
  Instruction in = make_binary(Opcode::FADD, d, a, b);
  EXPECT_TRUE(in.reads(a));
  EXPECT_TRUE(in.reads(b));
  EXPECT_FALSE(in.reads(d));
  EXPECT_TRUE(in.writes(d));
  const Reg c = fn.new_fp_reg();
  EXPECT_EQ(in.replace_uses(a, c), 1);
  EXPECT_TRUE(in.reads(c));
  EXPECT_FALSE(in.reads(a));
}

TEST(Ir, ImmediateOperandIsNotARegisterUse) {
  Function fn;
  const Reg a = fn.new_int_reg();
  const Reg d = fn.new_int_reg();
  Instruction in = make_binary_imm(Opcode::IADD, d, a, 4);
  EXPECT_EQ(in.uses().size(), 1u);
  EXPECT_EQ(in.uses()[0], a);
}

TEST(Ir, BuilderEmitsIntoCurrentBlock) {
  Function fn;
  IRBuilder b(fn);
  const BlockId blk = b.create_block("entry");
  b.set_block(blk);
  const Reg x = b.ldi(5);
  const Reg y = b.iaddi(x, 2);
  b.ret();
  (void)y;
  EXPECT_EQ(fn.block(blk).insts.size(), 3u);
  EXPECT_EQ(fn.block(blk).insts[0].op, Opcode::LDI);
  EXPECT_EQ(fn.block(blk).insts[1].op, Opcode::IADD);
  EXPECT_TRUE(fn.block(blk).has_terminator());
}

TEST(Ir, RenumberAssignsSequentialUids) {
  Function fn;
  IRBuilder b(fn);
  const BlockId b0 = b.create_block("b0");
  const BlockId b1 = b.create_block("b1");
  b.set_block(b0);
  b.ldi(1);
  b.set_block(b1);
  b.ldi(2);
  b.ret();
  fn.renumber();
  EXPECT_EQ(fn.block(b0).insts[0].uid, 0u);
  EXPECT_EQ(fn.block(b1).insts[0].uid, 1u);
  EXPECT_EQ(fn.block(b1).insts[1].uid, 2u);
  EXPECT_EQ(fn.num_insts(), 3u);
}

TEST(Ir, PrinterRendersCoreForms) {
  Function fn;
  const std::int32_t arr = fn.add_array({"A", 1000, 4, 8, true});
  IRBuilder b(fn);
  const BlockId blk = b.create_block("L1");
  b.set_block(blk);
  const Reg i = b.ldi(0);
  const Reg v = b.fld(i, 1000, arr);
  const Reg w = b.fmuli(v, 2.5);
  b.fst(i, 1004, w, arr);
  b.bri(Opcode::BLT, i, 100, blk);
  b.ret();

  EXPECT_EQ(to_string(i), "r0.i");
  EXPECT_EQ(to_string(v), "r0.f");
  const auto& insts = fn.block(blk).insts;
  EXPECT_EQ(to_string(insts[0], &fn), "r0.i = 0");
  EXPECT_EQ(to_string(insts[1], &fn), "r0.f = fld [r0.i + A]");
  EXPECT_EQ(to_string(insts[2], &fn), "r1.f = fmul r0.f, 2.5");
  EXPECT_EQ(to_string(insts[3], &fn), "fst [r0.i + A+4] = r1.f");
  EXPECT_EQ(to_string(insts[4], &fn), "blt r0.i, 100 -> L1");
  EXPECT_EQ(to_string(insts[5], &fn), "ret");
  // Full-function rendering includes array header and labels.
  const std::string s = to_string(fn);
  EXPECT_NE(s.find("array A"), std::string::npos);
  EXPECT_NE(s.find("L1:"), std::string::npos);
}

// A two-block loop touching every field same_code compares.
Function same_code_fixture(std::string name = "loop", std::int64_t array_base = 0) {
  Function fn(std::move(name));
  const std::int32_t a = fn.add_array({"A", array_base, 4, 64, true});
  IRBuilder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId body = b.create_block("body");
  b.set_block(entry);
  const Reg i = b.ldi(0);
  const Reg acc = b.fldi(0.0);
  b.set_block(body);
  const Reg v = b.fld(i, 0, a);
  const Reg w = b.fmuli(v, 2.5);
  b.fadd_to(acc, acc, w);
  b.fst(i, 4, w, a);
  b.iaddi_to(i, i, 4);
  b.bri(Opcode::BLT, i, 256, body);
  b.ret();
  fn.add_live_out(acc);
  fn.renumber();
  return fn;
}

TEST(Ir, SameCodeIgnoresUidsOnly) {
  const Function base = same_code_fixture();
  EXPECT_TRUE(same_code(base, base));

  // Uids are analysis keys: a different numbering is the same code.
  Function renumbered = base;
  for (Block& blk : renumbered.blocks())
    for (Instruction& in : blk.insts) in.uid = 1000 - in.uid;
  EXPECT_TRUE(same_code(base, renumbered));
  EXPECT_TRUE(same_code(renumbered, base));

  const auto differs = [&](const char* what, auto&& edit) {
    Function changed = base;
    edit(changed);
    EXPECT_FALSE(same_code(base, changed)) << what;
    EXPECT_FALSE(same_code(changed, base)) << what;
  };
  const auto body = [](Function& f) -> std::vector<Instruction>& {
    return f.block(1).insts;
  };
  differs("opcode", [&](Function& f) { body(f)[1].op = Opcode::FADD; });
  differs("destination", [&](Function& f) { body(f)[1].dst = Reg{RegClass::Fp, 9}; });
  differs("first operand", [&](Function& f) { body(f)[2].src1 = Reg{RegClass::Fp, 9}; });
  differs("second operand", [&](Function& f) { body(f)[2].src2 = Reg{RegClass::Fp, 9}; });
  differs("operand class", [&](Function& f) { body(f)[0].src1.cls = RegClass::Fp; });
  differs("immediate flag", [&](Function& f) { body(f)[4].src2_is_imm = false; });
  differs("int immediate", [&](Function& f) { body(f)[4].ival = 8; });
  differs("memory offset", [&](Function& f) { body(f)[3].ival = 8; });
  differs("fp immediate", [&](Function& f) { body(f)[1].fval = 3.5; });
  differs("fp immediate sign", [&](Function& f) { f.block(0).insts[1].fval = -0.0; });
  differs("array id", [&](Function& f) { body(f)[0].array_id = kMayAliasAll; });
  differs("branch target", [&](Function& f) { body(f)[5].target = 0; });
  differs("dropped instruction", [&](Function& f) { body(f).pop_back(); });
  differs("block name", [&](Function& f) { f.block(1).name = "loop"; });
  differs("extra block", [&](Function& f) { f.add_block("exit"); });
  differs("live-out", [&](Function& f) { f.set_live_out({}); });
  differs("int register count", [&](Function& f) { f.new_int_reg(); });
  differs("fp register count", [&](Function& f) { f.new_fp_reg(); });
  differs("array", [&](Function& f) { f.add_array({"B", 256, 4, 64, true}); });
  EXPECT_FALSE(same_code(base, same_code_fixture("other")));
  EXPECT_FALSE(same_code(base, same_code_fixture("loop", 16)));  // array base
}

TEST(Ir, ArrayLookup) {
  Function fn;
  fn.add_array({"A", 0, 4, 1, true});
  const std::int32_t b = fn.add_array({"B", 100, 8, 2, false});
  EXPECT_EQ(fn.find_array("B"), b);
  EXPECT_EQ(fn.find_array("Z"), -1);
  EXPECT_EQ(fn.array(b)->elem_size, 8);
  EXPECT_EQ(fn.array(kMayAliasAll), nullptr);
}

}  // namespace
}  // namespace ilp
