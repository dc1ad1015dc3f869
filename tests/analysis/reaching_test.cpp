#include "common/reaching.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "sched/modulo/modulo.hpp"
#include "trans/level.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

TEST(Reaching, StraightLineNearestDefWins) {
  Function fn;
  IRBuilder b(fn);
  const BlockId e = b.create_block("entry");
  b.set_block(e);
  const Reg x = fn.new_int_reg();
  b.ldi_to(x, 1);      // site 0
  b.ldi_to(x, 2);      // site 1
  const Reg y = b.iaddi(x, 0);  // use of x at index 2
  (void)y;
  b.ret();
  fn.renumber();
  const Cfg cfg(fn);
  const ReachingDefs rd(cfg);
  const auto defs = rd.reaching_defs_of(e, 2, x);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(rd.def_sites()[defs[0]].index, 1u);  // the second ldi
}

TEST(Reaching, LoopMergesPreheaderAndBackedgeDefs) {
  Function fn;
  IRBuilder b(fn);
  const BlockId e = b.create_block("entry");
  const BlockId loop = b.create_block("loop");
  const BlockId x = b.create_block("exit");
  b.set_block(e);
  const Reg i = b.ldi(0);  // site 0
  b.jump(loop);
  b.set_block(loop);
  b.iaddi_to(i, i, 1);  // site 1: reads i at index 0
  b.bri(Opcode::BLT, i, 5, loop);
  b.set_block(x);
  b.ret();
  fn.renumber();
  const Cfg cfg(fn);
  const ReachingDefs rd(cfg);
  // Both the preheader LDI and the in-loop update reach the loop's use.
  const auto defs = rd.reaching_defs_of(loop, 0, i);
  EXPECT_EQ(defs.size(), 2u);
}

TEST(Reaching, UndefinedUseDetected) {
  Function fn;
  IRBuilder b(fn);
  b.set_block(b.create_block("entry"));
  const Reg ghost = fn.new_int_reg();
  b.iaddi(ghost, 1);  // reads a register never defined
  b.ret();
  fn.renumber();
  const auto bad = find_undefined_uses(fn);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].reg, ghost);
  // Declaring it a function input clears the report.
  EXPECT_TRUE(find_undefined_uses(fn, {ghost}).empty());
}

TEST(Reaching, FigureLoopsHaveNoUndefinedUses) {
  for (std::int64_t n : {1, 8}) {
    const Function f1 = ilp::testing::make_fig1_loop(n);
    EXPECT_TRUE(find_undefined_uses(f1).empty());
    const Function f3 = ilp::testing::make_fig3_loop(n);
    EXPECT_TRUE(find_undefined_uses(f3).empty());
  }
}

// The heavyweight oracle: every workload, compiled at every level (plus
// modulo software pipelining), must contain no register read without a
// reaching definition.  This catches renaming/expansion bookkeeping bugs that
// happen to produce the right values on seeded data.
TEST(Reaching, PipelineNeverCreatesUndefinedUses) {
  const MachineModel m8 = MachineModel::issue(8);
  int loops_pipelined = 0;
  for (const auto& w : workload_suite()) {
    for (OptLevel lvl : {OptLevel::Conv, OptLevel::Lev2, OptLevel::Lev4}) {
      DiagnosticEngine d;
      auto r = dsl::compile(w.source, d);
      ASSERT_TRUE(r.has_value()) << w.name;
      compile_at_level(r->fn, lvl, m8);
      const auto bad = find_undefined_uses(r->fn);
      EXPECT_TRUE(bad.empty()) << w.name << " at " << level_name(lvl) << ": r"
                               << (bad.empty() ? 0 : bad[0].reg.id);
    }
    DiagnosticEngine d;
    auto r = dsl::compile(w.source, d);
    CompileOptions copts;
    copts.schedule = false;
    compile_at_level(r->fn, OptLevel::Lev4, m8, copts);
    loops_pipelined += modulo_pipeline_function(r->fn, m8).loops_pipelined;
    EXPECT_TRUE(find_undefined_uses(r->fn).empty()) << w.name << " +modulo";
  }
  EXPECT_GT(loops_pipelined, 0);
}

}  // namespace
}  // namespace ilp
