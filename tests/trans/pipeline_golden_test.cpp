// Golden pin of the whole transformation pipeline's output, byte for byte.
//
// The scheduler has its own differential oracle
// (tests/common/reference_sched.hpp); this file is the same contract for
// everything upstream of the scheduler: every workload x Lev0-4 x issue width
// is compiled through the full pipeline and the printed IR is hashed against
// a checked-in golden file.  The goldens
// were captured from the pre-arena pass implementations (unordered_map /
// returned-vector scratch, after normalizing candidate iteration to program
// order), so they prove the arena-backed dense structures changed *nothing*
// about the emitted code — same folds, same fresh-register numbering, same
// schedule.
//
// Regenerate (only legitimate after an intentional codegen change):
//   ILP_REGEN_PIPELINE_GOLDEN=1 ./build/tests/trans_test --gtest_filter='PipelineGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "ir/printer.hpp"
#include "machine/machine.hpp"
#include "support/compile_ctx.hpp"
#include "trans/level.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

#ifndef ILP_GOLDEN_DIR
#error "ILP_GOLDEN_DIR must point at tests/trans/golden"
#endif

constexpr const char* kGoldenPath = ILP_GOLDEN_DIR "/pipeline_ir.txt";

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Cell {
  std::string workload;
  std::string level;
  int width = 0;
  std::string hash;  // 16 hex digits, or "error" for cells that fail to compile
  std::size_t insts = 0;
};

std::string cell_id(const Cell& c) {
  std::ostringstream os;
  os << c.workload << ' ' << c.level << ' ' << "issue-" << c.width;
  return os.str();
}

std::vector<Cell> compile_grid() {
  std::vector<Cell> cells;
  for (const Workload& w : workload_suite()) {
    for (OptLevel level : kLevels) {
      for (int width : kIssueWidths) {
        const MachineModel m = MachineModel::issue(width);
        Cell c;
        c.workload = w.name;
        c.level = level_name(level);
        c.width = width;
        auto compiled = try_compile_workload(w, level, m);
        if (!compiled) {
          c.hash = "error";
        } else {
          const std::string ir = to_string(compiled->fn);
          std::ostringstream os;
          os << std::hex << fnv1a(ir);
          c.hash = os.str();
          for (const Block& b : compiled->fn.blocks()) c.insts += b.insts.size();
        }
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

TEST(PipelineGolden, PrintedIrMatchesPreArenaGoldens) {
  const std::vector<Cell> cells = compile_grid();

  if (std::getenv("ILP_REGEN_PIPELINE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << "# workload level width fnv1a(printed IR) total-insts\n";
    for (const Cell& c : cells)
      out << c.workload << ' ' << c.level << ' ' << c.width << ' ' << c.hash
          << ' ' << c.insts << '\n';
    GTEST_SKIP() << "regenerated " << cells.size() << " goldens at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath
                         << " — run with ILP_REGEN_PIPELINE_GOLDEN=1 to create it";
  std::vector<Cell> want;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    Cell c;
    ASSERT_TRUE(ls >> c.workload >> c.level >> c.width >> c.hash >> c.insts)
        << "malformed golden line: " << line;
    want.push_back(std::move(c));
  }

  ASSERT_EQ(cells.size(), want.size())
      << "study grid changed shape; regenerate the goldens intentionally";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(cell_id(cells[i]), cell_id(want[i])) << "grid order changed at row " << i;
    EXPECT_EQ(cells[i].hash, want[i].hash)
        << cell_id(cells[i]) << ": pipeline output diverged from the pre-arena "
        << "golden (" << cells[i].insts << " insts now vs " << want[i].insts
        << " in the golden)";
  }
}

// Two compiles of the same cell inside one process must be bit-identical:
// the pipeline may not smuggle state between compiles (this held before
// CompileContext existed and must keep holding with pooled scratch).
TEST(PipelineGolden, RepeatedCompilesAreIdentical) {
  const MachineModel m = MachineModel::issue(4);
  for (const Workload& w : workload_suite()) {
    auto first = try_compile_workload(w, OptLevel::Lev4, m);
    auto second = try_compile_workload(w, OptLevel::Lev4, m);
    ASSERT_EQ(static_cast<bool>(first), static_cast<bool>(second)) << w.name;
    if (!first) continue;
    EXPECT_EQ(to_string(first->fn), to_string(second->fn)) << w.name;
  }
}

// A warm CompileContext must be invisible in the output: compiling two
// workloads sequentially on one context (second compile reuses the first's
// arena chunks, dense-map capacity, and pooled analysis rows) has to match
// compiling each on a fresh context exactly.
TEST(PipelineGolden, WarmContextMatchesFreshContext) {
  const MachineModel m = MachineModel::issue(8);
  const TransformSet set = TransformSet::for_level(OptLevel::Lev4);
  const auto& suite = workload_suite();

  auto front_half = [&](const Workload& w) {
    DiagnosticEngine diags;
    auto r = dsl::compile(w.source, diags);
    EXPECT_TRUE(r.has_value()) << w.name << ": " << diags.to_string();
    return r;
  };

  CompileContext warm;
  for (std::size_t i = 0; i + 1 < suite.size(); i += 2) {
    auto a1 = front_half(suite[i]);
    auto a2 = front_half(suite[i + 1]);
    auto b1 = front_half(suite[i]);
    auto b2 = front_half(suite[i + 1]);
    if (!a1 || !a2 || !b1 || !b2) continue;

    // Warm path: both compiles share one context, back to back.
    try {
      compile_with_transforms(a1->fn, set, m, {}, nullptr, warm);
      compile_with_transforms(a2->fn, set, m, {}, nullptr, warm);
    } catch (const std::exception&) {
      // Workloads that legitimately fail at Lev4 fail identically on any
      // context; the grid golden already covers them.
      continue;
    }
    // Cold path: a fresh context per compile.
    CompileContext fresh1;
    CompileContext fresh2;
    compile_with_transforms(b1->fn, set, m, {}, nullptr, fresh1);
    compile_with_transforms(b2->fn, set, m, {}, nullptr, fresh2);

    EXPECT_EQ(to_string(a1->fn), to_string(b1->fn)) << suite[i].name;
    EXPECT_EQ(to_string(a2->fn), to_string(b2->fn)) << suite[i + 1].name;
  }
  EXPECT_GE(warm.compiles(), 2u);
  EXPECT_GT(warm.arena_high_water_bytes(), 0u)
      << "pipeline never touched the context arena — pooling is dead code";
}

}  // namespace
}  // namespace ilp
