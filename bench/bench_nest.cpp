// Affine nest restructuring axis (BENCH_7): simulator-validated cycles for
// the nest_suite() workloads with the restructuring pre-passes off vs. on
// (interchange + fusion + fission + tiling, tile size 4), across Conv and
// Lev4 at issue widths 1/2/4/8, plus which passes fired per cell.  The
// NEST-SKEW row is the legality baseline: its only dependence is
// interchange-illegal, so on == off there by construction.
//
//   bench_nest [--out PATH]     write the JSON artifact (default BENCH_7.json)
//   bench_nest --no-json        table only
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/nest_suite.hpp"
#include "harness/experiment.hpp"

namespace {

using namespace ilp;

constexpr int kTileSize = 4;

struct CellRow {
  std::string workload;
  OptLevel level = OptLevel::Conv;
  int width = 1;
  bool ok = false;
  std::uint64_t off_cycles = 0;  // nest passes disabled
  std::uint64_t on_cycles = 0;   // interchange+fuse+fission+tile
  int interchanged = 0;
  int fused = 0;
  int fissioned = 0;
  int tiled = 0;
};

CellRow run_cell(const Workload& w, OptLevel level, int width) {
  CellRow cell;
  cell.workload = w.name;
  cell.level = level;
  cell.width = width;
  const MachineModel m = MachineModel::issue(width);

  auto off_c = try_compile_workload(w, level, m);

  CompileOptions on_opts;
  on_opts.nest.interchange = true;
  on_opts.nest.fuse = true;
  on_opts.nest.fission = true;
  on_opts.nest.tile = true;
  on_opts.nest.tile_size = kTileSize;
  TransformStats tstats;
  auto on_c = try_compile_workload(w, level, m, on_opts, &tstats);
  if (!off_c || !on_c) return cell;

  auto off_cycles = try_simulate_cycles(off_c->fn, m);
  auto on_cycles = try_simulate_cycles(on_c->fn, m);
  if (!off_cycles || !on_cycles) return cell;

  cell.ok = true;
  cell.off_cycles = *off_cycles;
  cell.on_cycles = *on_cycles;
  cell.interchanged = tstats.loops_interchanged;
  cell.fused = tstats.loops_fused;
  cell.fissioned = tstats.loops_fissioned;
  cell.tiled = tstats.loops_tiled;
  return cell;
}

void write_json(const std::vector<CellRow>& cells, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"ilp92-nest-v1\",\n  \"tile_size\": " << kTileSize
      << ",\n  \"cells\": [";
  bool first = true;
  for (const CellRow& c : cells) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"workload\": \"" << c.workload << "\", \"level\": \""
        << level_name(c.level) << "\", \"width\": " << c.width
        << ", \"ok\": " << (c.ok ? "true" : "false");
    if (c.ok) {
      out << ", \"off_cycles\": " << c.off_cycles
          << ", \"on_cycles\": " << c.on_cycles
          << ", \"interchanged\": " << c.interchanged
          << ", \"fused\": " << c.fused << ", \"fissioned\": " << c.fissioned
          << ", \"tiled\": " << c.tiled;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  std::fprintf(stderr, "[bench] nest results -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_7.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_path = argv[++i];
    else if (!std::strcmp(argv[i], "--no-json"))
      out_path.clear();
    else {
      std::fprintf(stderr, "usage: %s [--out PATH | --no-json]\n", argv[0]);
      return 1;
    }
  }

  bench::print_header("Affine nest restructuring: cycles off vs on, passes fired");

  std::vector<CellRow> cells;
  for (const Workload& w : nest_suite())
    for (OptLevel level : {OptLevel::Conv, OptLevel::Lev4})
      for (int width : kIssueWidths) cells.push_back(run_cell(w, level, width));

  std::printf("%-10s %-6s %-6s %10s %10s %7s  %s\n", "workload", "level", "width",
              "off-cyc", "on-cyc", "ratio", "fired (i/f/s/t)");
  for (const CellRow& c : cells) {
    if (!c.ok) {
      std::printf("%-10s %-6s %-6d %10s %10s %7s\n", c.workload.c_str(),
                  level_name(c.level), c.width, "-", "-", "-");
      continue;
    }
    std::printf("%-10s %-6s %-6d %10llu %10llu %7.3f  %d/%d/%d/%d\n",
                c.workload.c_str(), level_name(c.level), c.width,
                static_cast<unsigned long long>(c.off_cycles),
                static_cast<unsigned long long>(c.on_cycles),
                static_cast<double>(c.on_cycles) / static_cast<double>(c.off_cycles),
                c.interchanged, c.fused, c.fissioned, c.tiled);
  }
  bench::paper_note(
      "Reading: the fired (i/f/s/t) matrix pins where each pass engages -- "
      "interchange+tile on the transposed traversals (NEST-XPOSE, NEST-TILE), "
      "fusion on the adjacent streams (NEST-FUSE, NEST-CHAIN), fission on "
      "the mixed recurrence (NEST-FISS) -- and NEST-SKEW is the legality "
      "control: its (<,>) dependence rejects every reordering, so on == off "
      "there exactly.  The simulator models a flat memory (every load is 2 "
      "cycles), so the locality payoff that motivates interchange/tiling is "
      "invisible here; what the cycle columns show instead is the pure "
      "loop-control cost the restructured nests pay (ratio > 1), i.e. the "
      "overhead a cache hierarchy must amortize.  Fusion, whose benefit IS "
      "control overhead removal, is the one pass that already wins on this "
      "machine model.  That split is the paper's own framing: its eight ILP "
      "transformations target issue width, and it defers memory-hierarchy "
      "restructuring to future cache-aware compilers (Section 5).");

  if (!out_path.empty()) write_json(cells, out_path);
  return 0;
}
