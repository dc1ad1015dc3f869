#include "harness/report.hpp"

#include <sstream>

#include "frontend/classify.hpp"
#include "frontend/parser.hpp"
#include "machine/machine.hpp"
#include "support/strings.hpp"

namespace ilp {

namespace {

std::vector<Bucket> make_buckets(const std::vector<std::pair<double, double>>& edges) {
  std::vector<Bucket> out;
  for (const auto& [lo, hi] : edges) {
    Bucket b;
    b.lo = lo;
    b.hi = hi;
    if (hi <= 0)
      b.label = strformat("%.2f+", lo);
    else
      b.label = strformat("%.2f-%.2f", lo, hi - 0.01);
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<Bucket> make_int_buckets(const std::vector<std::pair<int, int>>& edges) {
  std::vector<Bucket> out;
  for (const auto& [lo, hi] : edges) {
    Bucket b;
    b.lo = lo;
    b.hi = hi <= 0 ? 0 : hi;
    b.label = hi <= 0 ? strformat("%d+", lo) : strformat("%d-%d", lo, hi - 1);
    out.push_back(std::move(b));
  }
  return out;
}

bool keeps(const LoopStudy& l, LoopFilter f) {
  switch (f) {
    case LoopFilter::All: return true;
    case LoopFilter::DoAllOnly: return l.type == dsl::LoopType::DoAll;
    case LoopFilter::NonDoAllOnly: return l.type != dsl::LoopType::DoAll;
  }
  return true;
}

int bucket_of(const std::vector<Bucket>& buckets, double v) {
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const Bucket& b = buckets[i];
    if (b.hi <= 0) {
      if (v >= b.lo) return static_cast<int>(i);
    } else if (v >= b.lo && v < b.hi) {
      return static_cast<int>(i);
    }
  }
  return v < buckets.front().lo ? 0 : static_cast<int>(buckets.size()) - 1;
}

}  // namespace

const std::vector<Bucket>& fig8_speedup_buckets() {
  static const auto b = make_buckets({{0.0, 1.25},
                                      {1.25, 1.50},
                                      {1.50, 1.75},
                                      {1.75, 2.00},
                                      {2.00, 2.50},
                                      {2.50, 3.00},
                                      {3.00, -1}});
  return b;
}

const std::vector<Bucket>& fig9_speedup_buckets() {
  static const auto b = make_buckets({{0.0, 1.50},
                                      {1.50, 2.00},
                                      {2.00, 2.50},
                                      {2.50, 3.00},
                                      {3.00, 3.50},
                                      {3.50, 4.00},
                                      {4.00, 5.00},
                                      {5.00, 6.00},
                                      {6.00, -1}});
  return b;
}

const std::vector<Bucket>& fig10_speedup_buckets() {
  static const auto b = make_buckets({{0.0, 2.00},
                                      {2.00, 2.50},
                                      {2.50, 3.00},
                                      {3.00, 4.00},
                                      {4.00, 5.00},
                                      {5.00, 6.00},
                                      {6.00, 7.00},
                                      {7.00, 8.00},
                                      {8.00, -1}});
  return b;
}

const std::vector<Bucket>& fig11_register_buckets() {
  static const auto b = make_int_buckets(
      {{0, 16}, {16, 32}, {32, 48}, {48, 64}, {64, 96}, {96, 128}, {128, -1}});
  return b;
}

Histogram speedup_histogram(const StudyResult& study, int width_index,
                            const std::vector<Bucket>& buckets, LoopFilter filter) {
  Histogram h;
  h.buckets = buckets;
  h.counts.assign(buckets.size(), {});
  for (const auto& l : study.loops) {
    if (!keeps(l, filter)) continue;
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      const double s = l.speedup(kLevels[li], width_index);
      ++h.counts[static_cast<std::size_t>(bucket_of(buckets, s))][li];
    }
  }
  return h;
}

Histogram register_histogram(const StudyResult& study, LoopFilter filter) {
  Histogram h;
  h.buckets = fig11_register_buckets();
  h.counts.assign(h.buckets.size(), {});
  for (const auto& l : study.loops) {
    if (!keeps(l, filter)) continue;
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      const double r = l.regs[li].total();
      ++h.counts[static_cast<std::size_t>(bucket_of(h.buckets, r))][li];
    }
  }
  return h;
}

std::string render_histogram(const Histogram& h, const std::string& title) {
  std::ostringstream os;
  os << title << "\n";
  os << pad_right("range", 14);
  for (OptLevel l : kLevels) os << pad_left(level_name(l), 7);
  os << "\n";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    os << pad_right(h.buckets[i].label, 14);
    for (std::size_t li = 0; li < kLevels.size(); ++li)
      os << pad_left(strformat("%d", h.counts[i][li]), 7);
    os << "\n";
  }
  return os.str();
}

std::string render_speedup_table(const StudyResult& study, int width_index) {
  std::ostringstream os;
  os << pad_right("loop", 14) << pad_right("type", 10);
  for (OptLevel l : kLevels) os << pad_left(level_name(l), 8);
  os << "\n";
  for (const auto& l : study.loops) {
    os << pad_right(l.name, 14) << pad_right(dsl::loop_type_name(l.type), 10);
    for (OptLevel lvl : kLevels)
      os << pad_left(strformat("%.2f", l.speedup(lvl, width_index)), 8);
    os << "\n";
  }
  os << pad_right("MEAN", 24);
  for (OptLevel lvl : kLevels)
    os << pad_left(strformat("%.2f", study.mean_speedup(lvl, width_index)), 8);
  os << "\n";
  return os.str();
}

std::string render_table2() {
  std::ostringstream os;
  os << pad_right("Name", 14) << pad_left("Size", 6) << pad_left("Iters", 8)
     << pad_left("Nest", 6) << pad_right("  Type", 11) << pad_right("Conds", 6) << "\n";
  std::string group;
  for (const auto& w : workload_suite()) {
    if (w.group != group) {
      group = w.group;
      os << "-- " << group << " --\n";
    }
    os << pad_right(w.name, 14) << pad_left(strformat("%d", w.size), 6)
       << pad_left(strformat("%lld", static_cast<long long>(w.iters)), 8)
       << pad_left(strformat("%d", w.nest), 6) << "  "
       << pad_right(dsl::loop_type_name(w.type), 9) << pad_right(w.conds ? "yes" : "no", 6)
       << "\n";
  }
  return os.str();
}

std::string render_section_header(const std::string& what) {
  const std::string rule =
      "================================================================\n";
  return rule + what + "\nMachine: " + MachineModel::issue(8).describe() +
         "\nBase configuration: issue-1, conventional optimizations (Conv)\n" + rule;
}

std::string render_paper_note(const std::string& note) { return "\n[paper] " + note + "\n"; }

namespace {

// "  Conv=1.00  Lev1=..." over the five levels.
template <typename F>
std::string level_means(const char* fmt, F&& mean) {
  std::string out;
  for (OptLevel l : kLevels) out += strformat(fmt, level_name(l), mean(l));
  return out;
}

int loops_under_128_registers(const StudyResult& s) {
  int n = 0;
  for (const auto& l : s.loops)
    if (l.regs[4].total() < 128) ++n;
  return n;
}

// Figures 8-10: one issue width's speedup distribution, means and per-loop table.
std::string render_width_section(const StudyResult& s, int figure, int width_index,
                                 const std::vector<Bucket>& buckets, const char* note) {
  const int width = kIssueWidths[static_cast<std::size_t>(width_index)];
  std::string out = render_section_header(
      strformat("Figure %d: speedup distribution, issue-%d processor", figure, width));
  out += render_histogram(speedup_histogram(s, width_index, buckets),
                          strformat("loops per speedup range (issue-%d)", width));
  out += "\nmean speedups:" + level_means("  %s=%.2f", [&](OptLevel l) {
           return s.mean_speedup(l, width_index);
         });
  if (figure == 9) {
    // The paper's two checkpoint counts.
    int lev2_ge3 = 0, lev2_ge4 = 0, lev4_ge3 = 0, lev4_ge4 = 0;
    for (const auto& l : s.loops) {
      if (l.speedup(OptLevel::Lev2, width_index) >= 3.0) ++lev2_ge3;
      if (l.speedup(OptLevel::Lev2, width_index) >= 4.0) ++lev2_ge4;
      if (l.speedup(OptLevel::Lev4, width_index) >= 3.0) ++lev4_ge3;
      if (l.speedup(OptLevel::Lev4, width_index) >= 4.0) ++lev4_ge4;
    }
    out += strformat("\nLev2: %d loops >=3x, %d loops >=4x   (paper: 29 and 18)\n",
                     lev2_ge3, lev2_ge4);
    out += strformat("Lev4: %d loops >=3x, %d loops >=4x   (paper: 36 and 23)\n",
                     lev4_ge3, lev4_ge4);
  } else {
    out += "\n";
  }
  out += strformat("\nper-loop speedups (issue-%d):\n", width) +
         render_speedup_table(s, width_index) + render_paper_note(note);
  return out;
}

std::string render_registers_section(const StudyResult& s) {
  std::string out =
      render_section_header("Figure 11: register usage distribution, issue-8 processor");
  out += render_histogram(register_histogram(s), "loops per register-usage range");
  out += "\nmean registers:" +
         level_means("  %s=%.0f", [&](OptLevel l) { return s.mean_registers(l); });
  out += strformat("\nloops under 128 registers at Lev4: %d / %zu   (paper: 37 / 40)\n",
                   loops_under_128_registers(s), s.loops.size());
  out += strformat("register growth Conv -> Lev4: %.1fx   (paper: 2.6x)\n",
                   s.mean_registers(OptLevel::Lev4) / s.mean_registers(OptLevel::Conv));
  return out + render_paper_note(
                   "Paper: averages 28 (Lev1) -> 57 (Lev2) -> 65 (Lev3) -> 71 (Lev4); the "
                   "largest increase comes from register renaming, and Lev3/Lev4 are "
                   "register-efficient ways to expose further ILP.");
}

std::string render_doall_section(const StudyResult& s) {
  std::string out =
      render_section_header("Figures 12-13: DOALL loops only, issue-8 processor");
  out += render_histogram(speedup_histogram(s, 3, fig10_speedup_buckets(), LoopFilter::DoAllOnly),
                          "Figure 12: DOALL speedup distribution");
  out += "\nmean DOALL speedups:" + level_means("  %s=%.2f", [&](OptLevel l) {
           return s.mean_speedup_where(l, 3, true);
         }) + "\n\n";
  out += render_histogram(register_histogram(s, LoopFilter::DoAllOnly),
                          "Figure 13: DOALL register usage distribution");
  return out + render_paper_note(
                   "Paper: for DOALL loops unrolling+renaming expose most of the ILP "
                   "(average 6.8 at Lev2), with Lev3/Lev4 adding modestly (7.8); register "
                   "usage rises sharply with renaming.  'In general, though, "
                   "transformations beyond loop unrolling and register renaming are not "
                   "profitable for DOALL loops.'");
}

std::string render_non_doall_section(const StudyResult& s) {
  std::string out =
      render_section_header("Figures 14-15: non-DOALL loops only, issue-8 processor");
  out += render_histogram(
      speedup_histogram(s, 3, fig10_speedup_buckets(), LoopFilter::NonDoAllOnly),
      "Figure 14: non-DOALL speedup distribution");
  out += "\nmean non-DOALL speedups:" + level_means("  %s=%.2f", [&](OptLevel l) {
           return s.mean_speedup_where(l, 3, false);
         }) + "\n\n";

  // Breakdown (ours): serial loops whose only recurrences are reductions are
  // exactly what the Lev4 expansions fix; genuinely serial loops are not.
  double fix2 = 0, fix4 = 0, gen2 = 0, gen4 = 0;
  int nfix = 0, ngen = 0;
  for (const auto& l : s.loops) {
    if (l.type == dsl::LoopType::DoAll) continue;
    DiagnosticEngine d;
    const auto ast = dsl::parse(find_workload(l.name)->source, d);
    const bool fixable = dsl::classify_innermost_loops(*ast)[0].reduction_only;
    (fixable ? fix2 : gen2) += l.speedup(OptLevel::Lev2, 3);
    (fixable ? fix4 : gen4) += l.speedup(OptLevel::Lev4, 3);
    (fixable ? nfix : ngen) += 1;
  }
  out += strformat("reduction-only serial loops (%d): Lev2=%.2f -> Lev4=%.2f\n", nfix,
                   fix2 / nfix, fix4 / nfix);
  out += strformat("other non-DOALL loops       (%d): Lev2=%.2f -> Lev4=%.2f\n\n", ngen,
                   gen2 / ngen, gen4 / ngen);

  out += render_histogram(register_histogram(s, LoopFilter::NonDoAllOnly),
                          "Figure 15: non-DOALL register usage distribution");
  return out + render_paper_note(
                   "Paper: non-DOALL loops average 3.7 at Lev2 and 5.8 with the expansion "
                   "transformations (Lev4), which remove the loop's recurrences; Lev3 "
                   "alone helps only a little.  Register usage stays below the DOALL "
                   "loops' (less overlap among unrolled bodies).");
}

std::string render_summary_section(const StudyResult& s) {
  std::string out =
      render_section_header("Section 4 summary: paper vs. this reproduction");
  const auto row = [&out](const char* what, double paper, double ours) {
    out += strformat("  %-58s %8.2f %8.2f\n", what, paper, ours);
  };
  out += strformat("  %-58s %8s %8s\n", "metric", "paper", "ours");
  row("issue-8 mean speedup, unroll+rename (Lev2)", 5.10, s.mean_speedup(OptLevel::Lev2, 3));
  row("issue-8 mean speedup, all transformations (Lev4)", 6.68,
      s.mean_speedup(OptLevel::Lev4, 3));
  row("issue-4 mean speedup, Lev3", 3.73, s.mean_speedup(OptLevel::Lev3, 2));
  row("issue-4 mean speedup, Lev4", 4.35, s.mean_speedup(OptLevel::Lev4, 2));
  row("issue-8 DOALL mean, Lev2", 6.8, s.mean_speedup_where(OptLevel::Lev2, 3, true));
  row("issue-8 DOALL mean, Lev4", 7.8, s.mean_speedup_where(OptLevel::Lev4, 3, true));
  row("issue-8 non-DOALL mean, Lev2", 3.7, s.mean_speedup_where(OptLevel::Lev2, 3, false));
  row("issue-8 non-DOALL mean, Lev4", 5.8, s.mean_speedup_where(OptLevel::Lev4, 3, false));
  row("register growth factor, Conv -> Lev4", 2.6,
      s.mean_registers(OptLevel::Lev4) / s.mean_registers(OptLevel::Conv));
  row("loops under 128 registers at Lev4 (of 40)", 37, loops_under_128_registers(s));
  return out + render_paper_note(
                   "Absolute speedups depend on the reconstructed loop bodies; the claims "
                   "to check are the orderings: Lev2 >> Conv, Lev4 >> Lev2 for non-DOALL, "
                   "Lev4 ~ Lev2 for DOALL at low issue, and the ~2-3x register growth.");
}

}  // namespace

std::string render_paper_report(const StudyResult& s) {
  return render_section_header("Table 2: description of the 40 loop nests") +
         render_table2() +
         render_paper_note(
             "Loop nests reconstructed to match the published Size/Iters/Nest/Type/"
             "Conds attributes; see DESIGN.md for the substitution rationale.") +
         render_width_section(
             s, 8, 1, fig8_speedup_buckets(),
             "For an issue-2 processor, loop unrolling and register renaming are "
             "sufficient compiler transformations to fully utilize the processor "
             "resources (Section 3.2): Lev3/Lev4 should add little over Lev2 here.") +
         render_width_section(s, 9, 2, fig9_speedup_buckets(),
                              "Paper averages for issue-4: Lev3 = 3.73, Lev4 = 4.35 "
                              "(Section 3.2).") +
         render_width_section(
             s, 10, 3, fig10_speedup_buckets(),
             "Paper averages for issue-8: Lev3 = 5.10, Lev4 = 6.68 (Section 3.2); "
             "unrolling+renaming alone average 5.1 with the advanced transformations "
             "adding the rest (Section 4).") +
         render_registers_section(s) + render_doall_section(s) +
         render_non_doall_section(s) + render_summary_section(s);
}

}  // namespace ilp
