// Histogram bucketing and text rendering for the paper's tables and figures.
//
// Each figure plots, per transformation level, how many of the 40 loops fall
// into each speedup (or register-count) range; the ranges below are read off
// the published axes.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace ilp {

struct Bucket {
  double lo = 0.0;
  double hi = 0.0;  // exclusive; <= 0 means open-ended
  std::string label;
};

// The published ranges.
const std::vector<Bucket>& fig8_speedup_buckets();   // issue-2
const std::vector<Bucket>& fig9_speedup_buckets();   // issue-4
const std::vector<Bucket>& fig10_speedup_buckets();  // issue-8 (also 12/14)
const std::vector<Bucket>& fig11_register_buckets(); // issue-8 (also 13/15)

// Counts per (bucket, level).
struct Histogram {
  std::vector<Bucket> buckets;
  // counts[bucket][level]
  std::vector<std::array<int, 5>> counts;
};

enum class LoopFilter { All, DoAllOnly, NonDoAllOnly };

Histogram speedup_histogram(const StudyResult& study, int width_index,
                            const std::vector<Bucket>& buckets,
                            LoopFilter filter = LoopFilter::All);
Histogram register_histogram(const StudyResult& study, LoopFilter filter = LoopFilter::All);

// Renders "rows = ranges, columns = Conv..Lev4" with a title.
std::string render_histogram(const Histogram& h, const std::string& title);

// Renders a per-loop speedup table for one issue width.
std::string render_speedup_table(const StudyResult& study, int width_index);

// Renders the Table 2 reconstruction.
std::string render_table2();

// The banner that opens each report section (title, machine, base
// configuration), and the "[paper]" note that closes it.
std::string render_section_header(const std::string& what);
std::string render_paper_note(const std::string& note);

// The paper's evidence read out of one study: Table 2, Figures 8-15 (with the
// fixable vs. genuine serial breakdown under Figure 14) and the Section 4
// summary, in that order.  `ilpc --study` prints it after its means table.
std::string render_paper_report(const StudyResult& study);

}  // namespace ilp
