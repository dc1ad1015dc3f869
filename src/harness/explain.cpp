#include "harness/explain.hpp"

#include <algorithm>
#include <vector>

#include "harness/experiment.hpp"
#include "support/strings.hpp"

namespace ilp {

namespace {

std::uint64_t cause_slots(const CycleProfile& p, StallCause c) {
  return p.slots[static_cast<std::size_t>(c)];
}

// Stalled slots attributed to one block row (everything but Issued).
std::uint64_t row_stalled(const std::array<std::uint64_t, kNumStallCauses>& row) {
  std::uint64_t s = 0;
  for (int c = 1; c < kNumStallCauses; ++c) s += row[static_cast<std::size_t>(c)];
  return s;
}

// "issued 28.8% raw 40.5% mem 20.3% width 1.0% branch 9.3% drain 0.1%"
std::string share_line(const CycleProfile& p) {
  static constexpr const char* kShort[] = {"issued", "raw",    "mem",
                                           "width",  "branch", "drain"};
  std::string out;
  for (int c = 0; c < kNumStallCauses; ++c)
    out += strformat("%s%s %.1f%%", c == 0 ? "" : "  ", kShort[c],
                     100.0 * p.fraction(static_cast<StallCause>(c)));
  return out;
}

// Per-cause delta prose between two profiles of the same program:
// "removed 41.2% of mem_wait slots (8210 -> 4830)".  Small moves (under 5%
// of the cause's previous total and under 8 slots) stay unreported.
std::string cause_deltas(const CycleProfile& prev, const CycleProfile& cur,
                         const char* indent) {
  std::string out;
  for (int c = 1; c < kNumStallCauses; ++c) {
    const auto cause = static_cast<StallCause>(c);
    const std::uint64_t a = cause_slots(prev, cause);
    const std::uint64_t b = cause_slots(cur, cause);
    if (a == b) continue;
    const std::uint64_t diff = a > b ? a - b : b - a;
    if (diff < 8 && diff * 20 < std::max(a, b)) continue;
    if (a == 0) {
      out += strformat("%sadded %llu %s slots\n", indent,
                       static_cast<unsigned long long>(b), stall_cause_name(cause));
    } else {
      const double rel = 100.0 * static_cast<double>(diff) / static_cast<double>(a);
      out += strformat("%s%s %.1f%% of %s slots (%llu -> %llu)\n", indent,
                       a > b ? "removed" : "added", rel, stall_cause_name(cause),
                       static_cast<unsigned long long>(a),
                       static_cast<unsigned long long>(b));
    }
  }
  if (out.empty()) out = strformat("%sno significant stall shifts\n", indent);
  return out;
}

double ipc(const CycleProfile& p) {
  return p.cycles == 0 ? 0.0
                       : static_cast<double>(p.slots[0]) / static_cast<double>(p.cycles);
}

// Profiles the `level` leaf of `plan` on `machine`.
Expected<CycleProfile> profile_one(const LoopPlan& plan, OptLevel level,
                                   const MachineModel& machine) {
  auto lv = plan.level(level);
  if (!lv) return Error{lv.error_message()};
  auto compiled = std::move(*lv).compile(machine);
  if (!compiled) return Error{compiled.error_message()};
  auto sim = try_simulate_profile(compiled->fn, machine);
  if (!sim) return Error{sim.error_message()};
  return std::move(sim->profile);
}

}  // namespace

std::string format_profile(const CycleProfile& p) {
  std::string out;
  out += strformat("width=%d cycles=%llu slots=%llu ipc=%.2f\n", p.width,
                   static_cast<unsigned long long>(p.cycles),
                   static_cast<unsigned long long>(p.total_slots()), ipc(p));
  out += strformat("  %-15s %12s %7s\n", "cause", "slots", "share");
  for (int c = 0; c < kNumStallCauses; ++c) {
    const auto cause = static_cast<StallCause>(c);
    out += strformat("  %-15s %12llu %6.1f%%\n", stall_cause_name(cause),
                     static_cast<unsigned long long>(cause_slots(p, cause)),
                     100.0 * p.fraction(cause));
  }
  out += "  occupancy (cycles issuing k):";
  for (std::size_t k = 0; k < p.occupancy.size(); ++k)
    out += strformat(" %zu:%llu", k, static_cast<unsigned long long>(p.occupancy[k]));
  out += "\n";

  // Blocks ranked by slots lost while their instruction blocked the head.
  std::vector<std::size_t> order(p.block_slots.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return row_stalled(p.block_slots[a]) > row_stalled(p.block_slots[b]);
  });
  out += "  top stall blocks:\n";
  int shown = 0;
  for (const std::size_t i : order) {
    const std::uint64_t lost = row_stalled(p.block_slots[i]);
    if (lost == 0 || shown == 3) break;
    int worst = 1;
    for (int c = 2; c < kNumStallCauses; ++c)
      if (p.block_slots[i][static_cast<std::size_t>(c)] >
          p.block_slots[i][static_cast<std::size_t>(worst)])
        worst = c;
    out += strformat("    %-12s %10llu stalled (mostly %s)\n", p.block_names[i].c_str(),
                     static_cast<unsigned long long>(lost),
                     stall_cause_name(static_cast<StallCause>(worst)));
    ++shown;
  }

  std::vector<int> ops;
  for (int op = 0; op < kNumOpcodes; ++op)
    if (p.stall_by_opcode[static_cast<std::size_t>(op)] > 0) ops.push_back(op);
  std::sort(ops.begin(), ops.end(), [&](int a, int b) {
    return p.stall_by_opcode[static_cast<std::size_t>(a)] >
           p.stall_by_opcode[static_cast<std::size_t>(b)];
  });
  out += "  top stall opcodes:";
  for (std::size_t i = 0; i < ops.size() && i < 5; ++i) {
    const auto name = opcode_name(static_cast<Opcode>(ops[i]));
    out += strformat(" %.*s:%llu", static_cast<int>(name.size()), name.data(),
                     static_cast<unsigned long long>(
                         p.stall_by_opcode[static_cast<std::size_t>(ops[i])]));
  }
  out += "\n";
  return out;
}

Expected<std::string> explain_source(const std::string& name, const std::string& source,
                                     const MachineModel& machine,
                                     const CompileOptions& opts,
                                     bool compare_schedulers) {
  std::string out = strformat("explain %s (issue-%d, %s scheduler)\n", name.c_str(),
                              machine.issue_width, scheduler_kind_name(opts.scheduler));
  constexpr std::array<OptLevel, 5> kAll = {OptLevel::Conv, OptLevel::Lev1,
                                            OptLevel::Lev2, OptLevel::Lev3,
                                            OptLevel::Lev4};
  Workload w;
  w.name = name;
  w.source = source;
  auto plan = LoopPlan::build(w, opts);
  if (!plan) return Error{plan.error_message()};
  std::vector<CycleProfile> profs;
  for (const OptLevel level : kAll) {
    auto p = profile_one(*plan, level, machine);
    if (!p) return Error{strformat("%s: %s", level_name(level), p.error_message().c_str())};
    out += strformat("%-5s cycles=%-9llu ipc=%-5.2f %s\n", level_name(level),
                     static_cast<unsigned long long>(p->cycles), ipc(*p),
                     share_line(*p).c_str());
    if (!profs.empty()) {
      const CycleProfile& prev = profs.back();
      const double speedup = p->cycles == 0
                                 ? 0.0
                                 : static_cast<double>(prev.cycles) /
                                       static_cast<double>(p->cycles);
      out += strformat("  vs %s: %.2fx (%llu -> %llu cycles)\n",
                       level_name(kAll[profs.size() - 1]), speedup,
                       static_cast<unsigned long long>(prev.cycles),
                       static_cast<unsigned long long>(p->cycles));
      out += cause_deltas(prev, *p, "    ");
    }
    profs.push_back(std::move(*p));
  }

  if (compare_schedulers) {
    CompileOptions other = opts;
    other.scheduler = opts.scheduler == SchedulerKind::List ? SchedulerKind::Modulo
                                                            : SchedulerKind::List;
    auto other_plan = LoopPlan::build(w, other);
    auto p = other_plan ? profile_one(*other_plan, OptLevel::Lev4, machine)
                        : Expected<CycleProfile>(Error{other_plan.error_message()});
    if (p) {
      const CycleProfile& base = profs.back();
      const double speedup = p->cycles == 0
                                 ? 0.0
                                 : static_cast<double>(base.cycles) /
                                       static_cast<double>(p->cycles);
      out += strformat("%s@Lev4 cycles=%-9llu ipc=%-5.2f %s\n",
                       scheduler_kind_name(other.scheduler),
                       static_cast<unsigned long long>(p->cycles), ipc(*p),
                       share_line(*p).c_str());
      out += strformat("  vs %s: %.2fx (%llu -> %llu cycles)\n",
                       scheduler_kind_name(opts.scheduler), speedup,
                       static_cast<unsigned long long>(base.cycles),
                       static_cast<unsigned long long>(p->cycles));
      out += cause_deltas(base, *p, "    ");
    } else {
      out += strformat("%s@Lev4: %s\n", scheduler_kind_name(other.scheduler),
                       p.error_message().c_str());
    }
  }
  return out;
}

}  // namespace ilp
