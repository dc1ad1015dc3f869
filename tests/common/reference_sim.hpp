// Reference simulator: the block-walking interpreter loop the simulator ran
// before it executed over a decoded program, kept as a test-only oracle in
// the way interp.hpp is.  It walks `blocks[].insts[]` of full IR
// instructions, keeps separate int/fp register files with per-operand class
// branches, and forwards stores through an address-keyed ready table.
//
// The body below is the pre-decode `Simulator::run_impl` unchanged, with the
// member references (`machine_`, `options_`) turned into parameters.  It can
// also step a stalled head one cycle at a time (StallStepping::PerCycle),
// which the simulator never does: tests/sim/cycle_skip_test.cpp,
// sim_diff_test.cpp and profile_test.cpp compare against that mode to show
// the simulator's stall skipping changes no observable.
// tests/sim/sim_diff_test.cpp requires every observable of the decoded
// simulator — SimResult fields, final memory, issue trace, cycle profile and
// error strings — to equal this loop's, on the workload grid, the nest suite
// and a random-program corpus.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "machine/machine.hpp"
#include "sim/memory.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/flat_map.hpp"
#include "support/strings.hpp"

namespace ilp::testing {

// How the reference loop moves the clock past an interlocked head: straight
// to the cycle its last blocking operand is ready (as Simulator::run does),
// or one cycle at a time.
enum class StallStepping : bool { Skip, PerCycle };

namespace reference_detail {

// Wrapping signed arithmetic without UB.
inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

struct Cursor {
  std::size_t block_pos = 0;  // layout position
  std::size_t inst_idx = 0;
};

template <bool kProfile>
SimResult reference_run_impl(const MachineModel& machine_, const SimOptions& options_,
                             StallStepping stepping, const Function& fn, Memory& mem) {
  SimResult res;
  if (fn.num_blocks() == 0) {
    res.error = "empty function";
    return res;
  }

  // Register state and per-register ready cycles.
  std::vector<std::int64_t> ints(std::max<std::size_t>(fn.num_regs(RegClass::Int), 1), 0);
  std::vector<double> fps(std::max<std::size_t>(fn.num_regs(RegClass::Fp), 1), 0.0);
  for (std::size_t i = 0; i < options_.init_ints.size() && i < ints.size(); ++i)
    ints[i] = options_.init_ints[i];
  for (std::size_t i = 0; i < options_.init_fps.size() && i < fps.size(); ++i)
    fps[i] = options_.init_fps[i];
  std::vector<std::uint64_t> ready_int(ints.size(), 0);
  std::vector<std::uint64_t> ready_fp(fps.size(), 0);
  // Address -> cycle the latest store to it completes.  An entry only
  // matters while its cycle is still in the future, so the table is dropped
  // whenever `cycle` passes the latest pending store (`mem_horizon`).  That
  // bounds it to the stores in flight — a handful of slots — instead of every
  // address the program ever wrote, keeping load lookups at ~1 probe.
  FlatHashMap64 mem_ready;
  std::uint64_t mem_horizon = 0;

  // Profiling state.  The raw/mem split needs to know whether a register's
  // latest producer was a load; the flag vectors parallel the ready arrays
  // and exist only in the profiled instantiation.
  CycleProfile* prof = nullptr;
  std::vector<std::uint8_t> load_made_int, load_made_fp;
  if constexpr (kProfile) {
    prof = options_.profile;
    prof->reset(machine_.issue_width, fn);
    load_made_int.assign(ints.size(), 0);
    load_made_fp.assign(fps.size(), 0);
  }

  // MachineModel::latency is an out-of-line switch; tabulate it once so the
  // per-issue lookup is a single indexed load.
  std::array<int, kNumOpcodes> lat_table{};
  for (int op = 0; op < kNumOpcodes; ++op)
    lat_table[static_cast<std::size_t>(op)] = machine_.latency(static_cast<Opcode>(op));

  const auto& blocks = fn.blocks();
  Cursor pc;
  std::uint64_t cycle = 0;
  bool done = false;

  auto reg_ready = [&](const Reg& r) -> std::uint64_t {
    return r.cls == RegClass::Int ? ready_int[r.id] : ready_fp[r.id];
  };
  auto set_ready = [&](const Reg& r, std::uint64_t c) {
    (r.cls == RegClass::Int ? ready_int[r.id] : ready_fp[r.id]) = c;
  };
  auto iget = [&](const Reg& r) { return ints[r.id]; };
  auto fget = [&](const Reg& r) { return fps[r.id]; };

  auto fail = [&](std::string msg) {
    res.ok = false;
    res.error = std::move(msg);
    res.cycles = cycle;
  };

  while (!done) {
    // Every pending store has completed: all entries are <= cycle and can no
    // longer delay a load, so forget them wholesale.
    if (cycle >= mem_horizon && mem_ready.size() != 0) mem_ready.clear();

    int issued = 0;
    int branches_this_cycle = 0;
    bool advanced = false;
    // Cycle the head instruction's last blocking operand becomes ready; set
    // only when the issue loop breaks on an interlock (not on slot limits or
    // taken branches, which clear at the next cycle boundary).
    std::uint64_t stall_until = 0;
    // Attribution of this cycle's unissued slots (profiled runs only): the
    // cause, the blocked/redirecting instruction's layout block and opcode.
    // The defaults are never read — every path that leaves slots unissued
    // overwrites all three before the cycle's books are closed.
    [[maybe_unused]] StallCause cycle_cause = StallCause::Drain;
    [[maybe_unused]] std::size_t cause_block = 0;
    [[maybe_unused]] Opcode cause_op = Opcode::NOP;

    while (issued < machine_.issue_width) {
      // Fallthrough across block boundaries is free (sequential fetch).
      while (pc.inst_idx >= blocks[pc.block_pos].insts.size()) {
        if (pc.block_pos + 1 >= blocks.size()) {
          fail("fell off end of function");
          return res;
        }
        ++pc.block_pos;
        pc.inst_idx = 0;
      }
      const Instruction& in = blocks[pc.block_pos].insts[pc.inst_idx];

      // Branch-slot restriction: a structural width limit, not a data hazard.
      if (in.is_control() && branches_this_cycle >= machine_.branch_slots) {
        if constexpr (kProfile) {
          cycle_cause = StallCause::ResourceWidth;
          cause_block = pc.block_pos;
          cause_op = in.op;
        }
        break;
      }

      // Register interlocks: every source must be ready.  `ready_by` collects
      // the max ready cycle over all blocking conditions; register *values*
      // are written at issue, so they (and hence `addr`) are already final
      // even while the timing model says the instruction must wait.
      std::uint64_t ready_by = 0;
      [[maybe_unused]] bool stall_mem = false;
      // Raises the pending-constraint max; under profiling also tracks
      // whether the *latest* constraint is memory-shaped.  Ties go to memory
      // — the deeper reason the operand is late — which keeps attribution
      // identical between skip-stall and per-cycle evaluation.
      auto raise = [&](std::uint64_t r, [[maybe_unused]] bool is_mem) {
        if constexpr (kProfile) {
          if (r > ready_by)
            stall_mem = is_mem;
          else if (r == ready_by && is_mem)
            stall_mem = true;
        }
        ready_by = std::max(ready_by, r);
      };
      [[maybe_unused]] auto made_by_load = [&](const Reg& r) -> bool {
        if constexpr (kProfile)
          return (r.cls == RegClass::Int ? load_made_int[r.id]
                                         : load_made_fp[r.id]) != 0;
        else
          return false;
      };
      if (in.src1.valid()) raise(reg_ready(in.src1), made_by_load(in.src1));
      if (in.src2.valid() && !in.src2_is_imm)
        raise(reg_ready(in.src2), made_by_load(in.src2));
      // Load waits for the latest store to the same address to complete.
      std::int64_t addr = 0;
      if (in.is_memory()) {
        addr = wrap_add(iget(in.src1), in.ival);
        if (in.is_load()) {
          if (const std::uint64_t* r = mem_ready.find(addr)) raise(*r, true);
        }
      }
      if (ready_by > cycle) {
        stall_until = ready_by;
        if constexpr (kProfile) {
          cycle_cause = stall_mem ? StallCause::MemWait : StallCause::RawWait;
          cause_block = pc.block_pos;
          cause_op = in.op;
        }
        break;
      }

      // ---- Issue: apply functional semantics. ----
      if (res.instructions >= options_.max_instructions) {
        fail(strformat("instruction budget exceeded (%llu)",
                       static_cast<unsigned long long>(options_.max_instructions)));
        return res;
      }
      ++res.instructions;
      ++issued;
      advanced = true;
      if (options_.trace && options_.trace->size() < options_.trace_limit)
        options_.trace->push_back(IssueEvent{in.uid, cycle});
      if constexpr (kProfile) {
        ++prof->issued_by_opcode[static_cast<std::size_t>(in.op)];
        ++prof->block_slots[pc.block_pos]
                           [static_cast<std::size_t>(StallCause::Issued)];
      }

      const int lat = lat_table[static_cast<std::size_t>(in.op)];
      bool taken = false;
      switch (in.op) {
        case Opcode::IADD:
          ints[in.dst.id] = wrap_add(iget(in.src1), in.src2_is_imm ? in.ival : iget(in.src2));
          break;
        case Opcode::ISUB:
          ints[in.dst.id] = wrap_sub(iget(in.src1), in.src2_is_imm ? in.ival : iget(in.src2));
          break;
        case Opcode::IMUL:
          ints[in.dst.id] = wrap_mul(iget(in.src1), in.src2_is_imm ? in.ival : iget(in.src2));
          break;
        case Opcode::IMULH: {
          const __int128 p = static_cast<__int128>(iget(in.src1)) *
                             static_cast<__int128>(in.src2_is_imm ? in.ival : iget(in.src2));
          ints[in.dst.id] = static_cast<std::int64_t>(p >> 64);
          break;
        }
        case Opcode::IDIV:
        case Opcode::IREM: {
          const std::int64_t a = iget(in.src1);
          const std::int64_t b = in.src2_is_imm ? in.ival : iget(in.src2);
          if (b == 0) {
            fail("integer division by zero");
            return res;
          }
          std::int64_t q;
          if (a == INT64_MIN && b == -1)
            q = INT64_MIN;  // wraps
          else
            q = a / b;
          ints[in.dst.id] = in.op == Opcode::IDIV ? q : wrap_sub(a, wrap_mul(q, b));
          break;
        }
        case Opcode::ISHL:
        case Opcode::ISHRA:
        case Opcode::ISHRL: {
          const std::uint64_t a = static_cast<std::uint64_t>(iget(in.src1));
          const int s =
              static_cast<int>((in.src2_is_imm ? in.ival : iget(in.src2)) & 63);
          std::uint64_t r = 0;
          if (in.op == Opcode::ISHL)
            r = a << s;
          else if (in.op == Opcode::ISHRL)
            r = a >> s;
          else
            r = static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> s);
          ints[in.dst.id] = static_cast<std::int64_t>(r);
          break;
        }
        case Opcode::IAND:
          ints[in.dst.id] = iget(in.src1) & (in.src2_is_imm ? in.ival : iget(in.src2));
          break;
        case Opcode::IOR:
          ints[in.dst.id] = iget(in.src1) | (in.src2_is_imm ? in.ival : iget(in.src2));
          break;
        case Opcode::IXOR:
          ints[in.dst.id] = iget(in.src1) ^ (in.src2_is_imm ? in.ival : iget(in.src2));
          break;
        case Opcode::IMAX:
          ints[in.dst.id] =
              std::max(iget(in.src1), in.src2_is_imm ? in.ival : iget(in.src2));
          break;
        case Opcode::IMIN:
          ints[in.dst.id] =
              std::min(iget(in.src1), in.src2_is_imm ? in.ival : iget(in.src2));
          break;
        case Opcode::IMOV:
          ints[in.dst.id] = iget(in.src1);
          break;
        case Opcode::INEG:
          ints[in.dst.id] = wrap_sub(0, iget(in.src1));
          break;
        case Opcode::LDI:
          ints[in.dst.id] = in.ival;
          break;
        case Opcode::FADD:
          fps[in.dst.id] = fget(in.src1) + (in.src2_is_imm ? in.fval : fget(in.src2));
          break;
        case Opcode::FSUB:
          fps[in.dst.id] = fget(in.src1) - (in.src2_is_imm ? in.fval : fget(in.src2));
          break;
        case Opcode::FMUL:
          fps[in.dst.id] = fget(in.src1) * (in.src2_is_imm ? in.fval : fget(in.src2));
          break;
        case Opcode::FDIV:
          fps[in.dst.id] = fget(in.src1) / (in.src2_is_imm ? in.fval : fget(in.src2));
          break;
        case Opcode::FMAX:
          fps[in.dst.id] = std::max(fget(in.src1), in.src2_is_imm ? in.fval : fget(in.src2));
          break;
        case Opcode::FMIN:
          fps[in.dst.id] = std::min(fget(in.src1), in.src2_is_imm ? in.fval : fget(in.src2));
          break;
        case Opcode::FMOV:
          fps[in.dst.id] = fget(in.src1);
          break;
        case Opcode::FNEG:
          fps[in.dst.id] = -fget(in.src1);
          break;
        case Opcode::FLDI:
          fps[in.dst.id] = in.fval;
          break;
        case Opcode::ITOF:
          fps[in.dst.id] = static_cast<double>(iget(in.src1));
          break;
        case Opcode::FTOI: {
          const double v = fget(in.src1);
          if (!(v >= -9.2e18 && v <= 9.2e18)) {
            fail("ftoi out of range");
            return res;
          }
          ints[in.dst.id] = static_cast<std::int64_t>(v);
          break;
        }
        case Opcode::LD:
          ints[in.dst.id] = mem.load_int(addr);
          break;
        case Opcode::FLD:
          fps[in.dst.id] = mem.load_fp(addr);
          break;
        case Opcode::ST:
          mem.store_int(addr, iget(in.src2));
          mem_ready.put(addr, cycle + static_cast<std::uint64_t>(lat));
          mem_horizon = std::max(mem_horizon, cycle + static_cast<std::uint64_t>(lat));
          break;
        case Opcode::FST:
          mem.store_fp(addr, fget(in.src2));
          mem_ready.put(addr, cycle + static_cast<std::uint64_t>(lat));
          mem_horizon = std::max(mem_horizon, cycle + static_cast<std::uint64_t>(lat));
          break;
        case Opcode::JUMP:
          taken = true;
          break;
        case Opcode::RET:
          done = true;
          break;
        case Opcode::NOP:
          break;
        default: {
          ILP_ASSERT(in.is_branch(), "unhandled opcode in simulator");
          bool cond;
          if (op_is_fp_compare(in.op)) {
            const double a = fget(in.src1);
            const double b = in.src2_is_imm ? in.fval : fget(in.src2);
            switch (in.op) {
              case Opcode::FBEQ: cond = a == b; break;
              case Opcode::FBNE: cond = a != b; break;
              case Opcode::FBLT: cond = a < b; break;
              case Opcode::FBLE: cond = a <= b; break;
              case Opcode::FBGT: cond = a > b; break;
              default: cond = a >= b; break;  // FBGE
            }
          } else {
            const std::int64_t a = iget(in.src1);
            const std::int64_t b = in.src2_is_imm ? in.ival : iget(in.src2);
            switch (in.op) {
              case Opcode::BEQ: cond = a == b; break;
              case Opcode::BNE: cond = a != b; break;
              case Opcode::BLT: cond = a < b; break;
              case Opcode::BLE: cond = a <= b; break;
              case Opcode::BGT: cond = a > b; break;
              default: cond = a >= b; break;  // BGE
            }
          }
          taken = cond;
          break;
        }
      }

      if (in.has_dest()) {
        set_ready(in.dst, cycle + static_cast<std::uint64_t>(lat));
        if constexpr (kProfile)
          (in.dst.cls == RegClass::Int ? load_made_int
                                       : load_made_fp)[in.dst.id] =
              in.is_load() ? 1 : 0;
      }
      if (in.is_control()) {
        ++branches_this_cycle;
        ++res.branches;
      }
      if (done) break;

      if (taken) {
        if constexpr (kProfile) {
          // Slots squashed by the redirect land on the branch's own block,
          // recorded before pc moves to the target.
          cycle_cause = StallCause::BranchFetch;
          cause_block = pc.block_pos;
          cause_op = in.op;
        }
        // Redirect: target issues no earlier than cycle + branch latency.
        pc.block_pos = fn.layout_index(in.target);
        pc.inst_idx = 0;
        break;  // taken control transfer ends the issue cycle
      }
      ++pc.inst_idx;
    }

    if constexpr (kProfile) {
      // Close the cycle's books: `issued` slots already landed per-block and
      // per-opcode above; the remainder all share one cause.  The final
      // cycle's remainder is the pipeline drain behind RET.
      const auto w = static_cast<std::uint64_t>(machine_.issue_width);
      const auto rem = w - static_cast<std::uint64_t>(issued);
      ++prof->occupancy[static_cast<std::size_t>(issued)];
      prof->slots[static_cast<std::size_t>(StallCause::Issued)] +=
          static_cast<std::uint64_t>(issued);
      if (done) {
        cycle_cause = StallCause::Drain;
        cause_block = pc.block_pos;
        cause_op = Opcode::RET;
      }
      if (rem > 0) {
        prof->slots[static_cast<std::size_t>(cycle_cause)] += rem;
        prof->block_slots[cause_block][static_cast<std::size_t>(cycle_cause)] +=
            rem;
        prof->stall_by_opcode[static_cast<std::size_t>(cause_op)] += rem;
      }
    }
    if (done) {
      res.cycles = cycle + 1;
      if constexpr (kProfile) prof->cycles = res.cycles;
      break;
    }
    if (!advanced) ++res.stall_cycles;
    ++cycle;
    // While the head instruction waits for `stall_until`, no instruction can
    // issue (in-order): every intervening cycle is a full stall.  Account for
    // them in one step instead of looping through each.
    if (stepping == StallStepping::Skip && stall_until > cycle) {
      const std::uint64_t skipped = stall_until - cycle;
      res.stall_cycles += skipped;
      if constexpr (kProfile) {
        // Each skipped cycle is a full-width stall with the same blocking
        // cause as the cycle that set `stall_until` (the constraint set is
        // frozen while the head waits), so attributing them here keeps
        // skip-on and skip-off profiles identical.
        const auto w = static_cast<std::uint64_t>(machine_.issue_width);
        prof->occupancy[0] += skipped;
        prof->slots[static_cast<std::size_t>(cycle_cause)] += skipped * w;
        prof->block_slots[cause_block][static_cast<std::size_t>(cycle_cause)] +=
            skipped * w;
        prof->stall_by_opcode[static_cast<std::size_t>(cause_op)] +=
            skipped * w;
      }
      cycle = stall_until;
    }
  }

  res.ok = true;
  res.regs.ints = std::move(ints);
  res.regs.fps = std::move(fps);
  return res;
}

}  // namespace reference_detail

// Runs `fn` to RET on the reference loop, mutating `mem`; dispatches on
// options.profile exactly as Simulator::run does.
inline SimResult reference_run(const MachineModel& machine, const SimOptions& options,
                               const Function& fn, Memory& mem,
                               StallStepping stepping = StallStepping::Skip) {
  return options.profile != nullptr
             ? reference_detail::reference_run_impl<true>(machine, options, stepping, fn,
                                                          mem)
             : reference_detail::reference_run_impl<false>(machine, options, stepping, fn,
                                                           mem);
}

}  // namespace ilp::testing
