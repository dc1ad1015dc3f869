#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/profile.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ilp {

namespace {

// Decoded-op flags: the only per-issue properties the run loop branches on
// outside the opcode switch.
enum : std::uint8_t {
  kControl = 1,  // branch/jump/ret: competes for the cycle's branch slots
  kEnd = 2,      // sentinel after the last op: reaching it falls off the end
  kLoad = 4,     // waits for in-flight stores to its address
};

// One instruction, lowered for execution.  Every operand is a register-file
// slot, so the interlock is max(ready[s1], ready[s2]) with no class or
// validity branches: absent sources read the always-ready dummy slot, an
// immediate second operand reads a constant slot (ready at cycle 0), and an
// op without a destination writes the sink slot, which nothing reads.
struct DecodedOp {
  std::uint32_t s1 = 0;
  std::uint32_t s2 = 0;
  std::uint32_t dst = 0;
  std::uint32_t target = 0;  // op index a taken branch/jump continues at
  std::int64_t imm = 0;      // memory offset, or the LDI/FLDI value bits
  std::int32_t lat = 0;      // MachineModel latency of `op`
  std::uint32_t uid = 0;     // Instruction::uid, for the issue trace
  std::uint32_t block = 0;   // layout position of the op's block (profile)
  Opcode op = Opcode::NOP;
  std::uint8_t flags = 0;
};

// A register as the run loop sees it: raw value bits (int64 or double) and
// the cycle its latest producer's result becomes available.
struct RegSlot {
  std::uint64_t val = 0;
  std::uint64_t ready = 0;
};

// In-flight stores as (address, completion cycle), oldest first.  Every store
// has the same latency, so completion cycles are monotone in issue order: the
// front is always the first to complete, and the newest entry for an address
// is the one a load must wait for.  A store that has completed can no longer
// delay a load (its cycle is not in the future), so push() first drops those
// from the front; what remains is at most issue_width x store latency
// entries.
class StoreQueue {
 public:
  explicit StoreQueue(std::size_t capacity)
      : ring_(std::bit_ceil(std::clamp<std::size_t>(capacity, 1, 4096))) {}

  // Records a store issued at `cycle` that completes at `done`.
  void push(std::uint64_t cycle, std::int64_t addr, std::uint64_t done) {
    while (head_ != tail_ && ring_[head_ & mask()].done <= cycle) ++head_;
    if (tail_ - head_ == ring_.size()) grow();
    ring_[tail_ & mask()] = Entry{addr, done};
    ++tail_;
  }

  // Completion cycle of the newest in-flight store to `addr`, if any.
  [[nodiscard]] const std::uint64_t* newest(std::int64_t addr) const {
    for (std::size_t t = tail_; t != head_;) {
      --t;
      const Entry& e = ring_[t & mask()];
      if (e.addr == addr) return &e.done;
    }
    return nullptr;
  }

 private:
  struct Entry {
    std::int64_t addr = 0;
    std::uint64_t done = 0;
  };

  [[nodiscard]] std::size_t mask() const { return ring_.size() - 1; }

  void grow() {
    std::vector<Entry> bigger(ring_.size() * 2);
    for (std::size_t i = 0; head_ + i != tail_; ++i) bigger[i] = ring_[(head_ + i) & mask()];
    tail_ -= head_;
    head_ = 0;
    ring_ = std::move(bigger);
  }

  std::vector<Entry> ring_;  // power-of-two capacity
  std::size_t head_ = 0;     // monotone cursors; index with & mask()
  std::size_t tail_ = 0;
};

double as_fp(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t fp_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

// The function lowered once per run: ops in layout order with empty blocks
// folded away and a kEnd sentinel last, plus the initial register file.
// Slots: ints [0, num_ints), fps [num_ints, num_ints + num_fps), then the
// dummy, the sink and one constant slot per immediate operand.
struct Simulator::Program {
  Program(const Function& fn, const MachineModel& machine, const SimOptions& options);

  std::vector<DecodedOp> ops;
  std::vector<RegSlot> regs;
  std::uint32_t num_ints = 0;
  std::uint32_t num_fps = 0;
};

Simulator::Program::Program(const Function& fn, const MachineModel& machine,
                            const SimOptions& options)
    : num_ints(std::max<std::uint32_t>(fn.num_regs(RegClass::Int), 1)),
      num_fps(std::max<std::uint32_t>(fn.num_regs(RegClass::Fp), 1)) {
  const std::uint32_t dummy = num_ints + num_fps;
  const std::uint32_t sink = dummy + 1;

  // Op index of each layout block's first op; an empty block starts where
  // the next non-empty one does (or at the sentinel).
  const auto& blocks = fn.blocks();
  std::vector<std::uint32_t> block_start(blocks.size());
  std::size_t n_ops = 0;
  std::size_t n_consts = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    block_start[b] = static_cast<std::uint32_t>(n_ops);
    n_ops += blocks[b].insts.size();
    for (const Instruction& in : blocks[b].insts) n_consts += in.src2_is_imm ? 1 : 0;
  }

  regs.reserve(sink + 1 + n_consts);
  regs.assign(sink + 1, RegSlot{});
  for (std::size_t i = 0; i < options.init_ints.size() && i < num_ints; ++i)
    regs[i].val = static_cast<std::uint64_t>(options.init_ints[i]);
  for (std::size_t i = 0; i < options.init_fps.size() && i < num_fps; ++i)
    regs[num_ints + i].val = fp_bits(options.init_fps[i]);

  const auto slot = [&](const Reg& r) -> std::uint32_t {
    if (r.cls == RegClass::Int) {
      ILP_ASSERT(r.id < num_ints, "simulator: int register out of range");
      return r.id;
    }
    ILP_ASSERT(r.id < num_fps, "simulator: fp register out of range");
    return num_ints + r.id;
  };

  ops.reserve(n_ops + 1);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (const Instruction& in : blocks[b].insts) {
      DecodedOp d;
      d.op = in.op;
      d.uid = in.uid;
      d.block = static_cast<std::uint32_t>(b);
      d.lat = machine.latency(in.op);
      d.s1 = in.src1.valid() ? slot(in.src1) : dummy;
      if (in.src2_is_imm) {
        // The immediate becomes a constant slot, typed by the operation.
        d.s2 = static_cast<std::uint32_t>(regs.size());
        const bool fp = op_is_fp_compare(in.op) || (in.has_dest() && op_dest_is_fp(in.op));
        regs.push_back(RegSlot{fp ? fp_bits(in.fval) : static_cast<std::uint64_t>(in.ival), 0});
      } else {
        d.s2 = in.src2.valid() ? slot(in.src2) : dummy;
      }
      d.dst = in.has_dest() ? slot(in.dst) : sink;
      d.imm = in.op == Opcode::FLDI ? static_cast<std::int64_t>(fp_bits(in.fval)) : in.ival;
      if (in.is_control()) d.flags |= kControl;
      if (in.is_load()) d.flags |= kLoad;
      if (in.op == Opcode::JUMP || in.is_branch())
        d.target = block_start[fn.layout_index(in.target)];
      ops.push_back(d);
    }
  }
  DecodedOp end;
  end.s1 = end.s2 = dummy;
  end.dst = sink;
  end.flags = kEnd;
  ops.push_back(end);
}

SimResult Simulator::run(const Function& fn, Memory& mem) const {
  if (fn.num_blocks() == 0) {
    SimResult res;
    res.error = "empty function";
    return res;
  }
  Program prog(fn, machine_, options_);
  // Compile-time dispatch keeps the unprofiled loop free of the profiler's
  // state and per-issue bookkeeping.
  return options_.profile != nullptr ? run_impl<true>(prog, fn, mem)
                                     : run_impl<false>(prog, fn, mem);
}

template <bool kProfile>
SimResult Simulator::run_impl(Program& prog, const Function& fn, Memory& mem) const {
  SimResult res;
  const DecodedOp* const ops = prog.ops.data();
  RegSlot* const regs = prog.regs.data();

  // Profiling state.  The raw/mem split needs to know whether a register's
  // latest producer was a load; the flags parallel the register slots and
  // exist only in the profiled instantiation.
  CycleProfile* prof = nullptr;
  std::vector<std::uint8_t> load_made;
  if constexpr (kProfile) {
    prof = options_.profile;
    prof->reset(machine_.issue_width, fn);
    load_made.assign(prog.regs.size(), 0);
  }

  const int width = machine_.issue_width;
  const int branch_slots = machine_.branch_slots;
  const std::uint64_t max_instructions = options_.max_instructions;
  std::vector<IssueEvent>* const trace = options_.trace;
  const std::size_t trace_limit = options_.trace_limit;
  StoreQueue stores(static_cast<std::size_t>(std::max(width, 1)) *
                    static_cast<std::size_t>(std::max(machine_.lat_store, 1)));

  std::uint32_t pc = 0;
  std::uint64_t cycle = 0;
  std::uint64_t instructions = 0;
  std::uint64_t branches = 0;
  std::uint64_t stall_cycles = 0;
  bool done = false;

  auto fail = [&](std::string msg) {
    res.ok = false;
    res.error = std::move(msg);
    res.cycles = cycle;
    res.instructions = instructions;
    res.branches = branches;
    res.stall_cycles = stall_cycles;
  };

  while (!done) {
    int issued = 0;
    int branches_this_cycle = 0;
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

    while (issued < width) {
      const DecodedOp& o = ops[pc];
      if (o.flags & (kControl | kEnd)) {
        // Fallthrough across block boundaries is free (sequential fetch);
        // only running past the last op ends the run.
        if (o.flags & kEnd) {
          fail("fell off end of function");
          return res;
        }
        // Branch-slot restriction: a structural width limit, not a data
        // hazard.
        if (branches_this_cycle >= branch_slots) {
          if constexpr (kProfile) {
            cycle_cause = StallCause::ResourceWidth;
            cause_block = o.block;
            cause_op = o.op;
          }
          break;
        }
      }

      // Register interlocks: every source must be ready.  Register *values*
      // are written at issue, so they (and hence `addr`) are already final
      // even while the timing model says the instruction must wait.
      const std::uint64_t r1 = regs[o.s1].ready;
      const std::uint64_t r2 = regs[o.s2].ready;
      std::uint64_t ready_by = std::max(r1, r2);
      // A load also waits for the newest in-flight store to its address.
      std::int64_t addr = 0;
      const std::uint64_t* store_done = nullptr;
      if (o.flags & kLoad) {
        addr = static_cast<std::int64_t>(regs[o.s1].val + static_cast<std::uint64_t>(o.imm));
        store_done = stores.newest(addr);
        if (store_done != nullptr) ready_by = std::max(ready_by, *store_done);
      }
      if (ready_by > cycle) {
        stall_until = ready_by;
        if constexpr (kProfile) {
          // The latest constraint names the cause; memory wins a tie (it is
          // the deeper reason the operand is late), which keeps attribution
          // identical between skip-stall and per-cycle evaluation.
          const bool stall_mem = (r1 == ready_by && load_made[o.s1] != 0) ||
                                 (r2 == ready_by && load_made[o.s2] != 0) ||
                                 (store_done != nullptr && *store_done == ready_by);
          cycle_cause = stall_mem ? StallCause::MemWait : StallCause::RawWait;
          cause_block = o.block;
          cause_op = o.op;
        }
        break;
      }

      // ---- Issue: apply functional semantics. ----
      if (instructions >= max_instructions) {
        fail(strformat("instruction budget exceeded (%llu)",
                       static_cast<unsigned long long>(max_instructions)));
        return res;
      }
      ++instructions;
      ++issued;
      if (trace != nullptr && trace->size() < trace_limit)
        trace->push_back(IssueEvent{o.uid, cycle});
      if constexpr (kProfile) {
        ++prof->issued_by_opcode[static_cast<std::size_t>(o.op)];
        ++prof->block_slots[o.block][static_cast<std::size_t>(StallCause::Issued)];
      }

      // Operands as raw bits; int ops wrap in unsigned arithmetic, fp ops
      // reinterpret.  Ops without a destination write the sink.
      const std::uint64_t a = regs[o.s1].val;
      const std::uint64_t b = regs[o.s2].val;
      const auto ia = static_cast<std::int64_t>(a);
      const auto ib = static_cast<std::int64_t>(b);
      const std::uint64_t done_at = cycle + static_cast<std::uint64_t>(o.lat);
      std::uint64_t v = 0;
      bool taken = false;
      switch (o.op) {
        case Opcode::IADD: v = a + b; break;
        case Opcode::ISUB: v = a - b; break;
        case Opcode::IMUL: v = a * b; break;
        case Opcode::IMULH: {
          const __int128 p = static_cast<__int128>(ia) * static_cast<__int128>(ib);
          v = static_cast<std::uint64_t>(static_cast<std::int64_t>(p >> 64));
          break;
        }
        case Opcode::IDIV:
        case Opcode::IREM: {
          if (ib == 0) {
            fail("integer division by zero");
            return res;
          }
          std::int64_t q;
          if (ia == INT64_MIN && ib == -1)
            q = INT64_MIN;  // wraps
          else
            q = ia / ib;
          v = o.op == Opcode::IDIV ? static_cast<std::uint64_t>(q)
                                   : a - static_cast<std::uint64_t>(q) * b;
          break;
        }
        case Opcode::ISHL: v = a << (b & 63); break;
        case Opcode::ISHRL: v = a >> (b & 63); break;
        case Opcode::ISHRA: v = static_cast<std::uint64_t>(ia >> (b & 63)); break;
        case Opcode::IAND: v = a & b; break;
        case Opcode::IOR: v = a | b; break;
        case Opcode::IXOR: v = a ^ b; break;
        case Opcode::IMAX: v = static_cast<std::uint64_t>(std::max(ia, ib)); break;
        case Opcode::IMIN: v = static_cast<std::uint64_t>(std::min(ia, ib)); break;
        case Opcode::IMOV:
        case Opcode::FMOV: v = a; break;
        case Opcode::INEG: v = 0 - a; break;
        case Opcode::LDI:
        case Opcode::FLDI: v = static_cast<std::uint64_t>(o.imm); break;
        case Opcode::FADD: v = fp_bits(as_fp(a) + as_fp(b)); break;
        case Opcode::FSUB: v = fp_bits(as_fp(a) - as_fp(b)); break;
        case Opcode::FMUL: v = fp_bits(as_fp(a) * as_fp(b)); break;
        case Opcode::FDIV: v = fp_bits(as_fp(a) / as_fp(b)); break;
        case Opcode::FMAX: v = fp_bits(std::max(as_fp(a), as_fp(b))); break;
        case Opcode::FMIN: v = fp_bits(std::min(as_fp(a), as_fp(b))); break;
        case Opcode::FNEG: v = fp_bits(-as_fp(a)); break;
        case Opcode::ITOF: v = fp_bits(static_cast<double>(ia)); break;
        case Opcode::FTOI: {
          const double x = as_fp(a);
          if (!(x >= -9.2e18 && x <= 9.2e18)) {
            fail("ftoi out of range");
            return res;
          }
          v = static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
          break;
        }
        case Opcode::LD:
        case Opcode::FLD: v = static_cast<std::uint64_t>(mem.load_int(addr)); break;
        case Opcode::ST:
        case Opcode::FST:
          addr = static_cast<std::int64_t>(a + static_cast<std::uint64_t>(o.imm));
          mem.store_int(addr, ib);
          stores.push(cycle, addr, done_at);
          break;
        case Opcode::BEQ: taken = ia == ib; break;
        case Opcode::BNE: taken = ia != ib; break;
        case Opcode::BLT: taken = ia < ib; break;
        case Opcode::BLE: taken = ia <= ib; break;
        case Opcode::BGT: taken = ia > ib; break;
        case Opcode::BGE: taken = ia >= ib; break;
        case Opcode::FBEQ: taken = as_fp(a) == as_fp(b); break;
        case Opcode::FBNE: taken = as_fp(a) != as_fp(b); break;
        case Opcode::FBLT: taken = as_fp(a) < as_fp(b); break;
        case Opcode::FBLE: taken = as_fp(a) <= as_fp(b); break;
        case Opcode::FBGT: taken = as_fp(a) > as_fp(b); break;
        case Opcode::FBGE: taken = as_fp(a) >= as_fp(b); break;
        case Opcode::JUMP: taken = true; break;
        case Opcode::RET: done = true; break;
        case Opcode::NOP: break;
      }
      regs[o.dst].val = v;
      regs[o.dst].ready = done_at;
      if constexpr (kProfile) load_made[o.dst] = (o.flags & kLoad) ? 1 : 0;

      if (o.flags & kControl) {
        ++branches_this_cycle;
        ++branches;
        if (done) break;
        if (taken) {
          if constexpr (kProfile) {
            // Slots squashed by the redirect land on the branch's own block,
            // recorded before pc moves to the target.
            cycle_cause = StallCause::BranchFetch;
            cause_block = o.block;
            cause_op = o.op;
          }
          // Redirect: the target issues no earlier than the next cycle.
          pc = o.target;
          break;  // taken control transfer ends the issue cycle
        }
      }
      ++pc;
    }

    if constexpr (kProfile) {
      // Close the cycle's books: `issued` slots already landed per-block and
      // per-opcode above; the remainder all share one cause.  The final
      // cycle's remainder is the pipeline drain behind RET.
      const auto w = static_cast<std::uint64_t>(width);
      const auto rem = w - static_cast<std::uint64_t>(issued);
      ++prof->occupancy[static_cast<std::size_t>(issued)];
      prof->slots[static_cast<std::size_t>(StallCause::Issued)] +=
          static_cast<std::uint64_t>(issued);
      if (done) {
        cycle_cause = StallCause::Drain;
        cause_block = ops[pc].block;
        cause_op = Opcode::RET;
      }
      if (rem > 0) {
        prof->slots[static_cast<std::size_t>(cycle_cause)] += rem;
        prof->block_slots[cause_block][static_cast<std::size_t>(cycle_cause)] += rem;
        prof->stall_by_opcode[static_cast<std::size_t>(cause_op)] += rem;
      }
    }
    if (done) {
      res.cycles = cycle + 1;
      if constexpr (kProfile) prof->cycles = res.cycles;
      break;
    }
    if (issued == 0) ++stall_cycles;
    ++cycle;
    // While the head instruction waits for `stall_until`, no instruction can
    // issue (in-order): every intervening cycle is a full stall.  Account for
    // them in one step instead of looping through each.
    if (stall_until > cycle) {
      const std::uint64_t skipped = stall_until - cycle;
      stall_cycles += skipped;
      if constexpr (kProfile) {
        // Each skipped cycle is a full-width stall with the same blocking
        // cause as the cycle that set `stall_until` (the constraint set is
        // frozen while the head waits), so attributing them here keeps the
        // profile identical to per-cycle evaluation.
        const auto w = static_cast<std::uint64_t>(width);
        prof->occupancy[0] += skipped;
        prof->slots[static_cast<std::size_t>(cycle_cause)] += skipped * w;
        prof->block_slots[cause_block][static_cast<std::size_t>(cycle_cause)] +=
            skipped * w;
        prof->stall_by_opcode[static_cast<std::size_t>(cause_op)] += skipped * w;
      }
      cycle = stall_until;
    }
  }

  res.ok = true;
  res.instructions = instructions;
  res.branches = branches;
  res.stall_cycles = stall_cycles;
  res.regs.ints.resize(prog.num_ints);
  for (std::uint32_t i = 0; i < prog.num_ints; ++i)
    res.regs.ints[i] = static_cast<std::int64_t>(regs[i].val);
  res.regs.fps.resize(prog.num_fps);
  for (std::uint32_t i = 0; i < prog.num_fps; ++i)
    res.regs.fps[i] = as_fp(regs[prog.num_ints + i].val);
  return res;
}

namespace {
std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

void seed_arrays(const Function& fn, Memory& mem, std::uint64_t seed) {
  // One dense window over the arrays' address span when they are packed
  // (as the frontend lays them out); the flat map holds whatever a sparse
  // layout or an already-used memory leaves outside it.
  std::size_t cells = 0;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const auto& arr : fn.arrays()) {
    if (arr.length <= 0 || arr.elem_size <= 0) continue;
    cells += static_cast<std::size_t>(arr.length);
    lo = std::min(lo, arr.base);
    hi = std::max(hi, arr.base + arr.length * arr.elem_size);
  }
  const std::uint64_t span_cells =
      (static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo)) / 4;
  if (cells == 0 || span_cells > 4 * cells + 4096 || !mem.map_window(lo, hi))
    mem.reserve(cells);
  for (const auto& arr : fn.arrays()) {
    std::uint64_t s = seed;
    for (char c : arr.name) s = s * 131 + static_cast<std::uint64_t>(c);
    for (std::int64_t i = 0; i < arr.length; ++i) {
      const std::int64_t addr = arr.base + i * arr.elem_size;
      const std::uint64_t r = splitmix64(s);
      if (arr.is_fp) {
        // Values in (0.0625, 2.0625): positive, away from zero, modest
        // magnitude so products/sums stay finite across long loops.
        const double v = 0.0625 + static_cast<double>(r % 1024) / 512.0;
        mem.store_fp(addr, v);
      } else {
        mem.store_int(addr, static_cast<std::int64_t>(1 + r % 16));
      }
    }
  }
}

RunOutcome run_seeded(const Function& fn, const MachineModel& machine, SimOptions options) {
  RunOutcome out;
  seed_arrays(fn, out.memory);
  Simulator sim(machine, std::move(options));
  out.result = sim.run(fn, out.memory);
  return out;
}

std::string compare_observable(const Function& fn, const RunOutcome& a, const RunOutcome& b,
                               double fp_tolerance) {
  if (!a.result.ok) return "first run failed: " + a.result.error;
  if (!b.result.ok) return "second run failed: " + b.result.error;

  auto fp_close = [&](double x, double y) {
    const double diff = std::fabs(x - y);
    const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    return diff <= fp_tolerance * scale;
  };

  for (const auto& arr : fn.arrays()) {
    for (std::int64_t i = 0; i < arr.length; ++i) {
      const std::int64_t addr = arr.base + i * arr.elem_size;
      if (arr.is_fp) {
        const double x = a.memory.load_fp(addr);
        const double y = b.memory.load_fp(addr);
        if (!fp_close(x, y))
          return strformat("%s[%lld]: %.17g vs %.17g", arr.name.c_str(),
                           static_cast<long long>(i), x, y);
      } else {
        const std::int64_t x = a.memory.load_int(addr);
        const std::int64_t y = b.memory.load_int(addr);
        if (x != y)
          return strformat("%s[%lld]: %lld vs %lld", arr.name.c_str(),
                           static_cast<long long>(i), static_cast<long long>(x),
                           static_cast<long long>(y));
      }
    }
  }
  for (const Reg& r : fn.live_out()) {
    if (r.cls == RegClass::Fp) {
      const double x = a.result.regs.get_fp(r.id);
      const double y = b.result.regs.get_fp(r.id);
      if (!fp_close(x, y))
        return strformat("live-out r%u.f: %.17g vs %.17g", r.id, x, y);
    } else {
      const std::int64_t x = a.result.regs.get_int(r.id);
      const std::int64_t y = b.result.regs.get_int(r.id);
      if (x != y)
        return strformat("live-out r%u.i: %lld vs %lld", r.id, static_cast<long long>(x),
                         static_cast<long long>(y));
    }
  }
  return {};
}

}  // namespace ilp
