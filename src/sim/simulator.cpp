#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <type_traits>

#include "sim/profile.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ilp {

namespace {

// Decoded-op flags: the only per-issue properties the run loop branches on
// outside the opcode switch.
enum : std::uint8_t {
  kControl = 1,    // branch/jump/ret: competes for the cycle's branch slots
  kEnd = 2,        // sentinel after the last op: reaching it falls off the end
  kLoad = 4,       // waits for in-flight stores to its address
  kStore = 8,      // fast-forward logs the cell it overwrites
  kBackEdge = 16,  // branch/jump to an earlier op: taken, it enters loop head `head`
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
  std::uint16_t head = 0;    // kBackEdge: dense index of the target loop head
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

  // Stores still in flight at `cycle`: completion is monotone, so they are
  // the newest entries.
  [[nodiscard]] std::size_t in_flight(std::uint64_t cycle) const {
    std::size_t n = 0;
    for (std::size_t t = tail_; t != head_ && ring_[(t - 1) & mask()].done > cycle; --t) ++n;
    return n;
  }

  void clear() { head_ = tail_; }

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

std::uint64_t mulh(std::int64_t a, std::int64_t b) {
  const __int128 p = static_cast<__int128>(a) * static_cast<__int128>(b);
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(p >> 64));
}

// IDIV (or IREM when `rem`) into `v`; false on division by zero.
bool divide(bool rem, std::uint64_t a, std::uint64_t b, std::uint64_t& v) {
  const auto ia = static_cast<std::int64_t>(a);
  const auto ib = static_cast<std::int64_t>(b);
  if (ib == 0) return false;
  const std::int64_t q = ia == INT64_MIN && ib == -1 ? INT64_MIN : ia / ib;  // wraps
  v = rem ? a - static_cast<std::uint64_t>(q) * b : static_cast<std::uint64_t>(q);
  return true;
}

// FTOI into `v`; false when the value does not fit.
bool fp_to_int(std::uint64_t a, std::uint64_t& v) {
  const double x = as_fp(a);
  if (!(x >= -9.2e18 && x <= 9.2e18)) return false;
  v = static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
  return true;
}

// The semantics every op shares between the run loop and the fast-forward
// code, so the two cannot disagree on a value.  Operands are raw bits `a`,
// `b` (`ia`, `ib` as signed) and the decoded `imm`; int ops wrap in unsigned
// arithmetic, fp ops reinterpret.  Value ops cannot fault: their result is
// the expression.
#define ILP_SIM_VALUE_OPS(X)                                  \
  X(IADD, a + b)                                              \
  X(ISUB, a - b)                                              \
  X(IMUL, a * b)                                              \
  X(IMULH, mulh(ia, ib))                                      \
  X(ISHL, a << (b & 63))                                      \
  X(ISHRL, a >> (b & 63))                                     \
  X(ISHRA, static_cast<std::uint64_t>(ia >> (b & 63)))        \
  X(IAND, a & b)                                              \
  X(IOR, a | b)                                               \
  X(IXOR, a ^ b)                                              \
  X(IMAX, static_cast<std::uint64_t>(std::max(ia, ib)))       \
  X(IMIN, static_cast<std::uint64_t>(std::min(ia, ib)))       \
  X(IMOV, a)                                                  \
  X(FMOV, a)                                                  \
  X(INEG, 0 - a)                                              \
  X(LDI, static_cast<std::uint64_t>(imm))                     \
  X(FLDI, static_cast<std::uint64_t>(imm))                    \
  X(FADD, fp_bits(as_fp(a) + as_fp(b)))                       \
  X(FSUB, fp_bits(as_fp(a) - as_fp(b)))                       \
  X(FMUL, fp_bits(as_fp(a) * as_fp(b)))                       \
  X(FDIV, fp_bits(as_fp(a) / as_fp(b)))                       \
  X(FMAX, fp_bits(std::max(as_fp(a), as_fp(b))))              \
  X(FMIN, fp_bits(std::min(as_fp(a), as_fp(b))))              \
  X(FNEG, fp_bits(-as_fp(a)))                                 \
  X(ITOF, fp_bits(static_cast<double>(ia)))
// Conditional branches: taken when the condition holds.
#define ILP_SIM_BRANCH_OPS(X)     \
  X(BEQ, ia == ib)                \
  X(BNE, ia != ib)                \
  X(BLT, ia < ib)                 \
  X(BLE, ia <= ib)                \
  X(BGT, ia > ib)                 \
  X(BGE, ia >= ib)                \
  X(FBEQ, as_fp(a) == as_fp(b))   \
  X(FBNE, as_fp(a) != as_fp(b))   \
  X(FBLT, as_fp(a) < as_fp(b))    \
  X(FBLE, as_fp(a) <= as_fp(b))   \
  X(FBGT, as_fp(a) > as_fp(b))    \
  X(FBGE, as_fp(a) >= as_fp(b))
// The remaining ops — IDIV/IREM and FTOI (which fault), LD/FLD, ST/FST,
// JUMP, RET and NOP — are spelled out in both places.

// ---- Periodic fast-forward ------------------------------------------------
//
// In-order issue makes the timing of a path a function of the scoreboard
// *relative* to the cycle it starts in: every interlock compares a ready
// cycle with the current one, and a ready cycle already in the past acts
// like any other.  So when a loop head is entered (a taken back edge just
// ended a cycle, so nothing else of that cycle is pending) with no store in
// flight and the same relative scoreboard as at its previous entry, the
// iteration between them is a candidate steady state.  The run loop then
// times one more iteration precisely while recording its control outcomes
// and, per load, how many stores were in flight when it was first examined
// (its "period").  If that ends at the head with the same scoreboard again,
// and no load in it waited on an in-flight store, every later iteration
// that takes the same path costs exactly the same cycles, stalls and
// profile slots — as long as no load's address matches one of the stores
// in flight at that point, which are the same (by position) as in the
// period.  fast_forward() executes those iterations for values only and the
// run loop adds the period's deltas per iteration.

// Scoreboard snapshot rows: word 0 says what the row holds, word 1 is the
// run's control-op count (mod 2^32) at the head's latest entry, then one
// word per register slot.
constexpr std::uint32_t kRowHeader = 2;
enum : std::uint32_t {
  kRowEmpty = 0,    // the head has not been entered at a snapshot point
  kRowSet = 1,      // the scoreboard at the head's latest entry
  kRowTooLong = 2,  // a period from this head overflowed the path log
};
constexpr std::uint32_t kLoadMade = 0x80000000u;  // profiled runs: pending load result
// Control outcomes and loads a period may hold; a longer recording is
// abandoned.
constexpr std::uint32_t kMaxPeriodControls = 256;
constexpr std::uint32_t kMaxPeriodLoads = 2048;
// Most stores that can be in flight (issue_width x store latency) for which
// fast-forward runs; a power of two.
constexpr std::size_t kMaxStoreWindow = 64;

// Writes the scoreboard relative to `cycle` into `row` — each register
// slot's ready - cycle clipped at 0, in a profiled run with kLoadMade set
// where the pending result comes from a load (the raw/mem attribution reads
// it) — and returns whether `row` already held exactly that.
template <bool kProfile>
bool snapshot(std::uint32_t* row, const RegSlot* regs, const std::uint8_t* load_made,
              std::uint32_t n, std::uint64_t cycle) {
  bool same = row[0] == kRowSet;
  row[0] = kRowSet;
  std::uint32_t* const rel_of = row + kRowHeader;
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint64_t r = regs[s].ready;
    auto rel = static_cast<std::uint32_t>(r > cycle ? r - cycle : 0);
    if constexpr (kProfile) rel |= rel != 0 && load_made[s] != 0 ? kLoadMade : 0;
    same &= rel_of[s] == rel;
    rel_of[s] = rel;
  }
  return same;
}

// One recorded period: from loop head `start` back to it along the path of
// `controls` logged control outcomes, with its deltas.
struct Period {
  std::uint32_t start = 0;
  std::uint32_t controls = 0;
  std::uint32_t loads = 0;
  const std::uint8_t* in_flight = nullptr;  // per load: stores in flight at it
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t branches = 0;
};

// The period as straight-line, direct-threaded code: one entry per op that
// has an effect, each naming its handler in fast_forward() and its operand
// slots' value words.  A branch becomes a guard on its recorded outcome.
struct ThreadedOp {
  const void* handler = nullptr;
  std::uint64_t* dst = nullptr;
  const std::uint64_t* a = nullptr;
  const std::uint64_t* b = nullptr;
  std::int64_t imm = 0;      // the op's imm; a guard's expected outcome
  std::uint32_t checks = 0;  // a load: stores in flight when it issues
  std::uint32_t stores = 0;  // a load: the iteration's stores before it
};

// The state a fast-forwarded iteration overwrites, so a fallback can return
// to its start: first the register slots the code writes, saved as the
// iteration begins, then the cells its stores overwrite, in order.
struct Undo {
  std::int64_t where = 0;  // slot index, or address
  std::uint64_t val = 0;
};

// Executes up to `max_periods` iterations of period `p` for values only and
// returns how many completed.  It first lowers the period's path into
// `code` (at least instructions + 1 entries).  An iteration stops short —
// restoring the registers and cells it wrote, so the state is that of its
// start — at the first branch outcome off the path, the first fault, or the
// first load whose address matches a store still in flight at it: no store
// is in flight at the head, so those are the iteration's last `checks`
// stores, whose addresses `undo` holds (at least instructions entries).
// Clobbers the `ready` words of register slots [0, n_regs), which the
// caller rebuilds from the period's snapshot.
std::uint64_t fast_forward(const DecodedOp* ops, RegSlot* regs, std::uint32_t n_regs,
                           Memory& mem, const Period& p, const std::uint64_t* path,
                           ThreadedOp* code, Undo* undo, std::uint64_t max_periods) {
  // Handler addresses by opcode, for lowering.
  std::array<const void*, kNumOpcodes> handler{};
#define ILP_LABEL(name, expr) handler[static_cast<std::size_t>(Opcode::name)] = &&op_##name;
  ILP_SIM_VALUE_OPS(ILP_LABEL)
  ILP_SIM_BRANCH_OPS(ILP_LABEL)
#undef ILP_LABEL
  handler[static_cast<std::size_t>(Opcode::IDIV)] = &&op_IDIV;
  handler[static_cast<std::size_t>(Opcode::IREM)] = &&op_IREM;
  handler[static_cast<std::size_t>(Opcode::FTOI)] = &&op_FTOI;
  handler[static_cast<std::size_t>(Opcode::ST)] = &&op_ST;
  handler[static_cast<std::size_t>(Opcode::FST)] = &&op_ST;

  // Lower the path.  JUMP and NOP have no effect beyond the path itself;
  // the register slots written are listed once each (marked via `ready`).
  constexpr std::uint64_t kSaved = UINT64_MAX;
  std::size_t n_code = 0;
  std::size_t n_saved = 0;
  {
    std::uint32_t pc = p.start;
    std::uint32_t controls = 0;
    std::uint32_t loads = 0;
    std::uint32_t stores = 0;
    for (;;) {
      const DecodedOp& o = ops[pc];
      ThreadedOp t;
      t.dst = &regs[o.dst].val;
      t.a = &regs[o.s1].val;
      t.b = &regs[o.s2].val;
      t.imm = o.imm;
      if (o.flags & kControl) {
        const bool taken = ((path[controls >> 6] >> (controls & 63)) & 1) != 0;
        ++controls;
        if (o.op != Opcode::JUMP) {
          t.handler = handler[static_cast<std::size_t>(o.op)];
          t.imm = taken ? 1 : 0;
          code[n_code++] = t;
        }
        if (taken) {
          pc = o.target;
          if (controls == p.controls) break;
        } else {
          ++pc;
        }
        continue;
      }
      ++pc;
      if (o.op == Opcode::NOP) continue;
      if (o.flags & kLoad) {
        t.checks = p.in_flight[loads++];
        t.stores = stores;
        t.handler = t.checks != 0 ? &&op_load_checked : &&op_load;
      } else {
        t.handler = handler[static_cast<std::size_t>(o.op)];
        stores += (o.flags & kStore) ? 1 : 0;
      }
      code[n_code++] = t;
      if (!(o.flags & kStore) && o.dst < n_regs && regs[o.dst].ready != kSaved) {
        regs[o.dst].ready = kSaved;
        undo[n_saved++].where = o.dst;
      }
    }
    code[n_code].handler = &&iteration_done;
  }

  // Run it.  Each handler ends by jumping straight to the next one's.
  std::uint64_t k = 0;
  const ThreadedOp* t = code;
  Undo* cells = undo + n_saved;  // where the next store's old cell goes
#define ILP_NEXT      \
  do {                \
    ++t;              \
    goto* t->handler; \
  } while (0)
#define ILP_OPERANDS                                             \
  const std::uint64_t a = *t->a;                                 \
  const std::uint64_t b = *t->b;                                 \
  [[maybe_unused]] const auto ia = static_cast<std::int64_t>(a); \
  [[maybe_unused]] const auto ib = static_cast<std::int64_t>(b); \
  [[maybe_unused]] const std::int64_t imm = t->imm

next_iteration:
  if (k == max_periods) return k;
  for (std::size_t i = 0; i < n_saved; ++i) undo[i].val = regs[undo[i].where].val;
  cells = undo + n_saved;
  t = code;
  goto* t->handler;

#define ILP_HANDLER(name, expr) \
  op_##name : {                 \
    ILP_OPERANDS;               \
    *t->dst = (expr);           \
    ILP_NEXT;                   \
  }
  ILP_SIM_VALUE_OPS(ILP_HANDLER)
#undef ILP_HANDLER
#define ILP_HANDLER(name, cond)                                  \
  op_##name : {                                                  \
    ILP_OPERANDS;                                                \
    if (static_cast<std::int64_t>(cond) != imm) goto off_path;  \
    ILP_NEXT;                                                    \
  }
  ILP_SIM_BRANCH_OPS(ILP_HANDLER)
#undef ILP_HANDLER
op_IDIV:
  if (!divide(false, *t->a, *t->b, *t->dst)) goto off_path;
  ILP_NEXT;
op_IREM:
  if (!divide(true, *t->a, *t->b, *t->dst)) goto off_path;
  ILP_NEXT;
op_FTOI:
  if (!fp_to_int(*t->a, *t->dst)) goto off_path;
  ILP_NEXT;
op_load_checked : {
  const auto addr = static_cast<std::int64_t>(*t->a + static_cast<std::uint64_t>(t->imm));
  const Undo* const before = undo + n_saved + t->stores;
  for (std::uint32_t i = 1; i <= t->checks; ++i)
    if (before[-static_cast<std::ptrdiff_t>(i)].where == addr) goto off_path;
  *t->dst = static_cast<std::uint64_t>(mem.load_int(addr));
  ILP_NEXT;
}
op_load : {
  const auto addr = static_cast<std::int64_t>(*t->a + static_cast<std::uint64_t>(t->imm));
  *t->dst = static_cast<std::uint64_t>(mem.load_int(addr));
  ILP_NEXT;
}
op_ST : {
  const auto addr = static_cast<std::int64_t>(*t->a + static_cast<std::uint64_t>(t->imm));
  *cells++ = Undo{addr, static_cast<std::uint64_t>(mem.load_int(addr))};
  mem.store_int(addr, static_cast<std::int64_t>(*t->b));
  ILP_NEXT;
}
iteration_done:
  ++k;
  goto next_iteration;
#undef ILP_OPERANDS
#undef ILP_NEXT

off_path:
  while (cells != undo + n_saved) {
    --cells;
    mem.store_int(cells->where, static_cast<std::int64_t>(cells->val));
  }
  for (std::size_t i = 0; i < n_saved; ++i) regs[undo[i].where].val = undo[i].val;
  return k;
}

// The counters of a profile (not its block names), for taking a period's
// delta against the profile at the period's start.
void copy_counts(CycleProfile& to, const CycleProfile& from) {
  to.slots = from.slots;
  to.block_slots = from.block_slots;
  to.issued_by_opcode = from.issued_by_opcode;
  to.stall_by_opcode = from.stall_by_opcode;
  to.occupancy = from.occupancy;
}

// Adds `k` more periods to `p`, whose last period ran from `base` to `p`.
void add_periods(CycleProfile& p, const CycleProfile& base, std::uint64_t k) {
  const auto add = [k](auto& to, const auto& from) {
    for (std::size_t i = 0; i < to.size(); ++i) to[i] += k * (to[i] - from[i]);
  };
  add(p.slots, base.slots);
  for (std::size_t b = 0; b < p.block_slots.size(); ++b) add(p.block_slots[b], base.block_slots[b]);
  add(p.issued_by_opcode, base.issued_by_opcode);
  add(p.stall_by_opcode, base.stall_by_opcode);
  add(p.occupancy, base.occupancy);
}

}  // namespace

// The function lowered once per run: ops in layout order with empty blocks
// folded away and a kEnd sentinel last, plus the initial register file.
// Slots: ints [0, num_ints), fps [num_ints, num_ints + num_fps), then the
// dummy, the sink and one constant slot per immediate operand.  The
// fast-forward buffers live here too, so a run allocates them once.
struct Simulator::Program {
  Program(const Function& fn, const MachineModel& machine, const SimOptions& options);

  [[nodiscard]] std::uint32_t num_regs() const { return num_ints + num_fps; }
  [[nodiscard]] std::uint32_t* row(std::uint32_t head) {
    return snapshots.data() + static_cast<std::size_t>(head) * (kRowHeader + num_regs());
  }

  std::vector<DecodedOp> ops;
  std::vector<RegSlot> regs;
  std::uint32_t num_ints = 0;
  std::uint32_t num_fps = 0;
  std::uint32_t num_heads = 0;
  std::vector<std::uint32_t> snapshots;  // one row per loop head (snapshot())
  std::vector<ThreadedOp> code;           // at least the program's size, or the longest period
  std::vector<Undo> undo;
};

Simulator::Program::Program(const Function& fn, const MachineModel& machine,
                            const SimOptions& options)
    : num_ints(std::max<std::uint32_t>(fn.num_regs(RegClass::Int), 1)),
      num_fps(std::max<std::uint32_t>(fn.num_regs(RegClass::Fp), 1)) {
  const std::uint32_t dummy = num_ints + num_fps;
  const std::uint32_t sink = dummy + 1;

  // Per layout block: the op index of its first op (an empty block starts
  // where the next non-empty one does, or at the sentinel), and 1 + its loop
  // head index once a back edge targets it.
  struct BlockInfo {
    std::uint32_t start = 0;
    std::uint32_t head = 0;
  };
  const auto& blocks = fn.blocks();
  std::vector<BlockInfo> info(blocks.size());
  std::size_t n_ops = 0;
  std::size_t n_consts = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    info[b].start = static_cast<std::uint32_t>(n_ops);
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
      if (in.is_store()) d.flags |= kStore;
      if (in.op == Opcode::JUMP || in.is_branch()) {
        const std::size_t tb = fn.layout_index(in.target);
        d.target = info[tb].start;
        // A target block at or before this one starts at or before this op.
        if (tb <= b && num_heads < 0xffff) {
          if (info[tb].head == 0) info[tb].head = ++num_heads;
          d.head = static_cast<std::uint16_t>(info[tb].head - 1);
          d.flags |= kBackEdge;
        }
      }
      ops.push_back(d);
    }
  }
  DecodedOp end;
  end.s1 = end.s2 = dummy;
  end.dst = sink;
  end.flags = kEnd;
  ops.push_back(end);

  if (num_heads > 0) {
    snapshots.assign(static_cast<std::size_t>(num_heads) * (kRowHeader + num_regs()), kRowEmpty);
  }
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
  // exist only in the profiled instantiation.  `period_base` holds the
  // profile's counters at the start of the period being recorded.
  CycleProfile* prof = nullptr;
  std::vector<std::uint8_t> load_made;
  [[maybe_unused]] std::conditional_t<kProfile, CycleProfile, char> period_base{};
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
  const std::size_t store_window = static_cast<std::size_t>(std::max(width, 1)) *
                                   static_cast<std::size_t>(std::max(machine_.lat_store, 1));
  StoreQueue stores(store_window);

  std::uint32_t pc = 0;
  std::uint64_t cycle = 0;
  std::uint64_t instructions = 0;
  std::uint64_t branches = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t ff_instructions = 0;
  bool done = false;

  // Fast-forward state.  `entered` names the loop head the last cycle's
  // taken back edge entered; `recording` the head whose period is being
  // timed, with the counters at its start in `period`.  `store_wait` notes a
  // load that found an in-flight store to its address since then;
  // `load_in_flight` the stores in flight at the current load's first
  // examination (no store issues while it waits, so the most of any).
  constexpr std::uint32_t kNoHead = UINT32_MAX;
  const bool ff_enabled = prog.num_heads > 0 && store_window <= kMaxStoreWindow;
  std::uint32_t entered = kNoHead;
  std::uint32_t recording = kNoHead;
  Period period;
  std::array<std::uint64_t, kMaxPeriodControls / 64> path{};  // its control outcomes
  std::array<std::uint8_t, kMaxPeriodLoads> in_flight{};      // Period::in_flight
  bool store_wait = false;
  std::size_t load_in_flight = 0;

  auto fail = [&](std::string msg) {
    res.ok = false;
    res.error = std::move(msg);
    res.cycles = cycle;
    res.instructions = instructions;
    res.branches = branches;
    res.stall_cycles = stall_cycles;
    res.ff_instructions = ff_instructions;
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
      const auto addr =
          static_cast<std::int64_t>(regs[o.s1].val + static_cast<std::uint64_t>(o.imm));
      // A load also waits for the newest in-flight store to its address.
      const std::uint64_t* store_done = nullptr;
      if (o.flags & kLoad) {
        store_done = stores.newest(addr);
        if (store_done != nullptr) {
          ready_by = std::max(ready_by, *store_done);
          store_wait |= *store_done > cycle;
        }
        if (recording != kNoHead)
          load_in_flight = std::max(load_in_flight, stores.in_flight(cycle));
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

      // Operands as raw bits; ops without a destination write the sink.
      const std::uint64_t a = regs[o.s1].val;
      const std::uint64_t b = regs[o.s2].val;
      [[maybe_unused]] const auto ia = static_cast<std::int64_t>(a);
      [[maybe_unused]] const auto ib = static_cast<std::int64_t>(b);
      [[maybe_unused]] const std::int64_t imm = o.imm;
      const std::uint64_t done_at = cycle + static_cast<std::uint64_t>(o.lat);
      std::uint64_t v = 0;
      bool taken = false;
      switch (o.op) {
#define ILP_CASE(name, expr) \
  case Opcode::name: v = (expr); break;
        ILP_SIM_VALUE_OPS(ILP_CASE)
#undef ILP_CASE
#define ILP_CASE(name, cond) \
  case Opcode::name: taken = (cond); break;
        ILP_SIM_BRANCH_OPS(ILP_CASE)
#undef ILP_CASE
        case Opcode::IDIV:
        case Opcode::IREM:
          if (!divide(o.op == Opcode::IREM, a, b, v)) {
            fail("integer division by zero");
            return res;
          }
          break;
        case Opcode::FTOI:
          if (!fp_to_int(a, v)) {
            fail("ftoi out of range");
            return res;
          }
          break;
        case Opcode::LD:
        case Opcode::FLD: v = static_cast<std::uint64_t>(mem.load_int(addr)); break;
        case Opcode::ST:
        case Opcode::FST:
          mem.store_int(addr, ib);
          stores.push(cycle, addr, done_at);
          break;
        case Opcode::JUMP: taken = true; break;
        case Opcode::RET: done = true; break;
        case Opcode::NOP: break;
      }
      if ((o.flags & kLoad) && recording != kNoHead) {
        // Log the load into the period; one too long for the log rules its
        // head out.
        if (period.loads == kMaxPeriodLoads) {
          prog.row(recording)[0] = kRowTooLong;
          recording = kNoHead;
        } else {
          in_flight[period.loads++] = static_cast<std::uint8_t>(load_in_flight);
        }
        load_in_flight = 0;
      }
      regs[o.dst].val = v;
      regs[o.dst].ready = done_at;
      if constexpr (kProfile) load_made[o.dst] = (o.flags & kLoad) ? 1 : 0;

      if (o.flags & kControl) {
        ++branches_this_cycle;
        ++branches;
        if (done) break;
        if (recording != kNoHead) {
          // Likewise its outcome.
          if (period.controls == kMaxPeriodControls) {
            prog.row(recording)[0] = kRowTooLong;
            recording = kNoHead;
          } else {
            std::uint64_t& word = path[period.controls >> 6];
            const std::uint64_t bit = std::uint64_t{1} << (period.controls & 63);
            word = taken ? word | bit : word & ~bit;
            ++period.controls;
          }
        }
        if (taken) {
          if constexpr (kProfile) {
            // Slots squashed by the redirect land on the branch's own block,
            // recorded before pc moves to the target.
            cycle_cause = StallCause::BranchFetch;
            cause_block = o.block;
            cause_op = o.op;
          }
          if (o.flags & kBackEdge) entered = o.head;
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

    if (entered == kNoHead || !ff_enabled) continue;
    // A taken back edge ended the cycle: pc is loop head `h` and this cycle
    // starts with nothing of the last one pending — a snapshot point, unless
    // a store is still in flight or the issue trace still records.
    const std::uint32_t h = entered;
    entered = kNoHead;
    std::uint32_t* const row = prog.row(h);
    if (row[0] == kRowTooLong) continue;
    if (stores.in_flight(cycle) != 0 || (trace != nullptr && trace->size() < trace_limit)) {
      if (recording == h) recording = kNoHead;
      continue;
    }
    const bool same = snapshot<kProfile>(row, regs, load_made.data(), prog.num_regs(), cycle);
    // Control ops since the head's previous entry: what the next period's
    // path holds if it repeats the last iteration.
    const std::uint32_t controls = static_cast<std::uint32_t>(branches) - row[1];
    row[1] = static_cast<std::uint32_t>(branches);
    if (recording != h) {
      // The scoreboard repeated: time the next iteration as the period —
      // unless the last one would not fit the path log (an outer loop around
      // a long inner one).  An inner loop that repeats while an outer
      // period is being recorded takes over: it reached its steady state
      // and is still running, while the outer loop may be about to exit.
      if (same && controls <= kMaxPeriodControls) {
        recording = h;
        period = Period{pc, 0, 0, in_flight.data(), instructions, cycle, stall_cycles, branches};
        store_wait = false;
        if constexpr (kProfile) copy_counts(period_base, *prof);
      }
      continue;
    }
    recording = kNoHead;
    if (!same || store_wait) continue;

    // The period ended where it began: fast-forward the iterations that
    // repeat it, then resume timing at the start of the first that does not.
    period.instructions = instructions - period.instructions;
    period.cycles = cycle - period.cycles;
    period.stall_cycles = stall_cycles - period.stall_cycles;
    period.branches = branches - period.branches;
    if (prog.code.size() <= period.instructions) {
      // Usually one loop body: sized for the whole program once.
      const std::size_t n = std::max<std::size_t>(period.instructions + 1, prog.ops.size());
      prog.code.resize(n);
      prog.undo.resize(n);
    }
    const std::uint64_t k =
        fast_forward(ops, regs, prog.num_regs(), mem, period, path.data(), prog.code.data(),
                     prog.undo.data(), (max_instructions - instructions) / period.instructions);
    instructions += k * period.instructions;
    cycle += k * period.cycles;
    stall_cycles += k * period.stall_cycles;
    branches += k * period.branches;
    ff_instructions += k * period.instructions;
    if constexpr (kProfile) add_periods(*prof, period_base, k);
    // The scoreboard is the snapshot's, relative to the new cycle.
    const std::uint32_t* const rel_of = row + kRowHeader;
    for (std::uint32_t s = 0; s < prog.num_regs(); ++s) {
      regs[s].ready = cycle + (rel_of[s] & ~kLoadMade);
      if constexpr (kProfile) load_made[s] = (rel_of[s] & kLoadMade) != 0 ? 1 : 0;
    }
    stores.clear();
  }

  res.ok = true;
  res.instructions = instructions;
  res.branches = branches;
  res.stall_cycles = stall_cycles;
  res.ff_instructions = ff_instructions;
  res.regs.ints.resize(prog.num_ints);
  for (std::uint32_t i = 0; i < prog.num_ints; ++i)
    res.regs.ints[i] = static_cast<std::int64_t>(regs[i].val);
  res.regs.fps.resize(prog.num_fps);
  for (std::uint32_t i = 0; i < prog.num_fps; ++i)
    res.regs.fps[i] = as_fp(regs[prog.num_ints + i].val);
  return res;
}

#undef ILP_SIM_VALUE_OPS
#undef ILP_SIM_BRANCH_OPS

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
