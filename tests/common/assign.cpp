#include "common/assign.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/liveness.hpp"
#include "ir/reg.hpp"
#include "support/assert.hpp"

namespace ilp {

namespace {

struct Node {
  Reg reg;
  std::vector<std::uint32_t> adj;  // RegKey keys
  double spill_cost = 0.0;
  bool no_spill = false;  // spill temporaries must not respill
  int color = -1;
};

class Allocator {
 public:
  Allocator(Function& fn, const AssignOptions& opts) : fn_(fn), opts_(opts) {}

  AssignResult run() {
    AssignResult res;
    // Register the spill area once so spill memory ops carry an alias id
    // distinct from every program array.
    spill_array_ = fn_.find_array("__spill");
    if (spill_array_ < 0)
      spill_array_ = fn_.add_array(ArrayInfo{"__spill", opts_.spill_base, 8, 0, false});

    for (int round = 0; round < 16; ++round) {
      ++res.rounds;
      std::vector<Reg> to_spill;
      const bool colored = try_color(to_spill);
      if (colored) {
        rewrite();
        res.ok = true;
        res.spill_slots = next_slot_;
        return res;
      }
      if (to_spill.empty()) return res;  // k too small even for temporaries
      for (const Reg& v : to_spill) {
        spill(v);
        if (v.cls == RegClass::Int)
          ++res.spilled_int;
        else
          ++res.spilled_fp;
      }
    }
    return res;  // did not converge
  }

 private:
  [[nodiscard]] int k_for(RegClass c) const {
    return c == RegClass::Int ? opts_.int_regs : opts_.fp_regs;
  }

  // Builds the interference graph and attempts a Chaitin coloring of both
  // classes.  On failure, fills `to_spill` with the chosen victims.
  bool try_color(std::vector<Reg>& to_spill) {
    const Cfg cfg(fn_);
    const Liveness live(cfg);
    nodes_.clear();
    index_.assign(live.universe_size(), -1);

    auto node_of = [&](const Reg& r) -> Node& {
      const std::size_t key = RegKey::key(r);
      if (index_[key] < 0) {
        index_[key] = static_cast<int>(nodes_.size());
        Node n;
        n.reg = r;
        n.no_spill = no_spill_.count(r) > 0;
        nodes_.push_back(std::move(n));
      }
      return nodes_[static_cast<std::size_t>(index_[key])];
    };
    auto add_edge = [&](const Reg& a, std::size_t bkey) {
      Node& na = node_of(a);
      const auto bu = static_cast<std::uint32_t>(bkey);
      if (std::find(na.adj.begin(), na.adj.end(), bu) == na.adj.end()) {
        na.adj.push_back(bu);
        const Reg b{(bkey & 1) ? RegClass::Fp : RegClass::Int,
                    static_cast<std::uint32_t>(bkey >> 1)};
        node_of(b).adj.push_back(static_cast<std::uint32_t>(RegKey::key(a)));
      }
    };

    std::vector<BitVector> after;
    for (const Block& b : fn_.blocks()) {
      live.live_after_all_into(b.id, after);
      for (std::size_t i = 0; i < b.insts.size(); ++i) {
        const Instruction& in = b.insts[i];
        // Count occurrences for spill costs (all operands).
        if (in.src1.valid()) node_of(in.src1).spill_cost += 1.0;
        if (in.src2.valid() && !in.src2_is_imm) node_of(in.src2).spill_cost += 1.0;
        if (!in.has_dest()) continue;
        Node& d = node_of(in.dst);
        d.spill_cost += 1.0;
        const std::size_t dkey = RegKey::key(in.dst);
        after[i].for_each_set([&](std::size_t key) {
          if (key != dkey && (key & 1) == (dkey & 1)) add_edge(in.dst, key);
        });
      }
    }
    // Entry live-ins coexist.
    std::vector<std::size_t> ins;
    live.live_in(cfg.entry()).for_each_set([&](std::size_t k) { ins.push_back(k); });
    for (std::size_t i = 0; i < ins.size(); ++i)
      for (std::size_t j = i + 1; j < ins.size(); ++j)
        if ((ins[i] & 1) == (ins[j] & 1)) {
          const Reg a{(ins[i] & 1) ? RegClass::Fp : RegClass::Int,
                      static_cast<std::uint32_t>(ins[i] >> 1)};
          add_edge(a, ins[j]);
        }

    // ---- Chaitin simplify/select with optimistic coloring. ----
    const std::size_t n = nodes_.size();
    std::vector<int> degree(n);
    std::vector<bool> removed(n, false);
    for (std::size_t i = 0; i < n; ++i) degree[i] = static_cast<int>(nodes_[i].adj.size());

    std::vector<std::size_t> stack;
    stack.reserve(n);
    std::size_t left = n;
    while (left > 0) {
      bool simplified = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (removed[i]) continue;
        if (degree[i] < k_for(nodes_[i].reg.cls)) {
          push_node(i, stack, removed, degree);
          --left;
          simplified = true;
        }
      }
      if (simplified) continue;
      // Blocked: pick the cheapest spill candidate and push optimistically.
      // If only no-spill temporaries remain, push one of those anyway —
      // "no-spill" bars respilling, not optimistic coloring; their tiny live
      // ranges almost always color at select time.
      std::size_t best = SIZE_MAX;
      double best_ratio = 0.0;
      for (int pass = 0; pass < 2 && best == SIZE_MAX; ++pass) {
        for (std::size_t i = 0; i < n; ++i) {
          if (removed[i]) continue;
          if (pass == 0 && nodes_[i].no_spill) continue;
          const double ratio =
              nodes_[i].spill_cost / (static_cast<double>(degree[i]) + 1.0);
          if (best == SIZE_MAX || ratio < best_ratio) {
            best = i;
            best_ratio = ratio;
          }
        }
      }
      ILP_ASSERT(best != SIZE_MAX, "blocked with no removable nodes");
      push_node(best, stack, removed, degree);
      --left;
    }

    // Select in reverse order.
    bool ok = true;
    for (std::size_t s = stack.size(); s-- > 0;) {
      Node& node = nodes_[stack[s]];
      std::vector<bool> used(static_cast<std::size_t>(k_for(node.reg.cls)), false);
      for (std::uint32_t akey : node.adj) {
        const int ai = index_[akey];
        if (ai < 0) continue;
        const int c = nodes_[static_cast<std::size_t>(ai)].color;
        if (c >= 0 && c < k_for(node.reg.cls)) used[static_cast<std::size_t>(c)] = true;
      }
      int c = 0;
      while (c < k_for(node.reg.cls) && used[static_cast<std::size_t>(c)]) ++c;
      if (c == k_for(node.reg.cls)) {
        node.color = -1;
        if (!node.no_spill) to_spill.push_back(node.reg);
        ok = false;
      } else {
        node.color = c;
      }
    }
    return ok;
  }

  static void push_node(std::size_t i, std::vector<std::size_t>& stack,
                        std::vector<bool>& removed, std::vector<int>& degree) {
    removed[i] = true;
    stack.push_back(i);
    (void)degree;
  }

  // NOTE: degrees are not decremented on removal above, making simplify more
  // conservative than classic Chaitin (a node's degree counts removed
  // neighbors).  Optimistic select compensates: removed neighbors that end
  // up with different colors still leave room.  This trades a little color
  // quality for simplicity; the spill loop guarantees progress either way.

  void spill(const Reg& v) {
    const std::int64_t addr = opts_.spill_base + 8 * next_slot_++;
    const bool fp = v.cls == RegClass::Fp;
    for (Block& b : fn_.blocks()) {
      std::vector<Instruction> out;
      out.reserve(b.insts.size() + 4);
      for (const Instruction& in : b.insts) {
        Instruction cur = in;
        // Loads before uses: fresh temporary per use.
        if (cur.reads(v)) {
          const Reg base = fn_.new_int_reg();
          const Reg tmp = fn_.new_reg(v.cls);
          no_spill_.insert(base);
          no_spill_.insert(tmp);
          out.push_back(make_ldi(base, 0));
          out.push_back(make_load(fp ? Opcode::FLD : Opcode::LD, tmp, base, addr,
                                  spill_array_));
          cur.replace_uses(v, tmp);
        }
        if (cur.writes(v)) {
          // Def goes to a fresh temporary, stored right after.
          const Reg tmp = fn_.new_reg(v.cls);
          const Reg base = fn_.new_int_reg();
          no_spill_.insert(tmp);
          no_spill_.insert(base);
          cur.dst = tmp;
          out.push_back(cur);
          out.push_back(make_ldi(base, 0));
          out.push_back(make_store(fp ? Opcode::FST : Opcode::ST, base, addr, tmp,
                                   spill_array_));
          continue;
        }
        out.push_back(cur);
      }
      b.insts = std::move(out);
    }
    // A spilled live-out register must still be observable: reload it into a
    // dedicated temporary right before RET.
    for (Reg& lo : live_out_mut()) {
      if (lo != v) continue;
      for (Block& b : fn_.blocks()) {
        for (std::size_t i = 0; i < b.insts.size(); ++i) {
          if (b.insts[i].op != Opcode::RET) continue;
          const Reg base = fn_.new_int_reg();
          const Reg tmp = fn_.new_reg(v.cls);
          no_spill_.insert(base);
          no_spill_.insert(tmp);
          Instruction l1 = make_ldi(base, 0);
          Instruction l2 =
              make_load(fp ? Opcode::FLD : Opcode::LD, tmp, base, addr, spill_array_);
          b.insts.insert(b.insts.begin() + static_cast<std::ptrdiff_t>(i), {l1, l2});
          i += 2;
          lo = tmp;
        }
      }
    }
    fn_.set_live_out(live_out_mut());  // keep liveness (RET uses) in sync
    fn_.renumber();
  }

  // Function::live_out is const-accessed; rebuild it through the public API.
  std::vector<Reg>& live_out_mut() {
    // Function keeps live-outs in a private vector; expose via copy-rewrite.
    if (!live_out_cache_initialized_) {
      live_out_cache_ = fn_.live_out();
      live_out_cache_initialized_ = true;
    }
    return live_out_cache_;
  }

  void rewrite() {
    auto map_reg = [&](Reg& r) {
      if (!r.valid()) return;
      const int i = index_[RegKey::key(r)];
      if (i < 0) return;  // never-touched register
      const int c = nodes_[static_cast<std::size_t>(i)].color;
      ILP_ASSERT(c >= 0, "uncolored register survived to rewrite");
      r.id = static_cast<std::uint32_t>(c);
    };
    for (Block& b : fn_.blocks())
      for (Instruction& in : b.insts) {
        if (in.has_dest()) map_reg(in.dst);
        map_reg(in.src1);
        if (!in.src2_is_imm) map_reg(in.src2);
      }
    std::vector<Reg> lo = live_out_mut();
    for (Reg& r : lo) map_reg(r);
    fn_.set_live_out(std::move(lo));
    // Shrink the register counters to the physical file size so the
    // simulator's register state is compact.
    fn_.reset_reg_counters(static_cast<std::uint32_t>(opts_.int_regs),
                           static_cast<std::uint32_t>(opts_.fp_regs));
    fn_.renumber();
  }

  Function& fn_;
  AssignOptions opts_;
  std::int32_t spill_array_ = -1;
  int next_slot_ = 0;
  std::vector<Node> nodes_;
  std::vector<int> index_;
  std::unordered_set<Reg, RegHash> no_spill_;
  std::vector<Reg> live_out_cache_;
  bool live_out_cache_initialized_ = false;
};

}  // namespace

AssignResult assign_registers(Function& fn, const AssignOptions& opts) {
  Allocator a(fn, opts);
  return a.run();
}

}  // namespace ilp
