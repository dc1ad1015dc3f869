#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void print_series(const char* what, const std::vector<double>& v) {
  std::string out = std::string("# ") + what + " [";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  std::printf("%s]\n", out.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double gmean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

int Spans::open(const char* name, int parent, std::uint64_t id) {
  spans_.push_back({name, parent, id, now_ns(), 0, 0});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::add(const char* name, int parent, std::uint64_t id, std::uint64_t start_ns,
                std::uint64_t end_ns, int tid) {
  spans_.push_back({name, parent, id, start_ns, end_ns, tid});
}

std::uint64_t Spans::total_ns(const char* name) const {
  std::uint64_t sum = 0;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name) sum += s.end_ns - s.start_ns;
  return sum;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id), i, s.parent);
    out << buf;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

namespace {

// A fixed integer kernel: the same instruction stream on every run, so its
// time tracks how fast this host runs plain CPU work right now.
double time_cpu_kernel_ms() {
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  const std::uint64_t t1 = now_ns();
  volatile std::uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace

CpuTicks CpuTicks::now() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (stat >> cpu && cpu == "cpu") {
    // user nice system idle iowait irq softirq steal
    std::uint64_t v[8] = {};
    for (auto& x : v) stat >> x;
    for (auto x : v) t.total += x;
    t.steal = v[7];
  }
  return t;
}

HostSample sample_host() {
  HostSample s;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &s.loadavg1) != 1) s.loadavg1 = 0.0;
    std::fclose(f);
  }
  s.ticks = CpuTicks::now();
  s.kernel_ms = time_cpu_kernel_ms();
  return s;
}

std::string host_record_json(const HostSample& a, const HostSample& b) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"loadavg1_start\": %.2f, \"loadavg1_end\": %.2f, "
                "\"steal_ticks\": %llu, \"total_ticks\": %llu, "
                "\"cpu_kernel_ms_start\": %.3f, \"cpu_kernel_ms_end\": %.3f}",
                std::thread::hardware_concurrency(), a.loadavg1, b.loadavg1,
                static_cast<unsigned long long>(b.ticks.steal - a.ticks.steal),
                static_cast<unsigned long long>(b.ticks.total - a.ticks.total), a.kernel_ms,
                b.kernel_ms);
  return buf;
}

}  // namespace perfbench
