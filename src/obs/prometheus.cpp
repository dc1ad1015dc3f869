#include "obs/prometheus.hpp"

#include <cinttypes>
#include <cstdio>

namespace ilp::obs::prom {

namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

void append_help_and_type(std::string& out, const std::string& name,
                          std::string_view help, const char* type) {
  if (!help.empty()) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out.append(help);
    out += '\n';
  }
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

std::string sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name.front() >= '0' && name.front() <= '9')) out += '_';
  for (const char c : name) out += name_char_ok(c) ? c : '_';
  return out;
}

void append_counter(std::string& out, std::string_view name, std::uint64_t value,
                    std::string_view help) {
  const std::string n = sanitize_name(name);
  append_help_and_type(out, n, help, "counter");
  char buf[32];
  std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", value);
  out += n;
  out += buf;
}

void append_gauge(std::string& out, std::string_view name, double value,
                  std::string_view help) {
  const std::string n = sanitize_name(name);
  append_help_and_type(out, n, help, "gauge");
  out += n;
  out += ' ';
  append_double(out, value);
  out += '\n';
}

namespace {

void append_sample_head(std::string& out, std::string_view name,
                        std::string_view label, std::string_view label_value) {
  out += sanitize_name(name);
  out += '{';
  out += sanitize_name(label);
  out += "=\"";
  for (const char c : label_value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += "\"} ";
}

}  // namespace

void begin_counter_family(std::string& out, std::string_view name,
                          std::string_view help) {
  append_help_and_type(out, sanitize_name(name), help, "counter");
}

void begin_gauge_family(std::string& out, std::string_view name,
                        std::string_view help) {
  append_help_and_type(out, sanitize_name(name), help, "gauge");
}

void append_counter_sample(std::string& out, std::string_view name,
                           std::string_view label, std::string_view label_value,
                           std::uint64_t value) {
  append_sample_head(out, name, label, label_value);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 "\n", value);
  out += buf;
}

void append_gauge_sample(std::string& out, std::string_view name,
                         std::string_view label, std::string_view label_value,
                         double value) {
  append_sample_head(out, name, label, label_value);
  append_double(out, value);
  out += '\n';
}

void append_histogram(std::string& out, std::string_view name,
                      const Histogram::Snapshot& snap, double scale,
                      std::string_view help) {
  const std::string n = sanitize_name(name);
  append_help_and_type(out, n, help, "histogram");
  std::uint64_t cumulative = 0;
  char buf[32];
  for (const auto& [upper, count] : snap.buckets) {
    cumulative += count;
    out += n;
    out += "_bucket{le=\"";
    append_double(out, static_cast<double>(upper) * scale);
    out += "\"} ";
    std::snprintf(buf, sizeof buf, "%" PRIu64 "\n", cumulative);
    out += buf;
  }
  out += n;
  out += "_bucket{le=\"+Inf\"} ";
  std::snprintf(buf, sizeof buf, "%" PRIu64 "\n", snap.count);
  out += buf;
  out += n;
  out += "_sum ";
  append_double(out, static_cast<double>(snap.sum) * scale);
  out += '\n';
  out += n;
  out += "_count ";
  std::snprintf(buf, sizeof buf, "%" PRIu64 "\n", snap.count);
  out += buf;
}

}  // namespace ilp::obs::prom
