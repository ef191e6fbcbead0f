#include "tracer.h"

#include <cstdio>
#include <stdexcept>

#include "common.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, uint32_t trace_id) {
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("Tracer: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

std::map<std::string, int64_t> Tracer::SelfNs(uint32_t first,
                                              uint32_t last) const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].trace_id >= first && spans_[i].trace_id < last) {
      out[spans_[i].name] += self[i];
    }
  }
  return out;
}

int64_t Tracer::TotalNs(const std::string& name, uint32_t first,
                        uint32_t last) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.trace_id >= first && span.trace_id < last && name == span.name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return total;
}

std::map<uint32_t, int64_t> Tracer::DurationsByTrace(
    const std::string& name) const {
  std::map<uint32_t, int64_t> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.emplace(span.trace_id, span.end_ns - span.start_ns);
    }
  }
  return out;
}

std::string Tracer::ChromeJson(
    const std::map<std::string, std::map<uint32_t, double>>& counters,
    const std::string& other_data_json) const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::map<uint32_t, int64_t> trace_start;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    trace_start.emplace(span.trace_id, span.start_ns);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"epoch\":%u,\"span\":%zu,\"parent\":%d}}",
                  first ? "" : ",\n", span.name,
                  static_cast<int>(std::string(span.name).find('.')),
                  span.name, static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  span.trace_id, i, span.parent);
    out += buf;
    first = false;
  }
  for (const auto& [name, series] : counters) {
    for (const auto& [trace_id, value] : series) {
      const auto it = trace_start.find(trace_id);
      const int64_t ts = it == trace_start.end() ? origin : it->second;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                    "\"args\":{\"value\":%.17g}}",
                    first ? "" : ",\n", name.c_str(),
                    static_cast<double>(ts - origin) / 1e3, value);
      out += buf;
      first = false;
    }
  }
  out += "\n],\"otherData\":";
  out += other_data_json;
  out += "}\n";
  return out;
}

}  // namespace perfbench
