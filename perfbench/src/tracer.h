// In-memory span recorder for the traced pass. Spans are recorded by the
// benchmark around its own calls into the PrivApprox public API — nothing
// inside the library is instrumented. Each span has a name, start, end and
// parent; the epoch number is the trace id. Spans stay in memory until the
// run ends, then reduce to self time per name and serialize as
// chrome://tracing JSON.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    uint32_t trace_id = 0;
    int32_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // Opens a span whose parent is the innermost span still open (none = a
  // root span). Returns its index.
  int32_t Begin(const char* name, uint32_t trace_id);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time (duration minus the part covered by child spans) summed per
  // span name over spans whose trace id lies in [first, last).
  std::map<std::string, int64_t> SelfNs(uint32_t first, uint32_t last) const;
  // Total duration of spans named `name` with trace ids in [first, last).
  int64_t TotalNs(const std::string& name, uint32_t first,
                  uint32_t last) const;
  // Duration of the (first) span named `name` per trace id.
  std::map<uint32_t, int64_t> DurationsByTrace(const std::string& name) const;

  // chrome://tracing "JSON object format": one complete ("X") event per
  // span, counter ("C") events for `counters` (name -> per-trace-id value,
  // placed at the start of that trace's first span), and `other_data_json`
  // (a JSON object) under "otherData".
  std::string ChromeJson(
      const std::map<std::string, std::map<uint32_t, double>>& counters,
      const std::string& other_data_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t trace_id)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, trace_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
