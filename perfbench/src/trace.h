// In-memory span recorder of the benchmark's traced runs. Spans are opened
// around the benchmark's own calls into the library's public entry points;
// each records its name, start, end and parent. Nothing is written until
// the run ends. A disabled tracer records nothing and reads no clock.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Closes its span when it goes out of scope. Spans nest: a span opened
  /// while another is open becomes its child.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Per span name: call count, total duration and total self time (the
  /// duration minus the time covered by child spans).
  struct Totals {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    double MeanNs() const { return count ? total_ns / static_cast<double>(count) : 0; }
    double MeanSelfNs() const { return count ? self_ns / static_cast<double>(count) : 0; }
  };
  std::map<std::string, Totals> Summarize() const;

  /// Writes every span as one JSON object per line; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int64_t parent;  ///< index of the enclosing span, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled_;
  std::vector<Record> spans_;
  std::vector<int64_t> open_;  ///< indices of the open spans, innermost last
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
