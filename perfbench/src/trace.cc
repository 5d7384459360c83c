#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  const int64_t parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->open_.push_back(static_cast<int64_t>(tracer_->spans_.size()));
  tracer_->spans_.push_back(Record{name, parent, NowNs(), 0});
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(tracer_->open_.back())].end_ns = NowNs();
  tracer_->open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    t.self_ns += self[i];
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, r.name, static_cast<long long>(r.parent),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
