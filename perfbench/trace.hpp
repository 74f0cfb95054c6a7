// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around each call into
// a library layer (the library itself is not instrumented). A span holds
// its name, start, end, the index of the span that was open when it began
// (its parent), and an operation id shared by the spans of one job. They
// are kept in memory and written out once, when the run ends.
//
// When the tracer is disabled, Span does nothing but one branch, so the
// untraced runs that produce the end-to-end numbers pay nothing for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< Index into records(), -1 for a root span.
    std::int64_t op;
  };

  /// Self time and call count of one span name.
  struct Layer {
    int calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Operation id stamped on spans opened from now on (-1 = none).
  void set_op(std::int64_t op) { op_ = op; }

  int open(const char* name) {
    records_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(), op_});
    open_.push_back(static_cast<int>(records_.size()) - 1);
    return open_.back();
  }

  void close(int index) {
    records_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Record>& records() const { return records_; }

  double seconds(const Record& r) const { return (r.end_ns - r.start_ns) * 1e-9; }

  /// Per-name self time over the spans below `root` (the root excluded;
  /// root = -1 takes every span). A span's self time is its duration minus
  /// the time its direct children cover.
  std::map<std::string, Layer> layers(int root = -1) const {
    std::vector<double> child_s(records_.size(), 0.0);
    for (const Record& r : records_) {
      if (r.parent >= 0) child_s[static_cast<std::size_t>(r.parent)] += seconds(r);
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (root >= 0 && !descends_from(static_cast<int>(i), root)) continue;
      Layer& layer = out[records_[i].name];
      ++layer.calls;
      layer.total_s += seconds(records_[i]);
      layer.self_s += seconds(records_[i]) - child_s[i];
    }
    return out;
  }

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"op\":%lld}\n",
                   i, r.name, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns), r.parent,
                   static_cast<long long>(r.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool descends_from(int index, int root) const {
    for (int p = records_[static_cast<std::size_t>(index)].parent; p >= 0;
         p = records_[static_cast<std::size_t>(p)].parent) {
      if (p == root) return true;
    }
    return false;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::int64_t op_ = -1;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
