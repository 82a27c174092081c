// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, trial key). Spans are opened and
// closed on one thread (the campaign's coordinating thread, or the replay
// loop), so the open-span stack gives each new span its parent. Everything
// stays in memory until write_jsonl() at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  std::string key;  ///< canonical strategy key when the span serves one trial
};

class Tracer {
 public:
  Tracer();

  int begin(std::string name, std::string key = {});
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every closed span called `name`, in opening order.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Self time per span name: each span's duration minus the part of it that
  /// its child spans cover, summed over spans of that name.
  std::map<std::string, double> self_ms_by_name() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, key.
  bool write_jsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; a null tracer
/// makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string key = {})
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), std::move(key)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

double median(std::vector<double> values);

}  // namespace bench
