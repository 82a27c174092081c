#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace bench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int Tracer::begin(std::string name, std::string key) {
  Span s;
  s.name = std::move(name);
  s.key = std::move(key);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           epoch_)
          .count();
  // Spans close in LIFO order on their one thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  // Children of one parent never overlap (one thread, LIFO), so the covered
  // part of a span is the sum of its children's durations.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered[i]) / 1e6;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    snake::obs::JsonWriter w;
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start_ns").value(static_cast<std::int64_t>(s.start_ns));
    w.key("end_ns").value(static_cast<std::int64_t>(s.end_ns));
    w.key("parent").value(s.parent);
    w.key("key").value(s.key);
    w.end_object();
    const std::string line = w.take() + "\n";
    std::fwrite(line.data(), 1, line.size(), f);
  }
  return std::fclose(f) == 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace bench
