// snake_campaign_bench: runs one repetition of one benchmark workload and
// prints its raw measurements as one JSON object on the last stdout line.
// run.py drives it (repetitions, deadlines, medians, correctness gate); by
// hand:
//
//   snake_campaign_bench --workload tcp-bulk --seed 1 --mode plain --workdir DIR
//   trace_gen --flows 12 --seed 1 --duration 6 > DIR/seed1.trace
//   snake_campaign_bench --workload tcp-bulk --seed 1 --mode traced \
//       --workdir DIR --trace-file DIR/seed1.trace --spans DIR/spans.jsonl
//
// A repetition is three phases:
//   1. the campaign itself, timed end to end (wall, CPU, peak RSS);
//   2. set-up probes: the same campaign capped at one strategy, timed from
//      its start to its first dispatched trial, several times;
//   3. the resume phase: the finished campaign re-run in-process against a
//      result cache that holds every verdict of phase 1, several times. The
//      harness writes phase 1's records into that cache between the phases.
// --mode traced additionally wraps the backend and cache in span-recording
// decorators, counts allocations, and replays a sample of committed trials
// through the layers' public functions (replay.cpp). The traced replay also
// times the trace parser and planner on --trace-file.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "alloc_count.h"
#include "dist/result_cache.h"
#include "obs/json.h"
#include "replay.h"
#include "snake/trial_runner.h"
#include "spans.h"
#include "tcp/profile.h"
#include "workload.h"

using namespace snake;
using namespace snake::core;

namespace bench {
namespace {

// Strategy budgets (0 = the whole universe) and virtual durations. Each
// campaign takes 2-6 s of wall time at three executors on a 4-core x86 box,
// short enough for several repetitions per benchmark run. A capped grid
// campaign tries a seed-shuffled sample of its universe, so the grid
// workloads run the whole universe: that keeps the cost from varying with
// the seed.
const WorkloadSpec kWorkloads[] = {
    {"tcp-bulk", Protocol::kTcp, "linux-3.13", false, false, 0, 1.0},
    {"tcp-sack", Protocol::kTcp, "sack-rfc2018", false, false, 0, 1.0},
    {"dccp-greybox", Protocol::kDccp, "", true, true, 2048, 1.0},
};

// Set-up probes and resume-phase runs inside one benchmark repetition.
constexpr int kSetupRepeats = 5;
constexpr int kResumeRepeats = 6;

/// Executor threads: one core fewer than the machine has, at most three, so
/// the executors and the coordinating thread never outnumber the cores.
int executor_count() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 1, 3);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t scenario_seed(std::uint64_t bench_seed) {
  return 1 + splitmix64(bench_seed) % 1000000;
}

CampaignConfig make_config(const WorkloadSpec& spec, std::uint64_t seed, int executors) {
  CampaignConfig config;
  config.scenario.protocol = spec.protocol;
  if (spec.protocol == Protocol::kTcp)
    for (const tcp::TcpProfile& p : tcp::all_tcp_profiles())
      if (p.name == spec.tcp_profile) config.scenario.tcp_profile = p;
  config.scenario.test_duration = Duration::seconds(spec.duration_s);
  config.scenario.seed = seed;
  // The generator choice and sweep cap bench_campaign uses.
  config.generator = spec.protocol != Protocol::kTcp        ? strategy::dccp_generator_config()
                     : config.scenario.tcp_profile.sack ? strategy::tcp_sack_generator_config()
                                                        : strategy::tcp_generator_config();
  config.generator.hitseq_max_packets = 4000;
  if (spec.enlarged_space) {
    config.generator.drop_probabilities = {100.0, 75.0, 50.0, 25.0, 12.5};
    config.generator.duplicate_counts = {1, 2, 5, 10, 32};
    config.generator.delay_seconds = {0.05, 0.1, 0.5, 1.0, 3.0};
    config.generator.batch_seconds = {0.5, 2.0, 4.0};
  }
  config.search_mode = spec.greybox ? search::SearchMode::kGreybox : search::SearchMode::kGrid;
  config.executors = executors;
  config.max_strategies = spec.strategies;
  return config;
}

using Clock = std::chrono::steady_clock;

/// Forwards to the real backend, keeps every dispatched strategy and returned
/// record and the time of the first dispatch, and (traced runs) wraps each
/// interface call in a span.
class RecordingBackend : public TrialBackend {
 public:
  RecordingBackend(TrialBackend& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  bool start(const CampaignConfig& config, const RunMetrics& baseline,
             const RunMetrics& retest_baseline) override {
    ScopedSpan span(tracer_, "backend.start");
    return inner_.start(config, baseline, retest_baseline);
  }
  std::size_t capacity() const override { return inner_.capacity(); }
  void submit(TrialTask task) override {
    ScopedSpan span(tracer_, "backend.submit",
                    tracer_ != nullptr ? strategy::canonical_key(task.strat) : std::string());
    if (!first_submit_.has_value()) first_submit_ = Clock::now();
    submitted_.emplace(task.seq, task.strat);
    inner_.submit(std::move(task));
  }
  TrialOutcome wait_outcome() override {
    const int id = tracer_ != nullptr ? tracer_->begin("backend.wait_outcome") : -1;
    TrialOutcome out = inner_.wait_outcome();
    if (tracer_ != nullptr) tracer_->end(id);
    auto it = submitted_.find(out.seq);
    if (it != submitted_.end()) {
      trials_.push_back(CommittedTrial{out.seq, std::move(it->second), out.record});
      submitted_.erase(it);
    }
    return out;
  }
  void on_feedback(const std::vector<JournalObservation>& pairs) override {
    ScopedSpan span(tracer_, "backend.on_feedback");
    inner_.on_feedback(pairs);
  }
  void finish(obs::MetricsRegistry* into) override {
    ScopedSpan span(tracer_, "backend.finish");
    inner_.finish(into);
  }

  /// When the campaign dispatched its first trial, if it did.
  std::optional<Clock::time_point> first_submit() const { return first_submit_; }

  /// Live trials in dispatch order.
  std::vector<CommittedTrial> take_trials() {
    std::sort(trials_.begin(), trials_.end(),
              [](const CommittedTrial& a, const CommittedTrial& b) { return a.seq < b.seq; });
    return std::move(trials_);
  }

 private:
  TrialBackend& inner_;
  Tracer* tracer_;
  std::map<std::uint64_t, strategy::Strategy> submitted_;
  std::vector<CommittedTrial> trials_;
  std::optional<Clock::time_point> first_submit_;
};

/// Span-recording TrialCache decorator (traced runs).
class TracedCache : public TrialCache {
 public:
  TracedCache(TrialCache& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}
  const TrialRecord* lookup(const std::string& key) override {
    ScopedSpan span(tracer_, "cache.lookup", key);
    return inner_.lookup(key);
  }
  void store(const TrialRecord& record) override {
    ScopedSpan span(tracer_, "cache.store", record.key);
    inner_.store(record);
  }

 private:
  TrialCache& inner_;
  Tracer* tracer_;
};

double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage ru {};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  }
  return total;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t counter(const obs::MetricsRegistry& reg, const char* name) {
  auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second;
}

const obs::Histogram* histogram(const obs::MetricsRegistry& reg, const char* name) {
  auto it = reg.histograms().find(name);
  return it == reg.histograms().end() || it->second.count == 0 ? nullptr : &it->second;
}

/// Bucket-interpolated quantile of a registry histogram (bench_campaign's
/// estimator); the +inf tail is pinned to the observed maximum.
double histogram_quantile(const obs::Histogram& h, double q) {
  const double target = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  double lo = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double hi = i < h.bounds.size() ? std::min(h.bounds[i], h.max) : h.max;
    if (static_cast<double>(cum + h.counts[i]) >= target && h.counts[i] > 0) {
      const double frac = (target - static_cast<double>(cum)) / static_cast<double>(h.counts[i]);
      return lo + frac * (std::max(hi, lo) - lo);
    }
    cum += h.counts[i];
    lo = std::max(hi, lo);
  }
  return h.max;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// What the correctness gate compares: found canonical keys with their
/// signatures, sorted.
std::vector<std::pair<std::string, std::string>> found_list(const CampaignResult& r) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const StrategyOutcome& o : r.found)
    out.emplace_back(strategy::canonical_key(o.strat), o.signature);
  std::sort(out.begin(), out.end());
  return out;
}

int usage(const char* argv0, const char* problem) {
  if (problem != nullptr) std::fprintf(stderr, "%s: %s\n", argv0, problem);
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --mode plain|traced --workdir DIR\n"
               "          [--trace-file PATH] [--spans PATH] [--strategies N]\n"
               "--mode traced needs --trace-file.\n"
               "workloads:",
               argv0);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::optional<std::uint64_t> seed;
  std::string mode;
  std::string workdir;
  std::string trace_path;
  std::string spans_path;
  std::optional<std::uint64_t> strategies;  // overrides the workload's budget (0 = whole universe)
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") return usage(argv[0], nullptr), 0;
    if (i + 1 >= argc) return usage(argv[0], ("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads)
        if (value == w.name) spec = &w;
      if (spec == nullptr) return usage(argv[0], ("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage(argv[0], "--seed wants an integer");
    } else if (flag == "--mode") {
      if (value != "plain" && value != "traced") return usage(argv[0], "--mode wants plain|traced");
      mode = value;
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--trace-file") {
      trace_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--strategies") {
      strategies = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return usage(argv[0], ("unknown flag " + flag).c_str());
    }
  }
  if (spec == nullptr || !seed.has_value() || mode.empty() || workdir.empty())
    return usage(argv[0], "--workload, --seed, --mode and --workdir are required");
  const bool traced = mode == "traced";
  if (traced && trace_path.empty()) return usage(argv[0], "--mode traced needs --trace-file");
  std::string trace_text;
  if (traced) {
    std::ifstream in(trace_path);
    if (!in) return usage(argv[0], ("cannot read " + trace_path).c_str());
    std::ostringstream text;
    text << in.rdbuf();
    trace_text = text.str();
  }
  std::filesystem::create_directories(workdir);
  const std::string cache_path = workdir + "/results.jsonl";
  std::filesystem::remove(cache_path);

  const int executors = executor_count();
  const std::uint64_t campaign_seed = scenario_seed(*seed);
  CampaignConfig config = make_config(*spec, campaign_seed, executors);
  if (strategies.has_value()) config.max_strategies = *strategies;
  const std::uint64_t identity = campaign_identity_hash(config);

  std::unique_ptr<Tracer> tracer = traced ? std::make_unique<Tracer>() : nullptr;
  ThreadBackend threads(executors);
  RecordingBackend backend(threads, tracer.get());
  config.backend = &backend;

  // ---- Phase 1: the campaign.
  const AllocCounts allocs_before = alloc_counts();
  if (traced) set_alloc_counting(true);
  const double cpu0 = cpu_seconds();
  const int campaign_span = tracer != nullptr ? tracer->begin("campaign") : -1;
  const Clock::time_point t0 = Clock::now();
  CampaignResult result = run_campaign(config);
  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) tracer->end(campaign_span);
  const double cpu1 = cpu_seconds();
  set_alloc_counting(false);
  const AllocCounts allocs_after = alloc_counts();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  const double rss_mib = peak_rss_mib();
  std::vector<double> setup_s = {
      std::chrono::duration<double>(backend.first_submit().value_or(t1) - t0).count()};
  std::vector<CommittedTrial> trials = backend.take_trials();

  std::uint64_t attempts = 0, failed = 0;
  for (const CommittedTrial& t : trials) {
    attempts += t.record.attempts;
    failed += t.record.aborted_attempts + t.record.errored_attempts;
  }
  failed += result.quarantined.size();
  const auto found = found_list(result);
  const obs::MetricsRegistry& reg = result.metrics;

  // ---- Phase 2: set-up probes. Baselines, universe generation and backend
  // start up to the first dispatched trial; the one trial is not timed.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    CampaignConfig probe = config;
    ThreadBackend probe_threads(executors);
    RecordingBackend probe_backend(probe_threads, nullptr);
    probe.backend = &probe_backend;
    probe.max_strategies = 1;
    const Clock::time_point p0 = Clock::now();
    run_campaign(probe);
    if (!probe_backend.first_submit().has_value()) {
      std::fprintf(stderr, "set-up probe dispatched no trial\n");
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(*probe_backend.first_submit() - p0).count());
  }

  // ---- Phase 3: resume from the result cache, written here untimed.
  std::vector<double> store_us;
  {
    dist::ResultCache cache(cache_path);
    dist::ResultCache::View view = cache.view(identity);
    for (const CommittedTrial& t : trials) {
      const Clock::time_point s0 = Clock::now();
      view.store(t.record);
      store_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - s0).count());
    }
  }
  std::vector<double> resume_s, cache_load_ms, lookup_us;
  bool resume_all_hits = true, resume_equal = true;
  std::uint64_t resume_hits = 0;
  for (int rep = 0; rep < kResumeRepeats; ++rep) {
    CampaignConfig again = config;
    again.backend = nullptr;  // resume runs in-process, whatever phase 1 used
    Tracer resume_tracer;
    const Clock::time_point r0 = Clock::now();
    dist::ResultCache cache(cache_path);
    const bool loaded = cache.load();
    const Clock::time_point r_loaded = Clock::now();
    dist::ResultCache::View view = cache.view(identity);
    TracedCache traced_view(view, &resume_tracer);
    again.cache = traced ? static_cast<TrialCache*>(&traced_view) : &view;
    CampaignResult warm = run_campaign(again);
    resume_s.push_back(std::chrono::duration<double>(Clock::now() - r0).count());
    cache_load_ms.push_back(std::chrono::duration<double, std::milli>(r_loaded - r0).count());
    for (double ms : resume_tracer.durations_ms("cache.lookup")) lookup_us.push_back(ms * 1e3);
    resume_hits = warm.cache_hits;
    resume_all_hits = resume_all_hits && loaded && warm.cache_hits == warm.strategies_tried &&
                      warm.cache_stores == 0;
    resume_equal = resume_equal && found_list(warm) == found &&
                   warm.strategies_tried == result.strategies_tried &&
                   warm.trials_to_first_attack == result.trials_to_first_attack &&
                   warm.unique_true_attacks == result.unique_true_attacks;
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(spec->name);
  w.key("seed").value(*seed);
  w.key("mode").value(mode);
  w.key("scenario_seed").value(campaign_seed);
  w.key("executors").value(executors);
  w.key("campaign").begin_object();
  w.key("wall_s").value(wall_s);
  w.key("setup_s").begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.key("cpu_s").value(cpu1 - cpu0);
  w.key("strategies").value(result.strategies_tried);
  w.key("peak_rss_mib").value(rss_mib);
  w.key("attempts").value(attempts);
  w.key("failed").value(failed);
  w.key("attacks_found").value(result.attack_strategies_found);
  w.key("unique_attacks").value(result.unique_true_attacks);
  w.key("trials_to_first_attack").value(result.trials_to_first_attack);
  w.key("events").value(counter(reg, "sim.events_executed"));
  w.key("found").begin_array();
  for (const auto& [key, sig] : found) w.begin_array().value(key).value(sig).end_array();
  w.end_array();
  w.end_object();
  w.key("resume").begin_object();
  w.key("runs_s").begin_array();
  for (double s : resume_s) w.value(s);
  w.end_array();
  w.key("all_hits").value(resume_all_hits);
  w.key("equal").value(resume_equal);
  w.end_object();

  if (traced) {
    std::map<std::string, double> m;
    const double n = static_cast<double>(std::max<std::uint64_t>(1, result.strategies_tried));
    const double runs = static_cast<double>(counter(reg, "scenario.baseline_runs") +
                                            counter(reg, "scenario.attack_runs"));
    m["sim.events_per_trial"] = static_cast<double>(counter(reg, "sim.events_executed")) / n;
    m["sim.buffer_reuse_ratio"] =
        ratio(counter(reg, "sim.buffers_reused"), counter(reg, "sim.buffers_acquired"));
    const double intercepted = static_cast<double>(counter(reg, "proxy.intercepted"));
    m["statemachine.transitions_per_trial"] =
        static_cast<double>(counter(reg, "tracker.client.transitions") +
                            counter(reg, "tracker.server.transitions")) / n;
    m["statemachine.unknown_packet_ratio"] =
        ratio(static_cast<double>(counter(reg, "tracker.client.unknown_packets") +
                                  counter(reg, "tracker.server.unknown_packets")),
              2.0 * intercepted);
    m["proxy.intercepted_per_trial"] = intercepted / n;
    m["proxy.match_ratio"] = ratio(counter(reg, "proxy.matched"), intercepted);
    double actions = 0;
    for (const auto& [name, value] : reg.counters())
      if (name.rfind("proxy.action.", 0) == 0) actions += static_cast<double>(value);
    m["proxy.actions_per_trial"] = actions / n;
    if (const obs::Histogram* h = histogram(reg, "campaign.strategy_seconds")) {
      m["snake.trial_ms_p50"] = histogram_quantile(*h, 0.5) * 1e3;
      const std::uint64_t pct = h->count > 10 ? (h->count - 10) * 100 / h->count : 0;
      m["snake.trial_ms_tail_pct"] = static_cast<double>(pct);
      m["snake.trial_ms_tail"] =
          pct > 0 ? histogram_quantile(*h, static_cast<double>(pct) / 100.0) * 1e3 : 0.0;
      m["snake.trial_samples"] = static_cast<double>(h->count);
      m["snake.executor_busy_ratio"] = ratio(h->sum, executors * wall_s);
    }
    m["snake.runs_per_strategy"] = runs / n;
    m["snake.retest_confirm_ratio"] =
        ratio(counter(reg, "campaign.retest_confirmed"),
              counter(reg, "campaign.detected_first_pass"));
    if (const obs::Histogram* h = histogram(reg, "snapshot.session_build_seconds"))
      m["snake.session_build_ms"] = h->sum / static_cast<double>(h->count) * 1e3;
    const double forked = static_cast<double>(counter(reg, "snapshot.forked_runs"));
    m["snake.snapshot_fork_ratio"] =
        ratio(forked, forked + static_cast<double>(counter(reg, "snapshot.fallback_runs") +
                                                   counter(reg, "snapshot.ineligible_runs")));
    m["snake.early_exit_ratio"] = ratio(counter(reg, "scenario.early_exit_runs"), runs);
    m["util.allocs_per_trial"] =
        static_cast<double>(allocs_after.allocs - allocs_before.allocs) / n;
    m["util.alloc_bytes_per_trial"] =
        static_cast<double>(allocs_after.bytes - allocs_before.bytes) / n;
    m["apps.baseline_target_bytes"] = static_cast<double>(result.baseline.target_bytes);
    const std::vector<double> start_ms = tracer->durations_ms("backend.start");
    m["dist.start_ms"] = start_ms.empty() ? 0.0 : start_ms.front();
    m["dist.wait_outcome_ms_p50"] = median(tracer->durations_ms("backend.wait_outcome"));
    m["dist.cache_load_ms"] = median(cache_load_ms);
    m["dist.cache_lookup_us"] = median(lookup_us);
    m["dist.cache_hit_ratio"] = ratio(resume_hits, result.strategies_tried);
    m["dist.cache_store_us"] = median(store_us);

    ReplayInput in;
    in.config = &config;
    in.result = &result;
    in.trials = &trials;
    in.trace_text = &trace_text;
    in.tracer = tracer.get();
    const ReplayOutput out = run_replay(in);
    for (const auto& [name, value] : out.metrics) m[name] = value;

    w.key("replay").begin_object();
    w.key("trials").value(out.replayed);
    w.key("verdict_mismatches").value(out.verdict_mismatches);
    w.end_object();
    w.key("layers").begin_object();
    for (const auto& [name, value] : m) w.key(name).value(value);
    w.end_object();
    w.key("self_ms").begin_object();
    for (const auto& [name, value] : tracer->self_ms_by_name()) w.key(name).value(value);
    w.end_object();
    if (!spans_path.empty() && !tracer->write_jsonl(spans_path))
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
  }
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  return 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) { return bench::run(argc, argv); }
