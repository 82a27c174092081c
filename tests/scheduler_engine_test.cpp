// Differential suite for the scheduler's ready queue.
//
// The timing wheel is the scheduler's only engine. This file keeps a small
// binary-heap reference model of the same queue semantics (clamp past times
// to now, pop in (time, insertion) order, cancelled entries popped and
// counted): for any script of schedule / cancel / run operations, the wheel
// must fire the same events in the same order with the same clock and
// counters as the model (scheduler.h, "Event engine" in DESIGN.md). The
// model is a plain value, so a copy taken at a capture point is the
// reference for what a restored scheduler must drain. On top of the
// scheduler-level properties, the deterministic early-exit cut must never
// change what a campaign detects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/scheduler.h"
#include "snake/controller.h"
#include "testing/property.h"
#include "util/rng.h"

namespace snake {
namespace {

using sim::Scheduler;
using sim::Timer;

// ---------------------------------------------------------------------------
// Scheduler-level properties: random scripts replayed against the wheel and
// the reference model.

/// One scripted operation, interpreted identically by the scheduler and the
/// model.
struct Op {
  enum Kind : std::uint8_t {
    kSchedule,
    kScheduleLazy,
    kScheduleChain,  ///< an event whose callback schedules a child event
    kCancel,
    kRunUntil,
    kRunEvents
  };
  Kind kind = kSchedule;
  std::int64_t delta_ns = 0;  ///< schedule offset (may be negative) / run horizon
  std::uint64_t pick = 0;     ///< cancel target selector / run_events count
  std::int64_t child_delta_ns = 0;  ///< kScheduleChain: child offset from the fire time
};

/// Id bit of a chained event's child (the parent's id plus this bit).
constexpr std::uint64_t kChildTag = std::uint64_t{1} << 62;

std::vector<Op> make_script(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < 40) {
      op.kind = Op::kSchedule;
      // Two magnitude bands so offsets land on every wheel level: same-tick
      // and L0 neighbours, then L1/L2 territory. Shifting down 2ms makes a
      // slice of them past-time (exercises the clamp into the ready run).
      const std::uint64_t mag =
          rng.uniform(0, 1) == 0 ? rng.uniform(0, 60'000) : rng.uniform(0, 80'000'000);
      op.delta_ns = static_cast<std::int64_t>(mag) - 2'000'000;
    } else if (roll < 50) {
      op.kind = Op::kScheduleLazy;
      op.delta_ns = static_cast<std::int64_t>(rng.uniform(0, 50'000'000));
    } else if (roll < 65) {
      op.kind = Op::kCancel;
      op.pick = rng.next_u64();
    } else if (roll < 90) {
      op.kind = Op::kRunUntil;
      op.delta_ns = static_cast<std::int64_t>(rng.uniform(0, 20'000'000));
    } else {
      op.kind = Op::kRunEvents;
      op.pick = rng.uniform(1, 6);
    }
    ops.push_back(op);
  }
  return ops;
}

/// Event id for the next scheduled op. Bit 63 tags lazy ids so quiescence
/// properties can filter the log.
std::uint64_t take_id(std::uint64_t& next_id, Op::Kind kind) {
  const std::uint64_t id = next_id++;
  return kind == Op::kScheduleLazy ? id | (std::uint64_t{1} << 63) : id;
}

std::string digest(std::int64_t now_ns, std::uint64_t executed, std::uint64_t cancelled,
                   bool empty) {
  std::ostringstream os;
  os << now_ns << '/' << executed << '/' << cancelled << '/' << empty;
  return os.str();
}

/// The scheduler under test plus the log its callbacks append to.
/// Callbacks capture `this`, so every Env lives behind a unique_ptr (stable
/// address) for its whole lifetime.
struct Env {
  Scheduler sched;
  std::vector<std::uint64_t> fired;
  std::vector<Timer> timers;
  std::uint64_t next_id = 1;

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kSchedule: {
        const std::uint64_t id = take_id(next_id, op.kind);
        timers.push_back(sched.schedule_at(
            TimePoint::from_ns(sched.now().ns() + op.delta_ns),
            [this, id] { fired.push_back(id); }));
        break;
      }
      case Op::kScheduleLazy: {
        const std::uint64_t id = take_id(next_id, op.kind);
        timers.push_back(sched.schedule_lazy_in(Duration::nanos(op.delta_ns),
                                                [this, id] { fired.push_back(id); }));
        break;
      }
      case Op::kScheduleChain: {
        const std::uint64_t id = take_id(next_id, op.kind);
        const std::int64_t child_delta = op.child_delta_ns;
        timers.push_back(sched.schedule_at(
            TimePoint::from_ns(sched.now().ns() + op.delta_ns), [this, id, child_delta] {
              fired.push_back(id);
              const std::uint64_t child = id | kChildTag;
              timers.push_back(sched.schedule_in(Duration::nanos(child_delta),
                                                 [this, child] { fired.push_back(child); }));
            }));
        break;
      }
      case Op::kCancel:
        if (!timers.empty()) timers[op.pick % timers.size()].cancel();
        break;
      case Op::kRunUntil:
        sched.run_until(sched.now() + Duration::nanos(op.delta_ns));
        break;
      case Op::kRunEvents:
        sched.run_events(op.pick);
        break;
    }
  }

  std::string digest() const {
    return snake::digest(sched.now().ns(), sched.events_executed(), sched.events_cancelled(),
                         sched.empty());
  }
};

/// The reference model: a binary min-heap over (time, seq) with the
/// scheduler's clamp, cancel and pop semantics. Events log their id instead
/// of running a callback, so the model is a plain value and copying it is a
/// snapshot.
class HeapModel {
 public:
  std::vector<std::uint64_t> fired;

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kSchedule:
      case Op::kScheduleLazy:  // laziness only matters to the quiescence cut
        schedule(now_ + op.delta_ns, take_id(next_id_, op.kind));
        break;
      case Op::kScheduleChain:
        schedule(now_ + op.delta_ns, take_id(next_id_, op.kind), op.child_delta_ns);
        break;
      case Op::kCancel:
        // Like Timer::cancel: only a still-pending event is affected.
        if (!events_.empty()) {
          Event& e = events_[op.pick % events_.size()];
          if (e.state == Event::kPending) e.state = Event::kCancelled;
        }
        break;
      case Op::kRunUntil: {
        const std::int64_t until = now_ + op.delta_ns;
        while (!heap_.empty() && heap_.front().at <= until) pop();
        now_ = std::max(now_, until);
        break;
      }
      case Op::kRunEvents:
        for (std::uint64_t i = 0; i < op.pick && !heap_.empty(); ++i) pop();
        break;
    }
  }

  void run_all() {
    while (!heap_.empty()) pop();
  }

  std::string digest() const {
    return snake::digest(now_, executed_, cancelled_, heap_.empty());
  }

  /// Whether an entry (live or cancelled) is still queued before `t`.
  bool pending_before(std::int64_t t) const {
    return std::any_of(heap_.begin(), heap_.end(), [t](const Entry& e) { return e.at < t; });
  }
  std::int64_t now() const { return now_; }

 private:
  struct Event {
    enum State : std::uint8_t { kPending, kCancelled, kDone };
    std::uint64_t id = 0;
    State state = kPending;
    std::int64_t child_delta = -1;  ///< >= 0: schedules a child when it fires
  };
  struct Entry {
    std::int64_t at = 0;
    std::uint64_t seq = 0;
    std::size_t event = 0;
  };
  /// std::push_heap keeps the *largest* element on top, so "later" ranks an
  /// entry below everything that must pop before it.
  static bool later(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  void schedule(std::int64_t at, std::uint64_t id, std::int64_t child_delta = -1) {
    events_.push_back(Event{id, Event::kPending, child_delta});
    heap_.push_back(Entry{std::max(at, now_), next_seq_++, events_.size() - 1});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry entry = heap_.back();
    heap_.pop_back();
    now_ = entry.at;
    Event& e = events_[entry.event];
    const bool cancelled = e.state == Event::kCancelled;
    e.state = Event::kDone;
    if (cancelled) {
      ++cancelled_;
      return;
    }
    ++executed_;
    fired.push_back(e.id);
    // Like a callback scheduling from inside its own firing: the child takes
    // the next seq, after everything already queued.
    if (e.child_delta >= 0) schedule(now_ + e.child_delta, e.id | kChildTag);
  }

  std::vector<Entry> heap_;
  std::vector<Event> events_;  ///< indexed like Env::timers
  std::int64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

/// Replays `script` op by op on a fresh wheel and the model, then drains
/// both; any divergence in fired order, clock or counters is reported.
std::optional<std::string> check_against_model(const std::vector<Op>& script) {
  auto wheel = std::make_unique<Env>();
  HeapModel model;
  for (std::size_t i = 0; i < script.size(); ++i) {
    wheel->apply(script[i]);
    model.apply(script[i]);
    if (wheel->fired != model.fired)
      return "fired order diverged after op " + std::to_string(i);
    if (wheel->digest() != model.digest())
      return "state diverged after op " + std::to_string(i) + ": wheel " + wheel->digest() +
             " vs model " + model.digest();
  }
  wheel->sched.run_all();
  model.run_all();
  if (wheel->fired != model.fired) return std::string("final drain order diverged");
  if (wheel->digest() != model.digest())
    return "final state diverged: wheel " + wheel->digest() + " vs model " + model.digest();
  return std::nullopt;
}

/// The wheel's tick and level-0 span (scheduler.h: kTickShift, kWheelSlots).
constexpr std::int64_t kTickNs = std::int64_t{1} << 14;
constexpr std::int64_t kSpanNs = kTickNs << 8;

/// Replays script[0, capture_at), captures, and finishes the live run; then
/// restores twice, and each restored drain must equal the model copied at
/// the capture point. `mid_span` reports whether the capture point lay
/// inside a level-0 span that still had entries queued in it.
std::optional<std::string> check_restore_against_model(const std::vector<Op>& script,
                                                       std::size_t capture_at,
                                                       bool* mid_span = nullptr) {
  auto wheel = std::make_unique<Env>();
  HeapModel model;
  for (std::size_t i = 0; i < capture_at; ++i) {
    wheel->apply(script[i]);
    model.apply(script[i]);
  }
  Scheduler::Snapshot snap;
  if (!wheel->sched.capture(snap)) return std::string("capture declined");
  const HeapModel at_capture = model;
  if (mid_span != nullptr) {
    const std::int64_t span_end = (model.now() / kSpanNs + 1) * kSpanNs;
    *mid_span = model.now() % kSpanNs != 0 && model.pending_before(span_end);
  }

  // Live tails must agree first (sanity: the worlds were equal mid-script).
  for (std::size_t i = capture_at; i < script.size(); ++i) {
    wheel->apply(script[i]);
    model.apply(script[i]);
  }
  wheel->sched.run_all();
  model.run_all();
  if (wheel->fired != model.fired) return std::string("live tails diverged");

  // The model copied at the capture point drains the reference tail.
  HeapModel reference = at_capture;
  const std::size_t reference_mark = reference.fired.size();
  reference.run_all();
  const std::vector<std::uint64_t> reference_tail(
      reference.fired.begin() + static_cast<std::ptrdiff_t>(reference_mark),
      reference.fired.end());

  // The restored scheduler must drain exactly that tail, twice over: the
  // second restore of the same snapshot takes the copy-on-write path for
  // every slot the first drain left untouched.
  for (int round = 0; round < 2; ++round) {
    wheel->sched.restore(snap);
    const std::size_t mark = wheel->fired.size();
    wheel->sched.run_all();
    const std::vector<std::uint64_t> tail(
        wheel->fired.begin() + static_cast<std::ptrdiff_t>(mark), wheel->fired.end());
    if (tail != reference_tail)
      return "restored drain " + std::to_string(round) + " diverged from the model";
    if (wheel->digest() != reference.digest())
      return "restored drain " + std::to_string(round) + " left wheel " + wheel->digest() +
             " vs model " + reference.digest();
  }
  return std::nullopt;
}

TEST(SchedulerEngines, IdenticalExecutionOnRandomScripts) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/200, /*seed=*/17);
  auto failure = testing::for_each_seed(config, [](std::uint64_t seed) {
    return check_against_model(make_script(seed, 250));
  });
  ASSERT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

TEST(SchedulerEngines, SnapshotsRestoreIdenticallyAcrossEngines) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/15, /*seed=*/41);
  auto failure = testing::for_each_seed(config, [](std::uint64_t seed) {
    const std::vector<Op> script = make_script(seed, 160);
    return check_restore_against_model(script, script.size() / 2);
  });
  ASSERT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

// ---------------------------------------------------------------------------
// Dense scripts: shapes the random scripts rarely produce. Hundreds of
// events crowd one tick or one level-0 span, callbacks schedule into the
// tick being drained, entries land exactly on the start of a span that a
// cascade opens, and runs stop mid-span.

enum class Shape { kOneTick, kOneSpan, kSpanStarts };

/// Offset from `now` to a target the shape crowds: inside the next tick,
/// inside the next span, or on (or one tick either side of) the start of
/// a coming level-1 or level-2 span.
std::int64_t dense_delta(Rng& rng, Shape shape, std::int64_t now) {
  switch (shape) {
    case Shape::kOneTick: {
      const std::int64_t next_tick = (now / kTickNs + 1) * kTickNs;
      return next_tick - now + static_cast<std::int64_t>(rng.uniform(0, kTickNs - 1));
    }
    case Shape::kOneSpan: {
      const std::int64_t next_span = (now / kSpanNs + 1) * kSpanNs;
      return next_span - now + static_cast<std::int64_t>(rng.uniform(0, kSpanNs - 1));
    }
    case Shape::kSpanStarts: {
      const std::int64_t unit = rng.chance(0.8) ? kSpanNs : kSpanNs << 8;
      const std::int64_t start =
          (now / unit + static_cast<std::int64_t>(rng.uniform(1, 3))) * unit;
      const std::int64_t nudge[] = {0, 0, 0, kTickNs, -kTickNs, 1, -1};
      return start - now + nudge[rng.uniform(0, 6)];
    }
  }
  return 0;
}

/// A burst of `burst` schedules (a quarter of them chained) into the
/// shape's region, then `tail` mixed ops that keep crowding it: short runs
/// that stop mid-tick or mid-span, same-tick children, cancels. The script
/// tracks the clock the way the model will, so the targets stay ahead.
std::vector<Op> make_dense_script(std::uint64_t seed, Shape shape, std::size_t burst,
                                  std::size_t tail) {
  Rng rng(seed);
  HeapModel clock;  // only for now(): the script is built against the model
  std::vector<Op> ops;
  auto schedule = [&](bool allow_chain) {
    Op op;
    op.kind = allow_chain && rng.chance(0.25) ? Op::kScheduleChain : Op::kSchedule;
    op.delta_ns = dense_delta(rng, shape, clock.now());
    // Mostly into the tick the parent fires in; sometimes exactly now.
    op.child_delta_ns =
        rng.chance(0.2) ? 0 : static_cast<std::int64_t>(rng.uniform(0, kTickNs / 4));
    return op;
  };
  for (std::size_t i = 0; i < burst; ++i) {
    ops.push_back(schedule(true));
    clock.apply(ops.back());
  }
  for (std::size_t i = 0; i < tail; ++i) {
    const std::uint64_t roll = rng.uniform(0, 99);
    Op op;
    if (roll < 45) {
      op = schedule(true);
    } else if (roll < 55) {
      op.kind = Op::kCancel;
      op.pick = rng.next_u64();
    } else if (roll < 80) {
      op.kind = Op::kRunUntil;
      op.delta_ns = static_cast<std::int64_t>(
          rng.uniform(0, shape == Shape::kOneTick ? kTickNs / 2 : kSpanNs / 4));
    } else {
      op.kind = Op::kRunEvents;
      op.pick = rng.uniform(1, 40);
    }
    ops.push_back(op);
    clock.apply(op);
  }
  return ops;
}

TEST(SchedulerEngines, IdenticalExecutionOnDenseScripts) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/12, /*seed=*/71);
  for (Shape shape : {Shape::kOneTick, Shape::kOneSpan, Shape::kSpanStarts}) {
    SCOPED_TRACE(static_cast<int>(shape));
    auto failure = testing::for_each_seed(config, [shape](std::uint64_t seed) {
      return check_against_model(make_dense_script(seed, shape, 300, 400));
    });
    ASSERT_FALSE(failure.has_value())
        << "seed " << failure->seed << ": " << failure->message;
  }
}

TEST(SchedulerEngines, DenseBurstsReallyCrowdOneTickAndOneSpan) {
  // Guards the shapes above against drifting into sparse scripts: a burst
  // is built at time zero, so its offsets are its event times.
  for (Shape shape : {Shape::kOneTick, Shape::kOneSpan}) {
    const std::vector<Op> burst = make_dense_script(5, shape, 300, 0);
    const std::int64_t unit = shape == Shape::kOneTick ? kTickNs : kSpanNs;
    auto [lo, hi] = std::minmax_element(burst.begin(), burst.end(), [](const Op& a, const Op& b) {
      return a.delta_ns < b.delta_ns;
    });
    EXPECT_EQ(lo->delta_ns / unit, hi->delta_ns / unit) << static_cast<int>(shape);
    EXPECT_EQ(burst.size(), 300u);
  }
}

TEST(SchedulerEngines, DenseSnapshotsRestoreMidSpan) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/8, /*seed=*/83);
  std::size_t mid_span_captures = 0;
  for (Shape shape : {Shape::kOneTick, Shape::kOneSpan, Shape::kSpanStarts}) {
    SCOPED_TRACE(static_cast<int>(shape));
    auto failure = testing::for_each_seed(config, [&](std::uint64_t seed)
                                                      -> std::optional<std::string> {
      const std::vector<Op> script = make_dense_script(seed, shape, 200, 300);
      // Capture at several points of the mixed tail, where runs stop short.
      for (std::size_t capture_at : {std::size_t{260}, std::size_t{340}, std::size_t{430}}) {
        bool mid_span = false;
        if (auto bad = check_restore_against_model(script, capture_at, &mid_span))
          return "capture at op " + std::to_string(capture_at) + ": " + *bad;
        mid_span_captures += mid_span;
      }
      return std::nullopt;
    });
    ASSERT_FALSE(failure.has_value())
        << "seed " << failure->seed << ": " << failure->message;
  }
  // The property is only worth something if captures really sat mid-span.
  EXPECT_GT(mid_span_captures, 10u);
}

TEST(SchedulerEngines, QuiescentRunMatchesPlainRunOnActiveEvents) {
  auto config = testing::PropertyConfig::from_env(/*default_iterations=*/20, /*seed=*/97);
  auto failure = testing::for_each_seed(config, [](std::uint64_t seed)
                                                    -> std::optional<std::string> {
    Rng rng(seed);
    const TimePoint horizon = TimePoint::from_ns(30'000'000);
    auto plain = std::make_unique<Env>();
    auto quick = std::make_unique<Env>();
    for (int i = 0; i < 120; ++i) {
      Op op;
      op.kind = rng.uniform(0, 3) == 0 ? Op::kScheduleLazy : Op::kSchedule;
      op.delta_ns = static_cast<std::int64_t>(rng.uniform(0, 40'000'000));
      plain->apply(op);
      quick->apply(op);
    }
    plain->sched.run_until(horizon);
    quick->sched.set_quiescence_horizon(horizon);
    quick->sched.run_until_quiescent(horizon);
    if (quick->sched.now() != horizon)
      return std::string("quiescent run did not advance the clock to the horizon");
    // Until the cut both runs pop the identical stream, and after the cut
    // only lazy events remain in-horizon: the quick log is a prefix of the
    // plain log and the active subsequences are exactly equal.
    if (quick->fired.size() > plain->fired.size() ||
        !std::equal(quick->fired.begin(), quick->fired.end(), plain->fired.begin()))
      return std::string("quiescent log is not a prefix of the plain log");
    auto actives = [](const std::vector<std::uint64_t>& v) {
      std::vector<std::uint64_t> out;
      for (std::uint64_t id : v)
        if ((id >> 63) == 0) out.push_back(id);
      return out;
    };
    if (actives(plain->fired) != actives(quick->fired))
      return std::string("active event sequences diverged");
    return std::nullopt;
  });
  ASSERT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

// ---------------------------------------------------------------------------
// Campaign-level: early exit is invisible to campaign detections.

core::CampaignResult small_campaign(core::Protocol protocol, bool early_exit,
                                    bool collect_metrics) {
  core::CampaignConfig config;
  config.scenario.protocol = protocol;
  config.scenario.test_duration = Duration::seconds(4.0);
  config.scenario.seed = 7;
  config.scenario.event_budget = 40'000'000;
  config.executors = 2;
  config.max_strategies = 20;
  config.collect_metrics = collect_metrics;
  config.early_exit = early_exit;
  return core::run_campaign(config);
}

/// The detector-visible surface of a CampaignResult: everything except
/// metrics (wall-clock histograms never repeat) and the baseline's terminal
/// socket-state table (early exit legitimately leaves TIME_WAIT entries
/// unreleased there — the one observable difference the cut permits).
std::string detection_fingerprint(const core::CampaignResult& r) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("summary").value(r.summary_row());
  w.key("tried").value(r.strategies_tried);
  w.key("found").begin_array();
  for (const core::StrategyOutcome& o : r.found) {
    w.begin_object();
    w.key("key").value(strategy::canonical_key(o.strat));
    w.key("signature").value(o.signature);
    w.key("cls").value(static_cast<int>(o.cls));
    w.key("target_ratio").value(o.detection.target_ratio);
    w.key("competing_ratio").value(o.detection.competing_ratio);
    w.end_object();
  }
  w.end_array();
  w.key("signatures").begin_array();
  for (const std::string& s : r.unique_signatures) w.value(s);
  w.end_array();
  w.key("quarantined").begin_array();
  for (const auto& q : r.quarantined) {
    w.begin_object();
    w.key("key").value(q.key);
    w.key("verdict").value(core::to_string(q.verdict));
    w.end_object();
  }
  w.end_array();
  w.key("baseline_target").value(r.baseline.target_bytes);
  w.key("baseline_competing").value(r.baseline.competing_bytes);
  w.key("aborted").value(r.trials_aborted);
  w.key("errored").value(r.trials_errored);
  w.key("retried").value(r.trials_retried);
  w.end_object();
  return w.take();
}

TEST(EarlyExit, CampaignDetectionsAreIdenticalOnAndOff) {
  for (core::Protocol protocol : {core::Protocol::kTcp, core::Protocol::kDccp}) {
    SCOPED_TRACE(core::to_string(protocol));
    core::CampaignResult on =
        small_campaign(protocol, /*early_exit=*/true, /*collect_metrics=*/true);
    core::CampaignResult off =
        small_campaign(protocol, /*early_exit=*/false, /*collect_metrics=*/true);
    EXPECT_EQ(detection_fingerprint(on), detection_fingerprint(off));
    // The cut must actually engage in DCCP campaigns (both iperf sources
    // close at dccp_data_fraction of the run, after which only lazy
    // TIME_WAIT releases remain), otherwise this test is vacuous. TCP gets
    // no such guarantee: the competing wget's effectively-unbounded download
    // keeps an active pump timer armed until the very end by design.
    if (protocol == core::Protocol::kDccp) {
      EXPECT_GT(on.metrics.counter("scenario.early_exit_runs"), 0u);
    }
    // The counter must never tick when the flag is off.
    EXPECT_EQ(off.metrics.counter("scenario.early_exit_runs"), 0u);
  }
}

}  // namespace
}  // namespace snake
