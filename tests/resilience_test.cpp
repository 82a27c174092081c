// Campaign resilience layer tests: trial watchdogs (event budget +
// wall-clock deadline), deterministic fault injection, the trial guard with
// retry/quarantine, and resuming from the trial store. Every degradation
// path the layer exists to contain is driven here on purpose:
//   - event storm        -> event-budget abort
//   - clock stall        -> wall-clock abort
//   - throw-in-trial     -> errored attempt, retry or quarantine
//   - failed store write -> campaign.cache_errors, campaign unharmed
//   - killed writer      -> torn store tail dropped, resume still exact
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "dist/result_cache.h"
#include "search/search.h"
#include "sim/scheduler.h"
#include "snake/controller.h"
#include "snake/faultpoint.h"
#include "snake/journal.h"
#include "tcp/profile.h"

namespace snake::core {
namespace {

// A 5s TCP run executes ~46k scheduler events; this budget never cuts a
// real trial but stops an event storm within tens of milliseconds.
constexpr std::uint64_t kGenerousEventBudget = 400000;

ScenarioConfig short_tcp_scenario() {
  ScenarioConfig c;
  c.protocol = Protocol::kTcp;
  c.tcp_profile = tcp::linux_3_13_profile();
  c.test_duration = Duration::seconds(5.0);
  c.seed = 3;
  return c;
}

CampaignConfig small_campaign() {
  CampaignConfig c;
  c.scenario = short_tcp_scenario();
  c.generator = strategy::tcp_generator_config();
  c.generator.hitseq_max_packets = 2000;
  c.executors = 2;
  c.max_strategies = 12;
  return c;
}

// ------------------------------------------------------ scheduler watchdog

TEST(Watchdog, EventBudgetLatchesAndStopsRun) {
  sim::Scheduler sched;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    sched.schedule_in(Duration::seconds(0.001), [&] { tick(); });
  };
  sched.schedule_in(Duration::seconds(0.001), [&] { tick(); });

  sim::WatchdogConfig w;
  w.max_events = 100;
  sched.arm_watchdog(w);
  sched.run_until(TimePoint::origin() + Duration::seconds(10.0));
  EXPECT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kEventBudget);
  EXPECT_LE(fires, 101);
  // A tripped watchdog latches: further run_until calls do nothing, and the
  // clock was not advanced to the horizon.
  int fires_at_trip = fires;
  sched.run_until(TimePoint::origin() + Duration::seconds(20.0));
  EXPECT_EQ(fires, fires_at_trip);
  EXPECT_LT(sched.now().to_seconds(), 10.0);

  // Re-arming (even disarmed) clears the trip and the run resumes.
  sched.arm_watchdog(sim::WatchdogConfig{});
  EXPECT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kNone);
  sched.run_until(sched.now() + Duration::seconds(0.01));
  EXPECT_GT(fires, fires_at_trip);
}

TEST(Watchdog, WallClockDeadlineCatchesStalledClock) {
  sim::Scheduler sched;
  arm_clock_stall(sched, Duration::seconds(0.0));
  sim::WatchdogConfig w;
  w.wall_seconds = 0.05;
  sched.arm_watchdog(w);
  // 1 s of virtual time would need ~1e6 stalled events (~17 min of wall
  // sleep); the deadline must cut it off after ~kWallCheckInterval events.
  sched.run_until(TimePoint::origin() + Duration::seconds(1.0));
  EXPECT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kWallClock);
  EXPECT_LT(sched.now().to_seconds(), 1.0);
}

TEST(Watchdog, ResetClearsTripAndBudget) {
  sim::Scheduler sched;
  std::function<void()> tick = [&] {
    sched.schedule_in(Duration::seconds(0.001), [&] { tick(); });
  };
  sched.schedule_in(Duration::seconds(0.001), [&] { tick(); });
  sim::WatchdogConfig w;
  w.max_events = 50;
  sched.arm_watchdog(w);
  sched.run_until(TimePoint::origin() + Duration::seconds(10.0));
  ASSERT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kEventBudget);

  sched.reset();
  EXPECT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kNone);
  // Post-reset runs are unconstrained by the stale budget.
  int hits = 0;
  for (int i = 0; i < 200; ++i)
    sched.schedule_in(Duration::seconds(0.001), [&hits] { ++hits; });
  sched.run_until(TimePoint::origin() + Duration::seconds(1.0));
  EXPECT_EQ(hits, 200);
}

// ----------------------------------------------------------- fault rules

TEST(FaultPlan, RulesMatchByKindKeyAndAttempt) {
  FaultPlan plan;
  FaultRule transient;
  transient.kind = FaultKind::kThrowInTrial;
  transient.modulus = 3;
  transient.remainder = 1;
  transient.attempts = 1;
  plan.add(transient);
  FaultRule persistent;
  persistent.kind = FaultKind::kEventStorm;
  persistent.modulus = 4;
  persistent.remainder = 2;
  plan.add(persistent);

  EXPECT_TRUE(plan.should_fire(FaultKind::kThrowInTrial, 7, 0));
  EXPECT_FALSE(plan.should_fire(FaultKind::kThrowInTrial, 7, 1));  // transient
  EXPECT_FALSE(plan.should_fire(FaultKind::kThrowInTrial, 8, 0));  // wrong key
  EXPECT_TRUE(plan.should_fire(FaultKind::kEventStorm, 6, 0));
  EXPECT_TRUE(plan.should_fire(FaultKind::kEventStorm, 6, 5));  // persistent
  EXPECT_FALSE(plan.should_fire(FaultKind::kClockStall, 6, 0));  // no rule

  EXPECT_EQ(plan.fires(FaultKind::kThrowInTrial), 1u);
  EXPECT_EQ(plan.fires(FaultKind::kEventStorm), 2u);
  EXPECT_EQ(plan.fires(FaultKind::kClockStall), 0u);
}

// ------------------------------------------------- scenario-level guards

TEST(ScenarioGuards, EventBudgetAbortsRunaway) {
  ScenarioConfig c = short_tcp_scenario();
  c.event_budget = 1000;  // far below what 5s of simulation needs
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_TRUE(m.aborted);
  EXPECT_EQ(m.abort_reason, "event-budget");
}

TEST(ScenarioGuards, GenerousBudgetDoesNotPerturbResults) {
  ScenarioConfig c = short_tcp_scenario();
  RunMetrics unguarded = run_scenario(c, std::nullopt);
  c.event_budget = kGenerousEventBudget;
  c.wall_limit_seconds = 120.0;
  RunMetrics guarded = run_scenario(c, std::nullopt);
  EXPECT_FALSE(guarded.aborted);
  EXPECT_EQ(guarded.target_bytes, unguarded.target_bytes);
  EXPECT_EQ(guarded.competing_bytes, unguarded.competing_bytes);
}

TEST(ScenarioGuards, EventStormIsCutByBudget) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kEventStorm, 1, 0, FaultRule::kAllAttempts});
  ScenarioConfig c = short_tcp_scenario();
  c.event_budget = kGenerousEventBudget;
  c.faults = &plan;
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_TRUE(m.aborted);
  EXPECT_EQ(m.abort_reason, "event-budget");
  EXPECT_GE(plan.fires(FaultKind::kEventStorm), 1u);
}

TEST(ScenarioGuards, ClockStallIsCutByWallDeadline) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kClockStall, 1, 0, FaultRule::kAllAttempts});
  ScenarioConfig c = short_tcp_scenario();
  c.wall_limit_seconds = 0.05;
  c.faults = &plan;
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_TRUE(m.aborted);
  EXPECT_EQ(m.abort_reason, "wall-clock");
}

TEST(ScenarioGuards, ThrowInTrialEscapesAsFaultInjectedError) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kThrowInTrial, 1, 0, FaultRule::kAllAttempts});
  ScenarioConfig c = short_tcp_scenario();
  c.faults = &plan;
  EXPECT_THROW(run_scenario(c, std::nullopt), FaultInjectedError);
}

// ------------------------------------------------ campaign guard + retry

TEST(CampaignResilience, TransientFaultIsRetriedNotQuarantined) {
  FaultPlan plan;
  // Odd strategy ids throw on their first attempt only.
  plan.add(FaultRule{FaultKind::kThrowInTrial, 2, 1, 1});
  CampaignConfig config = small_campaign();
  config.scenario.faults = &plan;

  CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.strategies_tried, 12u);
  EXPECT_GT(result.trials_errored, 0u);
  EXPECT_EQ(result.trials_retried, result.trials_errored);  // one retry each
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_EQ(result.metrics.counter("campaign.trials_errored"), result.trials_errored);
  EXPECT_EQ(result.metrics.counter("campaign.trials_retried"), result.trials_retried);
}

TEST(CampaignResilience, PersistentThrowQuarantinesStrategy) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kThrowInTrial, 3, 1, FaultRule::kAllAttempts});
  CampaignConfig config = small_campaign();
  config.scenario.faults = &plan;

  CampaignResult result = run_campaign(config);
  ASSERT_FALSE(result.quarantined.empty());
  for (const CampaignResult::Quarantined& q : result.quarantined) {
    EXPECT_EQ(q.strat.id % 3, 1u);
    EXPECT_EQ(q.verdict, TrialVerdict::kErrored);
    EXPECT_EQ(q.attempts, 2u);
    EXPECT_NE(q.reason.find("throw-in-trial"), std::string::npos);
    for (const StrategyOutcome& o : result.found)
      EXPECT_NE(strategy::canonical_key(o.strat), q.key);
  }
  // Every quarantined strategy burned all its attempts.
  EXPECT_EQ(result.trials_errored, 2 * result.quarantined.size());
  EXPECT_EQ(result.metrics.counter("campaign.strategies_quarantined"),
            result.quarantined.size());
  // Quarantined strategies still count as tried.
  EXPECT_EQ(result.strategies_tried, 12u);
}

TEST(CampaignResilience, WatchdogAbortQuarantinesAndExecutorStaysClean) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kEventStorm, 2, 1, FaultRule::kAllAttempts});
  CampaignConfig config = small_campaign();
  config.executors = 1;
  config.max_strategies = 8;
  config.scenario.faults = &plan;
  config.scenario.event_budget = kGenerousEventBudget;

  CampaignResult result = run_campaign(config);
  ASSERT_FALSE(result.quarantined.empty());
  for (const CampaignResult::Quarantined& q : result.quarantined) {
    EXPECT_EQ(q.verdict, TrialVerdict::kAborted);
    EXPECT_EQ(q.reason, "event-budget");
  }
  EXPECT_EQ(result.trials_aborted, 2 * result.quarantined.size());
  EXPECT_EQ(result.metrics.counter("campaign.trials_aborted"), result.trials_aborted);
  // Aborted trials shared one executor (and its arena) with the clean ones:
  // a second identical campaign must reproduce the first exactly, which
  // fails if an abort leaks state into the next trial.
  CampaignResult again = run_campaign(config);
  EXPECT_EQ(result.summary_row(), again.summary_row());
  EXPECT_EQ(result.unique_signatures, again.unique_signatures);
  ASSERT_EQ(result.quarantined.size(), again.quarantined.size());
  for (std::size_t i = 0; i < result.quarantined.size(); ++i)
    EXPECT_EQ(result.quarantined[i].key, again.quarantined[i].key);
}

// ------------------------------------------------------ resume from store
// A campaign resumes by re-running against the store an interrupted run
// wrote: every stored verdict under the exact campaign identity replays
// through the controller's cache path, the rest is simulated.

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static int n = 0;
    path = fs::temp_directory_path() /
           ("snake-resilience-" + std::to_string(::getpid()) + "-" + std::to_string(n++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Runs `config` against the file-backed store at `path` (loaded first, the
/// way a restarted bench opens it).
CampaignResult run_with_store(CampaignConfig config, const std::string& path) {
  dist::ResultCache store(path);
  EXPECT_TRUE(store.load());
  dist::ResultCache::View view = store.view(campaign_identity_hash(config));
  config.cache = &view;
  return run_campaign(config);
}

/// Everything a resumed (or store-backed) campaign must share with its cold
/// twin. Cache tallies and metrics legitimately differ.
void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.summary_row(), b.summary_row());
  EXPECT_EQ(a.strategies_tried, b.strategies_tried);
  EXPECT_EQ(a.unique_signatures, b.unique_signatures);
  EXPECT_EQ(a.trials_to_first_attack, b.trials_to_first_attack);
  EXPECT_EQ(a.search_rounds, b.search_rounds);
  EXPECT_EQ(a.search_mutations, b.search_mutations);
  EXPECT_EQ(a.trials_errored, b.trials_errored);
  EXPECT_EQ(a.trials_retried, b.trials_retried);
  ASSERT_EQ(a.found.size(), b.found.size());
  for (std::size_t i = 0; i < a.found.size(); ++i) {
    EXPECT_EQ(strategy::canonical_key(a.found[i].strat),
              strategy::canonical_key(b.found[i].strat));
    EXPECT_EQ(a.found[i].signature, b.found[i].signature);
    EXPECT_DOUBLE_EQ(a.found[i].detection.target_ratio, b.found[i].detection.target_ratio);
    EXPECT_DOUBLE_EQ(a.found[i].detection.competing_ratio,
                     b.found[i].detection.competing_ratio);
  }
  ASSERT_EQ(a.quarantined.size(), b.quarantined.size());
  for (std::size_t i = 0; i < a.quarantined.size(); ++i)
    EXPECT_EQ(a.quarantined[i].key, b.quarantined[i].key);
}

TrialRecord sample_found_record() {
  TrialRecord r;
  r.key = "drop|state-based|RST|FIN_WAIT_2|client->server";
  r.verdict = TrialVerdict::kCompleted;
  r.attempts = 2;
  r.errored_attempts = 1;
  r.failure_reason = "fault point: throw-in-trial";
  r.found = true;
  r.detection.is_attack = true;
  r.detection.target_ratio = 0.12;
  r.detection.competing_ratio = 1.01;
  r.detection.resource_exhaustion = true;
  r.detection.reasons = {"target down", "stuck sockets"};
  r.cls = AttackClass::kTrueAttack;
  r.signature = "drop/RST effect=resource_exhaustion";
  r.client_obs = {{"ESTABLISHED", "ACK"}, {"FIN_WAIT_1", "FIN+ACK"}};
  r.server_obs = {{"CLOSE_WAIT", "ACK"}};
  return r;
}

TEST(ResumeFromStore, RoundTripsRecordsThroughTheFile) {
  TempDir dir;
  const std::string path = (dir.path / "store.jsonl").string();
  const std::uint64_t identity = campaign_identity_hash(small_campaign());
  TrialRecord quarantined;
  quarantined.key = "inject|...|SYN";
  quarantined.verdict = TrialVerdict::kAborted;
  quarantined.attempts = 2;
  quarantined.aborted_attempts = 2;
  quarantined.failure_reason = "event-budget";
  {
    dist::ResultCache writer(path);
    dist::ResultCache::View view = writer.view(identity);
    view.store(sample_found_record());
    view.store(quarantined);
  }

  dist::ResultCache reader(path);
  ASSERT_TRUE(reader.load());
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.rejected(), 0u);
  dist::ResultCache::View view = reader.view(identity);
  const TrialRecord* f = view.lookup(sample_found_record().key);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->verdict, TrialVerdict::kCompleted);
  EXPECT_EQ(f->attempts, 2u);
  EXPECT_EQ(f->errored_attempts, 1u);
  EXPECT_TRUE(f->found);
  EXPECT_TRUE(f->detection.is_attack);
  EXPECT_DOUBLE_EQ(f->detection.target_ratio, 0.12);
  EXPECT_TRUE(f->detection.resource_exhaustion);
  EXPECT_EQ(f->detection.reasons.size(), 2u);
  EXPECT_EQ(f->cls, AttackClass::kTrueAttack);
  EXPECT_EQ(f->signature, "drop/RST effect=resource_exhaustion");
  EXPECT_EQ(f->client_obs, sample_found_record().client_obs);
  EXPECT_EQ(f->server_obs, sample_found_record().server_obs);

  const TrialRecord* q = view.lookup("inject|...|SYN");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->verdict, TrialVerdict::kAborted);
  EXPECT_EQ(q->aborted_attempts, 2u);
  EXPECT_EQ(q->failure_reason, "event-budget");
  EXPECT_FALSE(q->found);

  // A differently-seeded campaign is a different identity: nothing hits.
  CampaignConfig other = small_campaign();
  other.scenario.seed += 1;
  dist::ResultCache::View other_view = reader.view(campaign_identity_hash(other));
  EXPECT_EQ(other_view.lookup(sample_found_record().key), nullptr);
}

TEST(ResumeFromStore, KilledWriterTornTailIsDroppedAndResumeStaysExact) {
  TempDir dir;
  const std::string path = (dir.path / "store.jsonl").string();
  CampaignConfig config = small_campaign();
  config.executors = 1;
  const CampaignResult uninterrupted = run_campaign(config);

  CampaignConfig interrupted = config;
  interrupted.max_strategies = 6;
  EXPECT_EQ(run_with_store(interrupted, path).cache_stores, 6u);
  // Kill the writer mid-line: the last stored record loses its tail.
  fs::resize_file(path, fs::file_size(path) - 25);

  dist::ResultCache torn(path);
  ASSERT_TRUE(torn.load());
  EXPECT_EQ(torn.size(), 5u);
  EXPECT_EQ(torn.rejected(), 1u);

  const CampaignResult resumed = run_with_store(config, path);
  EXPECT_EQ(resumed.cache_hits, 5u);
  EXPECT_EQ(resumed.cache_stores, resumed.strategies_tried - 5);
  expect_same_result(resumed, uninterrupted);

  // The resumed run started its appends on a fresh line, so the torn
  // fragment stays the file's only damage and every verdict is stored.
  dist::ResultCache after(path);
  ASSERT_TRUE(after.load());
  EXPECT_EQ(after.size(), uninterrupted.strategies_tried);
  EXPECT_EQ(after.rejected(), 1u);
  // Duplicates keep the first occurrence, so a later conflicting line (two
  // writers, or a forged append) never overrides a stored verdict.
  TrialRecord first = sample_found_record();
  TrialRecord second = first;
  second.found = false;
  dist::ResultCache dup;
  dup.ingest(dist::ResultCache::encode_line(7, first) + dist::ResultCache::encode_line(7, second));
  ASSERT_EQ(dup.size(), 1u);
  EXPECT_TRUE(dup.view(7).lookup(first.key)->found);
}

TEST(ResumeFromStore, FailedAppendsCountAsErrorsNotStores) {
  // A store whose file cannot be created: every append throws, the
  // controller counts each one, and the campaign result is untouched.
  TempDir dir;
  const std::string path = (dir.path / "missing-dir" / "store.jsonl").string();
  CampaignConfig config = small_campaign();
  CampaignResult with_store = run_with_store(config, path);
  const CampaignResult without_store = run_campaign(config);

  EXPECT_EQ(with_store.metrics.counter("campaign.cache_errors"), with_store.strategies_tried);
  EXPECT_EQ(with_store.cache_stores, 0u);
  EXPECT_EQ(with_store.cache_hits, 0u);
  expect_same_result(with_store, without_store);
  EXPECT_FALSE(fs::exists(path));
}

TEST(ResumeFromStore, OtherCampaignsStoreNeverHits) {
  TempDir dir;
  const std::string path = (dir.path / "store.jsonl").string();
  CampaignConfig recorded = small_campaign();
  recorded.scenario.seed = 777;  // a store written by a different campaign
  EXPECT_EQ(run_with_store(recorded, path).cache_stores, 12u);

  CampaignConfig config = small_campaign();
  const CampaignResult result = run_with_store(config, path);
  EXPECT_EQ(result.cache_hits, 0u);
  EXPECT_EQ(result.strategies_tried, 12u);
  expect_same_result(result, run_campaign(config));
}

// The identity hash is the store's only gate, so every workload input must
// be in it. These two pairs share seed and profile and differ only in the
// workload: a resume must not replay one's verdicts into the other.

constexpr const char* kReplayTrace =
    "# snake-trace/v1\n"
    "0.0 web1 open\n"
    "0.2 web1 recv 80000\n"
    "0.6 web1 send 1500\n"
    "1.0 web1 recv 120000\n"
    "2.0 web1 close\n"
    "0.3 web2 open\n"
    "0.8 web2 recv 50000\n"
    "2.5 web2 close\n"
    "1.2 api open\n"
    "1.4 api send 700\n"
    "1.6 api recv 25000\n";

TEST(ResumeFromStore, TraceCampaignIgnoresBulkStore) {
  TempDir dir;
  const std::string path = (dir.path / "store.jsonl").string();
  CampaignConfig bulk = small_campaign();
  bulk.max_strategies = 8;
  EXPECT_EQ(run_with_store(bulk, path).cache_stores, 8u);

  CampaignConfig trace = bulk;
  trace.scenario.workload = Workload::kTrace;
  trace.scenario.trace_text = kReplayTrace;
  const CampaignResult warm = run_with_store(trace, path);
  EXPECT_EQ(warm.cache_hits, 0u);
  expect_same_result(warm, run_campaign(trace));
}

TEST(ResumeFromStore, Ccid3CampaignIgnoresCcid2Store) {
  TempDir dir;
  const std::string path = (dir.path / "store.jsonl").string();
  CampaignConfig ccid2;
  ccid2.scenario.protocol = Protocol::kDccp;
  ccid2.scenario.test_duration = Duration::seconds(5.0);
  ccid2.scenario.seed = 5;
  ccid2.scenario.dccp_ccid = 2;
  ccid2.generator = strategy::dccp_generator_config();
  ccid2.executors = 2;
  ccid2.max_strategies = 8;
  EXPECT_EQ(run_with_store(ccid2, path).cache_stores, 8u);

  CampaignConfig ccid3 = ccid2;
  ccid3.scenario.dccp_ccid = 3;
  const CampaignResult warm = run_with_store(ccid3, path);
  EXPECT_EQ(warm.cache_hits, 0u);
  expect_same_result(warm, run_campaign(ccid3));
}

// ------------------------------------------------- greybox search resume

TEST(ResumeFromStore, GreyboxResumedCampaignEqualsUninterruptedTwin) {
  TempDir dir;
  const std::string path = (dir.path / "store.jsonl").string();
  CampaignConfig config = small_campaign();
  config.max_strategies = 14;
  config.search_mode = search::SearchMode::kGreybox;
  config.search.round_size = 4;  // several refill barriers in 14 trials
  config.search.max_mutations = 12;
  const CampaignResult uninterrupted = run_campaign(config);

  // "Interrupted" campaign: dies after 7 of the 14 trials, store survives.
  CampaignConfig interrupted = config;
  interrupted.max_strategies = 7;
  EXPECT_EQ(run_with_store(interrupted, path).cache_stores, 7u);

  // Resume correctness comes from deterministic replay — every stored
  // verdict feeds the engine in commit order — so the resumed campaign
  // equals its uninterrupted twin, search trajectory included.
  const CampaignResult resumed = run_with_store(config, path);
  EXPECT_EQ(resumed.cache_hits, 7u);
  EXPECT_EQ(resumed.cache_stores, resumed.strategies_tried - 7);
  EXPECT_GT(resumed.search_rounds, 1u) << "campaign never crossed a refill barrier";
  expect_same_result(resumed, uninterrupted);
}

// ----------------------------------------------------- canonical identity

TEST(CanonicalKey, IgnoresGenerationOrderIdOnly) {
  strategy::Strategy a;
  a.id = 7;
  a.action = strategy::AttackAction::kDrop;
  a.packet_type = "RST";
  a.target_state = "FIN_WAIT_2";
  strategy::Strategy b = a;
  b.id = 99;  // same content, different emission order
  EXPECT_EQ(strategy::canonical_key(a), strategy::canonical_key(b));

  b.packet_type = "SYN";
  EXPECT_NE(strategy::canonical_key(a), strategy::canonical_key(b));
  b = a;
  b.lie = strategy::LieSpec{"window", strategy::LieSpec::Mode::kSet, 0};
  EXPECT_NE(strategy::canonical_key(a), strategy::canonical_key(b));
}

}  // namespace
}  // namespace snake::core
