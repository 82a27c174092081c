// The guarded trial body shared by every TrialBackend, plus the default
// in-process thread-pool backend.
//
// execute_trial() is the exact per-strategy protocol of the paper's
// executor: run the attack scenario, compare against the non-attack
// baseline, retest candidates under a different seed, retry failed attempts
// under a perturbed seed, and fold it all into one TrialRecord. Pulling it
// out of the controller lets worker *processes* (src/dist) run the identical
// code path — determinism across backends falls out of sharing the body.
#pragma once

#include <cstdint>
#include <vector>

#include "packet/header_format.h"
#include "snake/backend.h"
#include "snake/scenario.h"

namespace snake::core {

class SnapshotStore;

/// Everything a trial body needs besides the strategy itself. The pointed-to
/// objects must outlive the calls (they live in the campaign coordinator or
/// the worker process main loop).
struct TrialContext {
  const ScenarioConfig* run_template = nullptr;     ///< attack-run config (seed base)
  const ScenarioConfig* retest_template = nullptr;  ///< repeatability-run config
  const RunMetrics* baseline = nullptr;
  const RunMetrics* retest_baseline = nullptr;
  const packet::HeaderFormat* format = nullptr;
  double threshold = 0.5;
  std::uint32_t max_attempts = 1;
  std::uint64_t retry_seed_offset = 7919;
  /// Snapshot-fork layer for this executor (optional, not owned). When set,
  /// first-attempt runs are served from checkpoints where eligible (see
  /// snapshot.h); retries and ineligible runs replay from zero as before.
  SnapshotStore* snapshots = nullptr;
};

/// Converts a run's raw observation stream into the recorded form: the
/// deduplicated (state, packet type) *send* pairs in first-occurrence order.
/// This is exactly the subset StrategyGenerator::on_observations consumes
/// (it ignores receive-events and dedups via its covered set), so feeding
/// these pairs back — live, from the store, or over a wire — reproduces the
/// generator's output verbatim.
std::vector<JournalObservation> journal_observations(
    const std::vector<statemachine::EndpointTracker::Observation>& obs);

/// Runs one strategy to a terminal TrialRecord: completed (with detection
/// payload when found and retest-confirmed) or failed-every-attempt
/// (aborted/errored — the caller quarantines it). `reg` may be null.
TrialRecord execute_trial(ScenarioArena& arena, const TrialContext& ctx,
                          const strategy::Strategy& strat, obs::MetricsRegistry* reg);

/// The default backend: `executors` in-process threads, each owning a
/// ScenarioArena and (when metrics are on) a private registry merged at
/// finish(). Replaces the controller's previous hand-rolled pool; with the
/// coordinator's in-order commits, campaigns are now deterministic for any
/// executor count, not just one.
class ThreadBackend : public TrialBackend {
 public:
  explicit ThreadBackend(int executors);
  ~ThreadBackend() override;

  bool start(const CampaignConfig& config, const RunMetrics& baseline,
             const RunMetrics& retest_baseline) override;
  std::size_t capacity() const override;
  void submit(TrialTask task) override;
  TrialOutcome wait_outcome() override;
  void finish(obs::MetricsRegistry* into) override;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace snake::core
