// Traced replay: after the campaign, a fixed sample of its committed trials
// is replayed, single-threaded, through the public functions of each layer —
// execute_trial, run_scenario, SnapshotStore::run_trial, detect, the packet
// codec and tracker, the strategy generator, the greybox SearchEngine, the
// dist wire codec and the trace parser/planner (on the seed's trace from
// tools/trace_gen, whatever the workload) — with a span around every call. The
// replayed verdicts must equal the campaign's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "snake/controller.h"
#include "spans.h"
#include "workload.h"

namespace bench {

struct ReplayInput {
  const snake::core::CampaignConfig* config = nullptr;
  const snake::core::CampaignResult* result = nullptr;
  const std::vector<CommittedTrial>* trials = nullptr;  ///< live trials, dispatch order
  Tracer* tracer = nullptr;
  const std::string* trace_text = nullptr;  ///< the seed's trace (--trace-file)
};

struct ReplayOutput {
  std::map<std::string, double> metrics;  ///< per-layer metrics measured by the replay
  std::uint64_t replayed = 0;
  /// Sampled trials whose replayed verdict differs from the campaign's, plus
  /// baselines that differ from the campaign's baseline.
  std::uint64_t verdict_mismatches = 0;
};

ReplayOutput run_replay(const ReplayInput& in);

}  // namespace bench
