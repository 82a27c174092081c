// Trial records and the campaign identity they are stored under.
//
// A trial is a pure function of (campaign identity, canonical strategy
// key): every other input (topology, stacks, RNG streams) is derived
// deterministically from the seed. So a TrialRecord — the verdict plus the
// state-machine observations that drive the generator's feedback loop — is
// the whole of a trial's contribution to a campaign, and one store of
// records keyed by (campaign_identity_hash, canonical_key) is the campaign's
// checkpoint. dist::ResultCache is that store: a campaign re-run against the
// store that an interrupted run wrote replays the stored prefix and
// reproduces the uninterrupted CampaignResult. This is the SNPSFuzzer idea —
// cheap mid-campaign state capture — realized without process snapshots.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "snake/detector.h"

namespace snake::core {

struct CampaignConfig;

/// Terminal state of one strategy's trial (after any retries).
enum class TrialVerdict : std::uint8_t {
  kCompleted,    ///< ran to a detection verdict (found or not)
  kAborted,      ///< final attempt cut off by the trial watchdog
  kErrored,      ///< final attempt threw; converted to an errored outcome
  kQuarantined,  ///< failed every attempt; excluded from results
};

const char* to_string(TrialVerdict verdict);

/// A deduplicated (state, packet type) send-observation — the part of a
/// run's tracker feedback the strategy generator consumes.
struct JournalObservation {
  std::string state;
  std::string packet_type;
  auto operator<=>(const JournalObservation&) const = default;
};

/// Everything the controller needs to treat a stored strategy as done.
struct TrialRecord {
  std::string key;  ///< strategy::canonical_key of the trial's strategy
  TrialVerdict verdict = TrialVerdict::kCompleted;
  std::uint32_t attempts = 1;
  std::uint32_t aborted_attempts = 0;
  std::uint32_t errored_attempts = 0;
  std::string failure_reason;  ///< last abort/error reason ("" when clean)

  /// Detection payload, present when the strategy was found (detected and
  /// retest-confirmed).
  bool found = false;
  Detection detection;
  AttackClass cls = AttackClass::kTrueAttack;
  std::string signature;

  /// Send-observations from the successful attempt's run, replayed into the
  /// generator on a store hit so incremental strategy generation continues
  /// identically.
  std::vector<JournalObservation> client_obs;
  std::vector<JournalObservation> server_obs;
};

/// Writes one trial record as a JSON object — the encoding the result cache
/// stores and the dist wire protocol carries, so a record survives either
/// round trip unchanged.
void write_json(obs::JsonWriter& w, const TrialRecord& record);

/// Parses write_json's encoding. nullopt on a line that is not a valid
/// record (missing key/verdict, or a found-record without its detection
/// payload).
std::optional<TrialRecord> trial_record_from_json(const obs::JsonValue& v);

/// Content-addressed campaign identity: a 64-bit FNV-1a over every config
/// field that can change a trial's outcome for a given canonical strategy
/// key — protocol, implementation profile, seed, durations, workload and
/// topology shape, detection threshold, retry/retest plumbing. Strategies
/// are *not* part of it (the cache keys trials by canonical_key under this
/// hash); neither is anything that only changes which strategies get tried
/// (generator config, search mode, max_strategies, executors, backend). A
/// fault plan folds in rule by rule: injected faults perturb verdicts, so
/// two different plans — or a plan and none — never share stored verdicts.
/// This hash is the only gate a stored verdict passes, so it must be
/// complete.
std::uint64_t campaign_identity_hash(const CampaignConfig& config);

}  // namespace snake::core
