// Attack detection and post-hoc classification.
//
// Detection mirrors the paper's success criterion: "strategies that result
// in an increase or decrease in achieved throughput of at least 50% compared
// to the non-attack case or that cause the server-side socket to not be
// released normally after the connection is closed."
//
// Classification automates the paper's manual analysis:
//  - on-path: strategies only a man-in-the-middle could perform, or that
//    trivially break the attacker's own connection ("modifying the source or
//    destination ports or the header size do prevent a connection from being
//    established, but ... a malicious client could simply not initiate a
//    connection");
//  - false positives: hitseqwindow strategies whose performance impact comes
//    from injection volume rather than an actual in-window hit — the paper
//    inspects packet captures; we check whether the targeted connection was
//    actually reset.
#pragma once

#include <string>
#include <vector>

#include "packet/header_format.h"
#include "snake/scenario.h"
#include "strategy/strategy.h"

namespace snake::obs {
class JsonWriter;
struct JsonValue;
}

namespace snake::core {

struct Detection {
  bool is_attack = false;
  std::vector<std::string> reasons;

  // Throughput relative to baseline (1.0 = unchanged).
  double target_ratio = 1.0;
  double competing_ratio = 1.0;
  bool resource_exhaustion = false;
};

/// Compares a strategy run against the non-attack baseline.
Detection detect(const RunMetrics& baseline, const RunMetrics& run,
                 double threshold = 0.5);

/// Writes the detection as one JSON object (is_attack / target_ratio /
/// competing_ratio / resource_exhaustion / reasons) — campaign reports, the
/// dist wire protocol and the result cache all share this encoding, and it
/// round-trips exactly through detection_from_json (the JSON writer renders
/// doubles round-trippably).
void write_json(obs::JsonWriter& w, const Detection& d);

/// Parses write_json's encoding; missing fields keep their defaults.
Detection detection_from_json(const obs::JsonValue& v);

/// Scalar severity of a detection, used to rank strategies and to decide
/// whether a combined strategy beats its components: resource exhaustion
/// dominates, then the largest relative throughput deviation.
double impact_score(const Detection& detection);

enum class AttackClass {
  kOnPath,         ///< excluded: requires on-path capability / trivially self-harming
  kFalsePositive,  ///< hitseqwindow volume artifact
  kTrueAttack,
};

const char* to_string(AttackClass cls);

/// Classifies a *detected* strategy.
AttackClass classify(const strategy::Strategy& s, const packet::HeaderFormat& format,
                     const Detection& detection, const RunMetrics& run);

/// Signature used to fold functionally-identical strategies into unique
/// attacks ("many of these strategies are functionally the same attack, just
/// performed on a different field or with a different value"). Strategies
/// fold by mechanism (action, direction, field kind / packet type) and by
/// observed effect (reset, resource exhaustion, establishment prevention,
/// throughput shift) — the automated stand-in for the paper's manual
/// "functionally the same attack" analysis. `threshold` must match the one
/// given to detect(): the effect grouping uses the same ratio cut-offs, so
/// a detected attack always lands in a concrete effect class.
std::string attack_signature(const strategy::Strategy& s, const packet::HeaderFormat& format,
                             const Detection& detection, const RunMetrics& run,
                             double threshold = 0.5);

}  // namespace snake::core
