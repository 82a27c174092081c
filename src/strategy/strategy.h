// The attack-strategy data model.
//
// A strategy is one of the paper's packet-level *basic attacks* bound to a
// (packet type, protocol state) pair: "an attack strategy may be to
// duplicate packets of type W ten times, or to inject a new packet of type X
// with field 3 set to Y, or to modify field 5 of packet type Z to 555. Each
// of these attack strategies are performed in particular protocol states."
//
// Malicious-client attacks (drop, duplicate, delay, batch, reflect, lie) are
// applied by the proxy to matching packets of the target connection.
// Off-path attacks (inject, hitseqwindow) spoof new packets into a
// connection, fired when the tracked endpoint enters the target state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace snake::obs {
class JsonWriter;
struct JsonValue;
}

namespace snake::strategy {

enum class AttackAction {
  kDrop,
  kDuplicate,
  kDelay,
  kBatch,
  kReflect,
  kLie,
  kInject,
  kHitSeqWindow,
};

const char* to_string(AttackAction action);

/// Which traffic a malicious-client action applies to, relative to the
/// proxied (malicious) client node.
enum class TrafficDirection {
  kClientToServer,  ///< packets the malicious client sends
  kServerToClient,  ///< packets the malicious client receives
};

const char* to_string(TrafficDirection direction);

/// Field modification for the lie attack: "setting particular values,
/// setting random values, or adding/subtracting/multiplying/dividing the
/// current value by some factor".
struct LieSpec {
  enum class Mode { kSet, kRandom, kAdd, kSubtract, kMultiply, kDivide };
  std::string field;
  Mode mode = Mode::kSet;
  std::uint64_t operand = 0;

  std::string describe() const;
};

/// Forged-packet description for the off-path attacks. Injection fires when
/// the tracked target endpoint enters the strategy's target state.
struct InjectSpec {
  std::string packet_type;                         ///< built via the format codec
  std::map<std::string, std::uint64_t> fields;     ///< absolute field values
  bool spoof_toward_client = true;  ///< true: forged server->client packet;
                                    ///< false: forged client->server packet
  bool target_competing = true;     ///< true: inject into the competing
                                    ///< (off-path) connection, Figure 1(b);
                                    ///< false: into the proxied connection

  // hitseqwindow sweep parameters: `count` packets whose `seq_field` starts
  // at seq_start and advances by seq_stride (receive-window intervals, per
  // the Reset attack analysis of Watson).
  std::string seq_field = "seq";
  std::uint64_t seq_start = 0;
  std::uint64_t seq_stride = 0;
  std::uint64_t count = 1;
  double pace_pps = 20000;  ///< injection pacing for sweeps
};

/// How a strategy selects its attack injection points — the three
/// approaches Section IV.B compares. SNAKE uses kStateBased; the other two
/// exist so the search-space comparison can be run empirically
/// (bench_ablation_injection).
enum class MatchMode {
  kStateBased,   ///< (packet type, sender protocol state) pairs
  kPacketIndex,  ///< the Nth packet sent in a direction (send-packet-based)
  kTimeWindow,   ///< a fixed interval of test time (time-interval-based)
};

const char* to_string(MatchMode mode);

struct Strategy {
  std::uint64_t id = 0;
  AttackAction action = AttackAction::kDrop;

  MatchMode match_mode = MatchMode::kStateBased;

  /// kStateBased match criteria: apply to packets of `packet_type` whose
  /// *sender* is in `target_state` ("two packets of the same type received
  /// in the same protocol state usually cause similar results"). "*"
  /// matches any type.
  std::string packet_type = "*";
  std::string target_state;
  TrafficDirection direction = TrafficDirection::kClientToServer;

  /// kPacketIndex: ordinal (0-based) of the packet in `direction` to hit.
  std::uint64_t packet_index = 0;

  /// kTimeWindow: the injection slot, in seconds from scenario start.
  double window_start_seconds = 0.0;
  double window_length_seconds = 0.0;

  double drop_probability = 100.0;  ///< kDrop, percent
  int duplicate_count = 1;          ///< kDuplicate
  double delay_seconds = 0.0;       ///< kDelay / kBatch window
  std::optional<LieSpec> lie;       ///< kLie
  std::optional<InjectSpec> inject; ///< kInject / kHitSeqWindow

  /// One-line human-readable form used in reports and logs.
  std::string describe() const;
};

/// Content-addressed identity for the trial store: a deterministic
/// rendering of every semantic field *except* the generation-order `id`, so
/// a stored trial is recognised by what the strategy does, not by the
/// order the generator happened to emit it in. Two strategies compare equal
/// under this key iff they drive the proxy identically.
std::string canonical_key(const Strategy& s);

/// Writes the strategy as one JSON object (strategy_json.cpp). The encoding
/// round-trips exactly through strategy_from_json — every field including
/// `id`, with doubles rendered round-trippably by the JSON writer — so a
/// strategy shipped to a worker process (src/dist wire protocol) executes
/// identically to one kept in memory. Integer fields above 2^53 would lose
/// precision in the double-backed parser; nothing the generator emits gets
/// near that.
void write_json(obs::JsonWriter& w, const Strategy& s);

/// Parses write_json's encoding. Returns nullopt on a malformed document
/// (wrong shape, unknown enum name) rather than guessing — a half-parsed
/// strategy executing the wrong attack would silently corrupt a campaign.
std::optional<Strategy> strategy_from_json(const obs::JsonValue& v);

}  // namespace snake::strategy
