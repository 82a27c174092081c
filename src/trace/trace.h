// Trace-replay workloads: a dependency-free text format describing real
// per-flow application behaviour (when connections open, how many bytes each
// side pushes and when, when they close) plus the reconstructor that turns a
// trace into deterministic per-connection schedules a campaign can drive.
//
// The paper evaluates SNAKE against a fixed synthetic workload ("a large
// HTTP download"); trace replay lets a campaign exercise the same attack
// search against traffic shaped like a recorded deployment instead —
// short-lived request/response flows, long pauses, interleaved bidirectional
// bursts — while keeping every property campaigns rely on: the plan is a
// pure function of (trace text, options), so identical inputs give
// bit-identical trials on every backend.
//
// Format (one record per line, '#' comments and blank lines ignored):
//
//   # snake-trace/v1            <- required magic, first significant line
//   <time_s> <flow_id> open
//   <time_s> <flow_id> send <bytes>    <- client -> server payload
//   <time_s> <flow_id> recv <bytes>    <- server -> client payload
//   <time_s> <flow_id> close           <- client-initiated teardown
//
// Times are non-negative decimal seconds from trace start; flow ids are
// arbitrary whitespace-free tokens. Records for one flow must appear in
// non-decreasing time order, open first, close (if present) last. Flows
// without a close record stay open to the end of the run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace snake::trace {

enum class TraceOp { kOpen, kSend, kRecv, kClose };

struct TraceRecord {
  double at_s = 0.0;       ///< seconds from trace start
  std::string flow;        ///< flow identifier token
  TraceOp op = TraceOp::kOpen;
  std::uint64_t bytes = 0; ///< payload size for kSend / kRecv, else 0
};

struct ParsedTrace {
  std::vector<TraceRecord> records;  ///< in file order
  std::size_t flow_count = 0;
};

/// Parses snake-trace/v1 text. Returns nullopt on any malformed line,
/// missing magic, or per-flow ordering violation; `error` (optional) gets a
/// one-line human-readable reason with the offending line number.
std::optional<ParsedTrace> parse_trace(const std::string& text, std::string* error = nullptr);

/// One data burst within a flow. Exactly one of the byte counts is nonzero:
/// a trace `send` becomes client bytes, a `recv` server bytes.
struct FlowTransfer {
  double at_s = 0.0;
  std::uint64_t client_bytes = 0;
  std::uint64_t server_bytes = 0;
};

/// Everything the replay applications need to drive one connection.
struct FlowSchedule {
  std::string id;
  double open_at_s = 0.0;
  std::optional<double> close_at_s;
  std::vector<FlowTransfer> transfers;  ///< non-decreasing at_s
  std::uint64_t total_client_bytes = 0;
  std::uint64_t total_server_bytes = 0;
};

struct ReplayOptions {
  /// Keep at most this many flows (0 = all). Down-sampling is a keyed hash
  /// over flow ids, so the same (trace, seed, max_flows) always keeps the
  /// same subset regardless of trace record order.
  std::size_t max_flows = 0;
  std::uint64_t seed = 1;
  /// Multiplies every timestamp; <1 compresses a long trace into a short
  /// test window, >1 stretches it. Must be positive.
  double time_scale = 1.0;
};

struct ReplayPlan {
  /// Flows sorted by (open time, id) — the order the replay client opens
  /// connections in, which is also how the server pairs accepted
  /// connections with schedules.
  std::vector<FlowSchedule> flows;
  std::uint64_t total_client_bytes = 0;
  std::uint64_t total_server_bytes = 0;
  double horizon_s = 0.0;  ///< last scheduled instant across all flows
};

/// Reconstructs per-flow schedules from a parsed trace. Pure function of its
/// arguments: given the same trace text and options it returns the same plan
/// on every host, which is what lets distributed workers rebuild identical
/// workloads from the wire-shipped trace text.
ReplayPlan build_replay_plan(const ParsedTrace& trace, const ReplayOptions& options);

/// Stable 64-bit FNV-1a over the trace text — folded into the campaign
/// identity hash so verdicts from different traces never mix.
std::uint64_t trace_text_hash(const std::string& text);

}  // namespace snake::trace
