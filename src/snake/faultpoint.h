// Deterministic fault injection for the campaign resilience layer.
//
// A long campaign must survive individual trials misbehaving — an event
// storm that never drains, a callback that stops advancing virtual time
// while burning wall clock, an exception thrown on a worker thread. None of those paths can be exercised by
// normal strategies, so tests and benches compile in a FaultPlan: a set of
// seed-/key-driven rules that make specific trials fail in specific ways,
// exactly reproducibly.
//
// Zero hot-path cost when disabled: production code paths carry only a
// null-pointer check (`plan != nullptr`), and every rule decision is a pure
// function of (kind, key, attempt) — no clocks, no global RNG — so fault
// schedules are identical across runs and thread interleavings.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/time.h"

namespace snake::sim {
class Scheduler;
}

namespace snake::core {

/// The degradation paths the resilience layer must prove out.
enum class FaultKind : std::uint8_t {
  kThrowInTrial,  ///< an event callback throws mid-scenario
  kEventStorm,    ///< self-rescheduling zero-delay event floods the queue
  kClockStall,    ///< virtual time crawls while wall clock burns
};

constexpr std::size_t kFaultKindCount = 3;

const char* to_string(FaultKind kind);

/// Exception thrown by the throw-in-trial site.
struct FaultInjectedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One injection rule: fire `kind` for trials whose key (the strategy id)
/// satisfies key % modulus == remainder, on attempts below `attempts`.
/// attempts=1 models a transient fault (first try fails, the retry is
/// clean); kAllAttempts models a persistent one (the strategy ends up
/// quarantined).
struct FaultRule {
  FaultKind kind = FaultKind::kThrowInTrial;
  std::uint64_t modulus = 1;
  std::uint64_t remainder = 0;
  std::uint32_t attempts = kAllAttempts;

  static constexpr std::uint32_t kAllAttempts = 0xffffffffu;

  bool matches(FaultKind k, std::uint64_t key, std::uint32_t attempt) const {
    return kind == k && attempt < attempts && modulus != 0 && key % modulus == remainder;
  }
};

/// An immutable-after-setup set of rules shared by every executor. The only
/// mutable state is the per-kind fire counters, which are atomics used for
/// reporting and assertions — never for decisions.
class FaultPlan {
 public:
  void add(const FaultRule& rule) { rules_.push_back(rule); }

  /// Whether any rule fires for this (kind, key, attempt). Deterministic and
  /// thread-safe; bumps the kind's fire counter when it fires.
  bool should_fire(FaultKind kind, std::uint64_t key, std::uint32_t attempt = 0) const;

  /// Times should_fire returned true for `kind` (across all threads).
  std::uint64_t fires(FaultKind kind) const {
    return fires_[static_cast<std::size_t>(kind)].load(std::memory_order_relaxed);
  }

  bool empty() const { return rules_.empty(); }
  /// The rules in insertion order (campaign_identity_hash folds them in).
  const std::vector<FaultRule>& rules() const { return rules_; }

 private:
  std::vector<FaultRule> rules_;
  mutable std::array<std::atomic<std::uint64_t>, kFaultKindCount> fires_{};
};

// --- Scenario-level actuators ----------------------------------------------
// Called by the scenario runner when the matching rule fires; each plants the
// degradation into the scheduler before run_until starts.

/// Event storm: schedules a callback that reschedules itself at the current
/// instant forever. Virtual time never advances past `after`; only an event
/// budget stops it.
void arm_event_storm(sim::Scheduler& scheduler, Duration after);

/// Clock stall: schedules a callback that sleeps ~1 ms of wall time, then
/// reschedules itself 1 us of virtual time later — the virtual clock crawls
/// while wall time burns, so only a wall-clock deadline stops it.
void arm_clock_stall(sim::Scheduler& scheduler, Duration after);

/// Throw-in-trial: schedules a callback that throws FaultInjectedError,
/// unwinding out of run_until through the scenario into the trial guard.
void arm_throw_in_trial(sim::Scheduler& scheduler, Duration after);

// --- Dist wire fault domain -------------------------------------------------
// Chaos injection for the coordinator<->worker transport (src/dist). The
// scenario faults above corrupt *trials*; these corrupt the *wire* the trial
// results travel on, so the fleet's recovery machinery — malformed-frame
// kills, shard requeue, supervised respawn — gets exercised against every
// byte-level failure a real network or a dying process can produce. Like
// FaultPlan, decisions are pure functions of (seed, fault, operation index):
// no clocks, no global RNG, zero cost on the send path when no plan is set
// (a single null-pointer check).

/// The wire degradations the fleet must survive.
enum class WireFault : std::uint8_t {
  kTornFrame,       ///< frame truncated mid-write (peer desyncs, then kills)
  kGarbageBytes,    ///< junk bytes injected between frames (bogus length prefix)
  kDuplicateFrame,  ///< frame transmitted twice (dedup at the receiver)
  kDelayFrame,      ///< frame held back, flushed ahead of the next send
  kStallHeartbeat,  ///< worker heartbeat sender skips beats (liveness timeout)
  kDieMidWrite,     ///< process _exits halfway through a frame write
};

constexpr std::size_t kWireFaultCount = 6;

const char* to_string(WireFault fault);

constexpr std::uint32_t wire_fault_bit(WireFault fault) {
  return 1u << static_cast<unsigned>(fault);
}
/// Every wire fault enabled at once (the chaos-soak configuration).
constexpr std::uint32_t kAllWireFaults = (1u << kWireFaultCount) - 1;
/// Faults that are only safe in a worker process: the coordinator must never
/// _exit mid-campaign, and only workers send heartbeats.
constexpr std::uint32_t kWorkerOnlyWireFaults =
    wire_fault_bit(WireFault::kDieMidWrite) | wire_fault_bit(WireFault::kStallHeartbeat);

/// Seed-keyed wire chaos schedule. Each enabled fault fires on roughly one in
/// `period` operations (frame sends / heartbeat ticks), chosen by hashing
/// (seed, fault, op) — deterministic for a given seed, independent across
/// fault kinds, reproducible from the seed a failing soak run prints. The
/// per-kind fire counters are atomics used for reporting only.
class WireFaultPlan {
 public:
  WireFaultPlan(std::uint64_t seed, std::uint32_t mask, std::uint32_t period)
      : seed_(seed), mask_(mask), period_(period) {}

  bool enabled() const { return mask_ != 0 && period_ != 0; }
  std::uint64_t seed() const { return seed_; }
  std::uint32_t mask() const { return mask_; }
  std::uint32_t period() const { return period_; }

  /// Whether `fault` fires on operation `op`. Pure function of
  /// (seed, fault, op); bumps the fault's fire counter when it fires.
  bool should_fire(WireFault fault, std::uint64_t op) const;

  /// Times should_fire returned true for `fault` (across all threads).
  std::uint64_t fires(WireFault fault) const {
    return fires_[static_cast<std::size_t>(fault)].load(std::memory_order_relaxed);
  }
  std::uint64_t total_fires() const;

  /// The same plan with worker-only faults stripped, for the coordinator's
  /// end of the socketpair.
  WireFaultPlan coordinator_side() const {
    return WireFaultPlan(seed_, mask_ & ~kWorkerOnlyWireFaults, period_);
  }

 private:
  std::uint64_t seed_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t period_ = 0;
  mutable std::array<std::atomic<std::uint64_t>, kWireFaultCount> fires_{};
};

}  // namespace snake::core
