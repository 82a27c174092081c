#include "snake/faultpoint.h"

#include <chrono>
#include <thread>

#include "sim/scheduler.h"

namespace snake::core {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kThrowInTrial: return "throw-in-trial";
    case FaultKind::kEventStorm: return "event-storm";
    case FaultKind::kClockStall: return "clock-stall";
  }
  return "?";
}

bool FaultPlan::should_fire(FaultKind kind, std::uint64_t key, std::uint32_t attempt) const {
  for (const FaultRule& rule : rules_) {
    if (rule.matches(kind, key, attempt)) {
      fires_[static_cast<std::size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

namespace {

void storm_tick(sim::Scheduler& scheduler) {
  scheduler.schedule_in(Duration::seconds(0), [&scheduler] { storm_tick(scheduler); });
}

void stall_tick(sim::Scheduler& scheduler) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  scheduler.schedule_in(Duration::seconds(1e-6), [&scheduler] { stall_tick(scheduler); });
}

}  // namespace

void arm_event_storm(sim::Scheduler& scheduler, Duration after) {
  scheduler.schedule_in(after, [&scheduler] { storm_tick(scheduler); });
}

void arm_clock_stall(sim::Scheduler& scheduler, Duration after) {
  scheduler.schedule_in(after, [&scheduler] { stall_tick(scheduler); });
}

void arm_throw_in_trial(sim::Scheduler& scheduler, Duration after) {
  scheduler.schedule_in(after, [] {
    throw FaultInjectedError("fault point: throw-in-trial");
  });
}

const char* to_string(WireFault fault) {
  switch (fault) {
    case WireFault::kTornFrame: return "torn-frame";
    case WireFault::kGarbageBytes: return "garbage-bytes";
    case WireFault::kDuplicateFrame: return "duplicate-frame";
    case WireFault::kDelayFrame: return "delay-frame";
    case WireFault::kStallHeartbeat: return "stall-heartbeat";
    case WireFault::kDieMidWrite: return "die-mid-write";
  }
  return "?";
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool WireFaultPlan::should_fire(WireFault fault, std::uint64_t op) const {
  if ((mask_ & wire_fault_bit(fault)) == 0 || period_ == 0) return false;
  const auto index = static_cast<std::uint64_t>(fault);
  const std::uint64_t h = splitmix64(seed_ ^ splitmix64(index + 1) ^ op * 0x2545f4914f6cdd1dull);
  if (h % period_ != 0) return false;
  fires_[static_cast<std::size_t>(fault)].fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t WireFaultPlan::total_fires() const {
  std::uint64_t total = 0;
  for (const auto& f : fires_) total += f.load(std::memory_order_relaxed);
  return total;
}

}  // namespace snake::core
