// Figure 2 reproduction: SNAKE's architecture, exercised end to end.
//
// The paper's diagram shows controller -> executor(s) -> {VMs, network
// emulator, attack proxy + state tracker} -> performance data -> controller.
// This bench drives a bounded campaign through exactly that loop and prints
// per-component activity counters, demonstrating each box exists and is on
// the critical path.
//
// Every number below (outside the Table-I summary line) comes straight out
// of the campaign's merged MetricsRegistry — the same counters the JSON
// reports carry — rather than being recomputed here from raw run results.
//
//   bench_fig2_pipeline [budget]
//
// A non-numeric or extra argument prints the usage to stderr and exits 2.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "snake/controller.h"
#include "strategy/generator.h"
#include "tcp/profile.h"

using namespace snake;
using namespace snake::core;

namespace {

std::uint64_t counter_or0(const obs::MetricsRegistry& m, const std::string& name) {
  auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second;
}

double gauge_or0(const obs::MetricsRegistry& m, const std::string& name) {
  auto it = m.gauges().find(name);
  return it == m.gauges().end() ? 0.0 : it->second;
}

void print_counter(const obs::MetricsRegistry& m, const char* label, const std::string& name) {
  std::printf("  %-40s %llu\n", label, (unsigned long long)counter_or0(m, name));
}

int usage(const char* argv0, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s [budget]\n",
               argv0, problem.c_str(), argv0);
  return 2;
}

/// A whole decimal number and nothing else: "--foo", "12x" and "-3" fail.
bool parse_count(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t budget = 120;
  if (argc > 2) return usage(argv[0], std::string("unexpected argument ") + argv[2]);
  if (argc > 1 && !parse_count(argv[1], budget))
    return usage(argv[0], std::string("budget must be a whole number, got ") + argv[1]);

  CampaignConfig config;
  config.scenario.protocol = Protocol::kTcp;
  config.scenario.tcp_profile = tcp::linux_3_13_profile();
  config.scenario.test_duration = Duration::seconds(10.0);
  config.scenario.seed = 3;
  config.generator = strategy::tcp_generator_config();
  config.executors = 8;
  config.max_strategies = budget;
  config.collect_metrics = true;

  std::printf("== Figure 2: SNAKE component pipeline (bounded campaign, %llu strategies) ==\n\n",
              (unsigned long long)budget);
  CampaignResult result = run_campaign(config);
  const obs::MetricsRegistry& m = result.metrics;

  std::printf("controller:\n");
  print_counter(m, "strategies scheduled & tried", "campaign.strategies_tried");
  print_counter(m, "flagged on first pass", "campaign.detected_first_pass");
  print_counter(m, "confirmed by retest", "campaign.retest_confirmed");
  print_counter(m, "rejected by retest", "campaign.retest_rejected");
  std::printf("  classified: on-path=%llu false-positive=%llu true=%llu (unique=%llu)\n",
              (unsigned long long)result.on_path, (unsigned long long)result.false_positives,
              (unsigned long long)result.true_attack_strategies,
              (unsigned long long)result.unique_true_attacks);

  std::printf("executor pool:\n");
  print_counter(m, "baseline scenario runs", "scenario.baseline_runs");
  print_counter(m, "attack scenario runs", "scenario.attack_runs");

  std::printf("network emulator (per-run substrate, summed):\n");
  print_counter(m, "simulator events executed", "sim.events_executed");
  print_counter(m, "simulator events cancelled", "sim.events_cancelled");
  std::uint64_t acquired = counter_or0(m, "sim.buffers_acquired");
  std::uint64_t reused = counter_or0(m, "sim.buffers_reused");
  std::printf("  %-40s %llu (%.1f%% recycled)\n", "packet buffers acquired",
              (unsigned long long)acquired,
              acquired == 0 ? 0.0 : 100.0 * (double)reused / (double)acquired);
  std::printf("  %-40s %.0f\n", "event pool slots (high-water)",
              gauge_or0(m, "sim.event_pool_slots"));
  print_counter(m, "bottleneck packets forwarded", "link.routerL->routerR.packets_forwarded");
  print_counter(m, "bottleneck packets dropped", "link.routerL->routerR.packets_dropped");

  std::printf("attack proxy + state tracker:\n");
  print_counter(m, "packets intercepted", "proxy.intercepted");
  print_counter(m, "packets matching a strategy", "proxy.matched");
  print_counter(m, "packets dropped by strategies", "proxy.action.dropped");
  print_counter(m, "packets injected by strategies", "proxy.action.injected");
  print_counter(m, "client state transitions tracked", "tracker.client.transitions");
  print_counter(m, "server state transitions tracked", "tracker.server.transitions");
  std::printf("  distinct (state, type, dir) observations  %zu client / %zu server\n",
              result.baseline.client_observations.size(),
              result.baseline.server_observations.size());
  std::printf("  client protocol states visited .......... %zu\n",
              result.baseline.client_state_stats.size());
  for (const auto& [state, stats] : result.baseline.client_state_stats) {
    std::printf("    %-12s visits=%llu time=%.3fs\n", state.c_str(),
                (unsigned long long)stats.visits, stats.total_time.to_seconds());
  }

  if (!result.found.empty()) {
    std::printf("\nsample confirmed strategies:\n");
    std::size_t shown = 0;
    for (const StrategyOutcome& o : result.found) {
      std::printf("  [%s] %s\n", to_string(o.cls), o.strat.describe().c_str());
      if (++shown == 8) break;
    }
  }
  return 0;
}
