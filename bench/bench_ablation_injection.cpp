// Empirical ablation of the Section IV.B attack-injection approaches.
//
// The paper argues analytically (Section VI.C) that the two baseline
// approaches need orders of magnitude more strategies; this bench runs the
// argument: give each approach the SAME strategy budget against the same
// implementation and count the confirmed attacks each finds. The
// protocol-state-aware approach concentrates its budget on semantically
// distinct injection points, so it finds far more within the budget; the
// baselines mostly burn theirs on redundant or empty injection points
// (send-packet: thousands of interchangeable mid-stream data packets;
// time-interval: 5 us slots that mostly contain no packet at all).
//
//   bench_ablation_injection [budget-per-approach] [duration-seconds]
//
// A non-numeric or extra argument prints the usage to stderr and exits 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "packet/tcp_format.h"
#include "snake/detector.h"
#include "snake/scenario.h"
#include "statemachine/protocol_specs.h"
#include "strategy/baselines.h"
#include "strategy/generator.h"
#include "tcp/profile.h"
#include "util/rng.h"

using namespace snake;
using namespace snake::core;

namespace {

struct ApproachResult {
  std::uint64_t tried = 0;
  std::uint64_t detected = 0;
  std::set<std::string> unique;
};

ApproachResult evaluate(const std::vector<strategy::Strategy>& strategies,
                        const ScenarioConfig& scenario, const RunMetrics& baseline,
                        const RunMetrics& retest_baseline) {
  ApproachResult result;
  ScenarioConfig retest = scenario;
  retest.seed += 1000003;
  for (const strategy::Strategy& s : strategies) {
    ++result.tried;
    RunMetrics run = run_scenario(scenario, s);
    Detection first = detect(baseline, run);
    if (!first.is_attack) continue;
    Detection second = detect(retest_baseline, run_scenario(retest, s));
    if (!second.is_attack) continue;
    ++result.detected;
    if (classify(s, packet::tcp_format(), first, run) == AttackClass::kTrueAttack)
      result.unique.insert(attack_signature(s, packet::tcp_format(), first, run));
  }
  return result;
}

int usage(const char* argv0, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s [budget-per-approach] [duration-seconds]\n",
               argv0, problem.c_str(), argv0);
  return 2;
}

/// A whole decimal number and nothing else: "--foo", "12x" and "-3" fail.
bool parse_count(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

/// A positive, finite number of seconds and nothing else.
bool parse_seconds(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(out) && out > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t budget = 120;
  double duration = 10.0;
  if (argc > 3) return usage(argv[0], std::string("unexpected argument ") + argv[3]);
  if (argc > 1 && !parse_count(argv[1], budget))
    return usage(argv[0], std::string("budget must be a whole number, got ") + argv[1]);
  if (argc > 2 && !parse_seconds(argv[2], duration))
    return usage(argv[0], std::string("duration must be positive seconds, got ") + argv[2]);

  ScenarioConfig scenario;
  scenario.protocol = Protocol::kTcp;
  scenario.tcp_profile = tcp::linux_3_13_profile();
  scenario.test_duration = Duration::seconds(duration);
  scenario.seed = 13;
  ScenarioConfig retest = scenario;
  retest.seed += 1000003;
  RunMetrics baseline = run_scenario(scenario, std::nullopt);
  RunMetrics retest_baseline = run_scenario(retest, std::nullopt);

  std::printf("== Ablation: injection approaches at equal budget (%llu strategies, "
              "%.0fs tests, linux-3.13) ==\n\n",
              (unsigned long long)budget, duration);

  // State-based: sample from the strategies SNAKE would schedule (client
  // strategies from baseline observations + off-path sweep), shuffled.
  strategy::GeneratorConfig gcfg = strategy::tcp_generator_config();
  gcfg.hitseq_max_packets = 8000;  // keep runtime comparable across approaches
  strategy::StrategyGenerator generator(packet::tcp_format(),
                                        statemachine::tcp_state_machine(), gcfg);
  std::vector<strategy::Strategy> state_based = generator.on_observations(
      baseline.client_observations, baseline.server_observations);
  {
    auto off = generator.off_path_strategies();
    state_based.insert(state_based.end(), off.begin(), off.end());
    Rng shuffle_rng(99);
    for (std::size_t i = state_based.size(); i > 1; --i)
      std::swap(state_based[i - 1], state_based[shuffle_rng.uniform(0, i - 1)]);
    if (state_based.size() > budget) state_based.resize(budget);
  }

  strategy::BaselineSamplerConfig bcfg;
  bcfg.test_seconds = duration;
  bcfg.packets_per_test = 13000 * static_cast<std::uint64_t>(duration) / 60 + 1;
  bcfg.inject_packet_types = gcfg.inject_packet_types;
  bcfg.inject_structural_fields = gcfg.inject_structural_fields;
  Rng rng_a(7), rng_b(8);
  auto send_packet = strategy::sample_send_packet_strategies(packet::tcp_format(), bcfg,
                                                             budget, rng_a);
  auto time_interval = strategy::sample_time_interval_strategies(packet::tcp_format(), bcfg,
                                                                 budget, rng_b);

  struct Row {
    const char* name;
    ApproachResult r;
  };
  Row rows[] = {
      {"protocol-state-aware", evaluate(state_based, scenario, baseline, retest_baseline)},
      {"send-packet-based", evaluate(send_packet, scenario, baseline, retest_baseline)},
      {"time-interval-based", evaluate(time_interval, scenario, baseline, retest_baseline)},
  };

  std::printf("  %-24s %8s %10s %18s\n", "approach", "tried", "detected", "unique true attacks");
  for (const Row& row : rows)
    std::printf("  %-24s %8llu %10llu %18zu\n", row.name,
                (unsigned long long)row.r.tried, (unsigned long long)row.r.detected,
                row.r.unique.size());

  std::printf(
      "\nReading: at equal budget the state-aware approach concentrates on\n"
      "semantically distinct (packet type, state) points and finds the most\n"
      "distinct attacks; send-packet-based wastes budget on interchangeable\n"
      "mid-stream packets; time-interval-based mostly lands in empty 5 us slots.\n");
  return 0;
}
