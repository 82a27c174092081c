#include "replay.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "dccp/packet.h"
#include "dist/wire.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "packet/dccp_format.h"
#include "proxy/attack_proxy.h"
#include "search/search.h"
#include "sim/dumbbell.h"
#include "sim/packet.h"
#include "snake/arena.h"
#include "snake/detector.h"
#include "snake/journal.h"
#include "snake/snapshot.h"
#include "snake/trial_runner.h"
#include "statemachine/tracker.h"
#include "strategy/generator.h"
#include "tcp/segment.h"
#include "trace/trace.h"

using namespace snake;
using namespace snake::core;

namespace bench {
namespace {

// Trials replayed per traced run, spread evenly over the dispatch order.
constexpr std::size_t kSampleTrials = 24;
// Repeats of the sub-microsecond calls, so one timing spans many calls.
constexpr int kMicroRepeats = 50;
// Flows kept when planning the trace (it holds 12; see run.py).
constexpr std::size_t kTraceMaxFlows = 6;

using Clock = std::chrono::steady_clock;

// Results of timed calls are folded in here so the compiler keeps the calls.
volatile std::uint64_t g_sink = 0;

double elapsed_ns(Clock::time_point since) {
  return std::chrono::duration<double, std::nano>(Clock::now() - since).count();
}

/// Copies the packet capture of an inspected run.
class CaptureInspector : public RunInspector {
 public:
  void on_run_complete(sim::Dumbbell& net, proxy::AttackProxy&, const RunMetrics&) override {
    client1 = net.client1().name();
    entries = net.network().trace().entries();
  }
  std::string client1;
  std::vector<sim::TraceEntry> entries;
};

/// A record's journal encoding, which round-trips exactly.
std::string encode(const TrialRecord& record) {
  obs::JsonWriter w;
  write_json(w, record);
  return w.take();
}

std::vector<statemachine::EndpointTracker::Observation> as_observations(
    const std::vector<JournalObservation>& pairs) {
  std::vector<statemachine::EndpointTracker::Observation> out;
  for (const JournalObservation& p : pairs)
    out.push_back({p.state, p.packet_type, statemachine::TriggerKind::kSend});
  return out;
}

struct WireCounts {
  double segments = 0, retransmits = 0, sack_blocks = 0;  // TCP
  double packets = 0, syncs = 0;                           // DCCP
};

/// Endpoint-level counts from the capture: every packet a host handed to the
/// network (proxy injections excluded).
WireCounts count_wire(const std::vector<sim::TraceEntry>& entries, Protocol protocol) {
  WireCounts c;
  std::map<std::pair<sim::Address, std::uint16_t>, std::uint32_t> highest_end;
  for (const sim::TraceEntry& e : entries) {
    if (e.kind != sim::TraceKind::kSend) continue;
    if (protocol == Protocol::kTcp && e.packet.protocol == sim::kProtoTcp) {
      std::optional<tcp::Segment> seg = tcp::parse_segment(e.packet.bytes);
      if (!seg.has_value()) continue;
      ++c.segments;
      c.sack_blocks += static_cast<double>(seg->sack_blocks.size());
      if (seg->payload.empty()) continue;
      const auto flow = std::make_pair(e.packet.src, seg->src_port);
      const std::uint32_t end = seg->seq + static_cast<std::uint32_t>(seg->payload.size());
      auto it = highest_end.find(flow);
      if (it == highest_end.end()) {
        highest_end.emplace(flow, end);
      } else {
        if (tcp::seq_lt(seg->seq, it->second)) ++c.retransmits;
        if (tcp::seq_lt(it->second, end)) it->second = end;
      }
    } else if (protocol == Protocol::kDccp && e.packet.protocol == sim::kProtoDccp) {
      std::optional<dccp::DccpPacket> pkt = dccp::parse_dccp(e.packet.bytes);
      if (!pkt.has_value()) continue;
      ++c.packets;
      if (pkt->type == packet::kDccpSync || pkt->type == packet::kDccpSyncAck) ++c.syncs;
    }
  }
  return c;
}

struct ProxyPacket {
  const Bytes* raw;
  bool sent;  ///< client1 sent it (else client1 received it)
  TimePoint at;
};

}  // namespace

ReplayOutput run_replay(const ReplayInput& in) {
  const CampaignConfig& config = *in.config;
  const std::vector<CommittedTrial>& trials = *in.trials;
  Tracer* tracer = in.tracer;
  const Protocol protocol = config.scenario.protocol;
  const packet::HeaderFormat& format = format_for_protocol(protocol);
  const statemachine::StateMachine& machine = machine_for_protocol(protocol);
  ReplayOutput out;
  std::map<std::string, double>& m = out.metrics;
  const int root = tracer->begin("replay");

  // ---- Baselines and the trial context, built the way ThreadBackend does.
  ScenarioConfig run_template = config.scenario;
  run_template.early_exit = config.early_exit;
  ScenarioConfig retest_template = run_template;
  retest_template.seed += config.retest_seed_offset;
  ScenarioArena arena;
  RunMetrics baseline, retest_baseline;
  {
    ScopedSpan span(tracer, "replay.baselines");
    baseline = run_scenario(arena, run_template, std::nullopt);
    retest_baseline = run_scenario(arena, retest_template, std::nullopt);
  }
  if (baseline.target_bytes != in.result->baseline.target_bytes) ++out.verdict_mismatches;
  SnapshotStore snapshots;
  snapshots.set_max_sessions_per_seed(1);
  TrialContext ctx;
  ctx.run_template = &run_template;
  ctx.retest_template = &retest_template;
  ctx.baseline = &baseline;
  ctx.retest_baseline = &retest_baseline;
  ctx.format = &format;
  ctx.threshold = config.detect_threshold;
  ctx.max_attempts = std::max<std::uint32_t>(1, config.trial_attempts);
  ctx.retry_seed_offset = config.retry_seed_offset;
  ctx.snapshots = config.use_snapshots ? &snapshots : nullptr;

  // ---- Sampled trials through execute_trial, run_scenario, the snapshot
  // fork, detect, and one inspected run for the wire-level counts.
  std::vector<std::size_t> sample;
  const std::size_t k = std::min(kSampleTrials, trials.size());
  for (std::size_t i = 0; i < k; ++i) sample.push_back(i * trials.size() / k);
  double scenario_ns = 0, scenario_events = 0, detect_ns = 0;
  std::vector<double> scenario_ms, fork_ms;
  WireCounts wire;
  std::vector<ProxyPacket> proxy_packets;
  std::vector<CaptureInspector> captures(sample.size());
  for (std::size_t si = 0; si < sample.size(); ++si) {
    const CommittedTrial& t = trials[sample[si]];
    const std::string& key = t.record.key;
    TrialRecord again;
    {
      ScopedSpan span(tracer, "replay.execute_trial", key);
      again = execute_trial(arena, ctx, t.strat, nullptr);
    }
    if (encode(again) != encode(t.record)) ++out.verdict_mismatches;
    ++out.replayed;

    obs::MetricsRegistry reg;
    ScenarioConfig cfg = run_template;
    cfg.metrics = &reg;
    RunMetrics run;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "replay.run_scenario", key);
      run = run_scenario(arena, cfg, t.strat);
    }
    const double ns = elapsed_ns(t0);
    scenario_ns += ns;
    scenario_ms.push_back(ns / 1e6);
    scenario_events += static_cast<double>(reg.counters().count("sim.events_executed")
                                               ? reg.counters().find("sim.events_executed")->second
                                               : 0);

    if (config.use_snapshots && SnapshotStore::eligible(run_template, {t.strat})) {
      t0 = Clock::now();
      std::optional<RunMetrics> forked;
      {
        ScopedSpan span(tracer, "replay.fork_trial", key);
        forked = snapshots.run_trial(run_template, {t.strat});
      }
      if (forked.has_value()) fork_ms.push_back(elapsed_ns(t0) / 1e6);
    }

    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "replay.detect", key);
      for (int r = 0; r < kMicroRepeats; ++r)
        g_sink = g_sink + detect(baseline, run, config.detect_threshold).reasons.size();
    }
    detect_ns += elapsed_ns(t0) / kMicroRepeats;

    ScenarioConfig inspected = run_template;
    inspected.inspector = &captures[si];
    {
      ScopedSpan span(tracer, "replay.inspected_run", key);
      run_scenario(arena, inspected, t.strat);
    }
    const WireCounts c = count_wire(captures[si].entries, protocol);
    wire.segments += c.segments;
    wire.retransmits += c.retransmits;
    wire.sack_blocks += c.sack_blocks;
    wire.packets += c.packets;
    wire.syncs += c.syncs;
    for (const sim::TraceEntry& e : captures[si].entries) {
      if (e.where != captures[si].client1) continue;
      const std::uint8_t proto = protocol == Protocol::kTcp ? sim::kProtoTcp : sim::kProtoDccp;
      if (e.packet.protocol != proto) continue;
      if (e.kind == sim::TraceKind::kSend || e.kind == sim::TraceKind::kDeliver)
        proxy_packets.push_back({&e.packet.bytes, e.kind == sim::TraceKind::kSend, e.at});
    }
  }
  const double ns_trials = std::max<double>(1.0, static_cast<double>(sample.size()));
  m["sim.ns_per_event"] = scenario_events > 0 ? scenario_ns / scenario_events : 0.0;
  m["snake.scenario_run_ms_p50"] = median(scenario_ms);
  m["snake.fork_trial_ms_p50"] = median(fork_ms);
  m["snake.detect_us"] = detect_ns / ns_trials / 1e3;
  m["tcp.segments_per_trial"] = wire.segments / ns_trials;
  m["tcp.retransmits_per_trial"] = wire.retransmits / ns_trials;
  m["tcp.sack_blocks_per_trial"] = wire.sack_blocks / ns_trials;
  m["dccp.packets_per_trial"] = wire.packets / ns_trials;
  m["dccp.syncs_per_trial"] = wire.syncs / ns_trials;

  // ---- Packet codec and tracker micro-replays over the packets client1
  // sent and received in the inspected runs.
  double parse_ns = 0, classify_ns = 0, observe_ns = 0;
  if (!proxy_packets.empty()) {
    const double n = static_cast<double>(proxy_packets.size()) * kMicroRepeats;
    std::uint64_t sink = 0;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "replay.packet_parse");
      for (int r = 0; r < kMicroRepeats; ++r)
        for (const ProxyPacket& p : proxy_packets)
          for (std::size_t f = 0; f < format.fields().size(); ++f)
            sink += format.read(*p.raw, format.compiled_at(f));
    }
    parse_ns = elapsed_ns(t0) / n;
    std::vector<std::string> types;
    types.reserve(proxy_packets.size());
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "replay.packet_classify");
      for (int r = 0; r < kMicroRepeats; ++r)
        for (const ProxyPacket& p : proxy_packets)
          sink += static_cast<std::uint64_t>(format.classify_index(*p.raw) + 1);
    }
    classify_ns = elapsed_ns(t0) / n;
    for (const ProxyPacket& p : proxy_packets) {
      const int idx = format.classify_index(*p.raw);
      types.push_back(idx >= 0 ? format.type_name(idx) : std::string("unknown"));
    }
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "replay.tracker_observe");
      for (int r = 0; r < kMicroRepeats; ++r) {
        statemachine::EndpointTracker tracker(machine, statemachine::Role::kClient,
                                              proxy_packets.front().at);
        for (std::size_t i = 0; i < proxy_packets.size(); ++i)
          sink += tracker.observe(proxy_packets[i].sent ? statemachine::TriggerKind::kSend
                                                        : statemachine::TriggerKind::kReceive,
                                  types[i], proxy_packets[i].at);
      }
    }
    observe_ns = elapsed_ns(t0) / n;
    g_sink = g_sink + sink;
  }
  m["packet.parse_ns"] = parse_ns;
  m["packet.classify_ns"] = classify_ns;
  m["statemachine.observe_ns"] = observe_ns;

  // ---- Strategy generation: the campaign's up-front universe.
  std::vector<strategy::Strategy> universe;
  std::vector<double> generate_ms;
  for (int r = 0; r < 3; ++r) {
    Clock::time_point t0 = Clock::now();
    ScopedSpan span(tracer, "replay.generate");
    strategy::StrategyGenerator generator(format, machine, config.generator);
    universe = generator.on_observations(baseline.client_observations,
                                         baseline.server_observations);
    std::vector<strategy::Strategy> off = generator.off_path_strategies();
    universe.insert(universe.end(), off.begin(), off.end());
    generate_ms.push_back(elapsed_ns(t0) / 1e6);
  }
  m["strategy.universe_size"] = static_cast<double>(universe.size());
  m["strategy.generate_ms"] = median(generate_ms);

  // ---- Greybox search: drive a fresh engine from the campaign's committed
  // records, and count attacks among the campaign's mutation children.
  m["search.next_round_ms"] = 0.0;
  m["search.on_result_us"] = 0.0;
  m["search.mutation_yield"] = 0.0;
  if (config.search_mode == search::SearchMode::kGreybox) {
    std::map<std::string, const TrialRecord*> by_key;
    for (const CommittedTrial& t : trials) by_key.emplace(t.record.key, &t.record);
    search::SearchEngine engine(config.search, config.scenario.seed, format, machine);
    engine.offer(universe);
    std::set<std::pair<std::string, std::string>> covered;
    std::vector<double> round_ms, result_us;
    std::size_t fed = 0;
    while (fed < trials.size()) {
      std::vector<strategy::Strategy> round;
      Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(tracer, "replay.search_next_round");
        round = engine.next_round();
      }
      round_ms.push_back(elapsed_ns(t0) / 1e6);
      if (round.empty()) break;
      for (const strategy::Strategy& s : round) {
        search::TrialFeedback feedback;
        auto it = by_key.find(strategy::canonical_key(s));
        if (it != by_key.end() && it->second->verdict == TrialVerdict::kCompleted) {
          const TrialRecord& rec = *it->second;
          feedback.completed = true;
          feedback.found = rec.found;
          feedback.margin = rec.found ? impact_score(rec.detection) : 0.0;
          for (const auto* obs : {&rec.client_obs, &rec.server_obs})
            for (const JournalObservation& p : *obs)
              if (covered.emplace(p.state, p.packet_type).second)
                feedback.fresh_pairs.emplace_back(p.state, p.packet_type);
        }
        t0 = Clock::now();
        {
          ScopedSpan span(tracer, "replay.search_on_result");
          engine.on_result(s, feedback);
        }
        result_us.push_back(elapsed_ns(t0) / 1e3);
        ++fed;
      }
    }
    m["search.next_round_ms"] = median(round_ms);
    m["search.on_result_us"] = median(result_us);

    // Every strategy the generator could have offered this campaign: the
    // up-front universe plus what the committed observations unlock.
    strategy::StrategyGenerator generator(format, machine, config.generator);
    std::set<std::string> offered;
    auto note = [&](const std::vector<strategy::Strategy>& batch) {
      for (const strategy::Strategy& s : batch) offered.insert(strategy::canonical_key(s));
    };
    note(generator.on_observations(baseline.client_observations, baseline.server_observations));
    note(generator.off_path_strategies());
    for (const CommittedTrial& t : trials)
      note(generator.on_observations(as_observations(t.record.client_obs),
                                     as_observations(t.record.server_obs)));
    double child_attacks = 0;
    for (const CommittedTrial& t : trials)
      if (t.record.found && !offered.contains(t.record.key)) ++child_attacks;
    m["search.mutation_yield"] =
        in.result->search_mutations > 0
            ? child_attacks / static_cast<double>(in.result->search_mutations)
            : 0.0;
  }

  // ---- Dist wire codec over every committed record.
  {
    double encode_ns = 0, decode_ns = 0, bytes = 0;
    for (const CommittedTrial& t : trials) {
      Clock::time_point t0 = Clock::now();
      std::string payload = dist::encode_result(t.seq, t.record);
      encode_ns += elapsed_ns(t0);
      t0 = Clock::now();
      std::optional<dist::Message> msg = dist::parse_message(payload);
      decode_ns += elapsed_ns(t0);
      bytes += static_cast<double>(payload.size());
      if (!msg.has_value() || msg->record.key != t.record.key) ++out.verdict_mismatches;
    }
    const double n = std::max<double>(1.0, static_cast<double>(trials.size()));
    m["dist.result_encode_us"] = encode_ns / n / 1e3;
    m["dist.result_decode_us"] = decode_ns / n / 1e3;
    m["dist.wire_bytes_per_trial"] = bytes / n;
  }

  // ---- Trace parse and replay planning.
  {
    std::vector<double> parse_ms, plan_ms;
    for (int r = 0; r < kMicroRepeats; ++r) {
      Clock::time_point t0 = Clock::now();
      std::optional<trace::ParsedTrace> parsed;
      {
        ScopedSpan span(tracer, "replay.trace_parse");
        parsed = trace::parse_trace(*in.trace_text);
      }
      parse_ms.push_back(elapsed_ns(t0) / 1e6);
      if (!parsed.has_value()) {
        ++out.verdict_mismatches;
        break;
      }
      trace::ReplayOptions options;
      options.max_flows = kTraceMaxFlows;
      options.seed = config.scenario.seed;
      options.time_scale = config.scenario.trace_time_scale;
      t0 = Clock::now();
      {
        ScopedSpan span(tracer, "replay.trace_plan");
        trace::build_replay_plan(*parsed, options);
      }
      plan_ms.push_back(elapsed_ns(t0) / 1e6);
    }
    m["trace.parse_ms"] = median(parse_ms);
    m["trace.plan_ms"] = median(plan_ms);
  }

  tracer->end(root);
  return out;
}

}  // namespace bench
