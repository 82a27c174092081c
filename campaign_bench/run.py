#!/usr/bin/env python3
"""Layered campaign benchmark: runs one workload and checks its output.

    python3 campaign_bench/run.py --workload tcp-bulk --seed 1 --seconds 12 --trace 0

Builds the harness (campaign_bench/CMakeLists.txt) from the checkout's
sources, runs repetitions of one workload until --seconds have passed, checks
every repetition's output, and prints the metrics: a table, then one JSON
object as the last stdout line. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of the traced run. See campaign_bench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "tcp-bulk": "TCP linux-3.13 bulk download, grid search, in-process threads",
    "tcp-sack": "tcp-bulk with the sack-rfc2018 profile and the SACK strategy space",
    "dccp-greybox": "DCCP CCID-2, greybox search over the enlarged space, in-process",
}

# (name, unit, better, meaning)
END_TO_END = [
    ("strategies_per_s", "1/s", "higher", "strategies committed per wall second of the campaign"),
    ("cpu_ms_per_strategy", "ms", "lower", "process CPU time (self + children) per strategy"),
    ("setup_s", "s", "lower", "wall time from campaign start to its first dispatched trial"),
    ("peak_rss_mib", "MiB", "lower", "peak resident memory of the harness process"),
    ("resume_s", "s", "lower", "re-running the finished campaign from its result cache"),
]

PER_LAYER = [
    ("attacks_found", "count", "higher"),
    ("unique_attacks", "count", "higher"),
    ("trials_to_first_attack", "count", "lower"),
    ("failed_trial_ratio", "ratio", "lower"),
    ("sim.events_per_trial", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.buffer_reuse_ratio", "ratio", "higher"),
    ("tcp.segments_per_trial", "count", "lower"),
    ("tcp.retransmits_per_trial", "count", "lower"),
    ("tcp.sack_blocks_per_trial", "count", "lower"),
    ("dccp.packets_per_trial", "count", "lower"),
    ("dccp.syncs_per_trial", "count", "lower"),
    ("packet.parse_ns", "ns", "lower"),
    ("packet.classify_ns", "ns", "lower"),
    ("statemachine.observe_ns", "ns", "lower"),
    ("statemachine.transitions_per_trial", "count", "lower"),
    ("statemachine.unknown_packet_ratio", "ratio", "lower"),
    ("proxy.intercepted_per_trial", "count", "lower"),
    ("proxy.match_ratio", "ratio", "higher"),
    ("proxy.actions_per_trial", "count", "lower"),
    ("strategy.universe_size", "count", "lower"),
    ("strategy.generate_ms", "ms", "lower"),
    ("search.next_round_ms", "ms", "lower"),
    ("search.on_result_us", "us", "lower"),
    ("search.mutation_yield", "ratio", "higher"),
    ("snake.trial_ms_p50", "ms", "lower"),
    ("snake.trial_ms_tail", "ms", "lower"),
    ("snake.trial_ms_tail_pct", "%", "higher"),
    ("snake.trial_samples", "count", "higher"),
    ("snake.runs_per_strategy", "count", "lower"),
    ("snake.retest_confirm_ratio", "ratio", "higher"),
    ("snake.scenario_run_ms_p50", "ms", "lower"),
    ("snake.fork_trial_ms_p50", "ms", "lower"),
    ("snake.session_build_ms", "ms", "lower"),
    ("snake.snapshot_fork_ratio", "ratio", "higher"),
    ("snake.early_exit_ratio", "ratio", "higher"),
    ("snake.detect_us", "us", "lower"),
    ("snake.executor_busy_ratio", "ratio", "higher"),
    ("util.allocs_per_trial", "count", "lower"),
    ("util.alloc_bytes_per_trial", "bytes", "lower"),
    ("trace.parse_ms", "ms", "lower"),
    ("trace.plan_ms", "ms", "lower"),
    ("apps.baseline_target_bytes", "bytes", "higher"),
    ("dist.start_ms", "ms", "lower"),
    ("dist.wait_outcome_ms_p50", "ms", "lower"),
    ("dist.result_encode_us", "us", "lower"),
    ("dist.result_decode_us", "us", "lower"),
    ("dist.wire_bytes_per_trial", "bytes", "lower"),
    ("dist.cache_load_ms", "ms", "lower"),
    ("dist.cache_lookup_us", "us", "lower"),
    ("dist.cache_hit_ratio", "ratio", "higher"),
    ("dist.cache_store_us", "us", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]

# Counts that must repeat exactly across every repetition of one seed, at any
# executor count (the controller commits in dispatch order).
EXACT_COUNTS = ["attacks_found", "unique_attacks", "trials_to_first_attack", "events"]

DEFAULT_SEED = 1
MIN_REPS = 3             # repetitions per run, whatever --seconds says
REP_DEADLINE_S = 45.0    # one repetition is killed past this
RUN_BUDGET_S = 100.0     # no repetition starts this long after the warm-up started
BUILD_DEADLINE_S = 850.0
WARMUP_STRATEGIES = 64
# The trace the traced replay parses and plans: tools/trace_gen's output for
# the run's seed.
TRACE_FLOWS = 12
TRACE_SECONDS = 6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    epilog = "workloads:\n" + "".join(f"  {n:14s} {w}\n" for n, w in WORKLOADS.items())
    epilog += "\nend-to-end metrics (--trace 0):\n"
    epilog += "".join(f"  {n:22s} {u:5s} {b:6s} {m}\n" for n, u, b, m in END_TO_END)
    epilog += "\nper-layer metrics (--trace 1):\n"
    epilog += "".join(f"  {n:36s} {u:6s} {b}\n" for n, u, b in PER_LAYER)
    p = argparse.ArgumentParser(
        prog="run.py", allow_abbrev=False, epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Layered SNAKE campaign benchmark (see campaign_bench/README.md).")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "cmake")


def build():
    """Configures (once) and builds the harness and trace_gen; returns the
    build directory, or None when the build failed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no SNAKE sources under {ROOT}/src; nothing to benchmark")
        return None
    bdir = build_dir()
    deadline = time.monotonic() + BUILD_DEADLINE_S
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, deadline):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", bdir, "--target", "snake_campaign_bench", "trace_gen",
                      "-j", jobs], deadline):
        return None
    return bdir


def run_quiet(cmd, deadline):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"build step timed out: {' '.join(cmd)}")
        return False
    if r.returncode != 0:
        log(r.stdout[-4000:])
        log(f"build step failed: {' '.join(cmd)}")
        return False
    return True


def write_trace(bdir, seed, path):
    """Writes the seed's trace with tools/trace_gen; returns False on failure."""
    cmd = [os.path.join(bdir, "snake_tools", "trace_gen"), "--flows", str(TRACE_FLOWS),
           "--seed", str(seed), "--duration", str(TRACE_SECONDS)]
    with open(path, "w") as out:
        try:
            r = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, text=True, timeout=30)
        except subprocess.TimeoutExpired:
            log("trace_gen timed out")
            return False
    if r.returncode != 0:
        log(r.stderr[-2000:])
        log(f"trace_gen failed with exit code {r.returncode}")
        return False
    return True


def run_rep(binary, workload, seed, mode, workdir, trace=None, spans=None, strategies=None):
    """One repetition in its own process group, killed at the deadline.
    Returns (status, parsed JSON): status is "ok", "killed" (deadline) or
    "crashed" (nonzero exit or unreadable output)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--workdir", workdir]
    if trace:
        cmd += ["--trace-file", trace]
    if spans:
        cmd += ["--spans", spans]
    if strategies is not None:
        cmd += ["--strategies", str(strategies)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} seed {seed} ({mode}): killed after {REP_DEADLINE_S:.0f} s deadline")
        return "killed", None
    finally:
        # Never leave a child of the harness behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        log(err[-2000:])
        log(f"{workload} seed {seed} ({mode}): exit code {proc.returncode}")
        return "crashed", None
    try:
        return "ok", json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{workload} seed {seed} ({mode}): unreadable output")
        return "crashed", None


def digest(campaign):
    text = json.dumps({"found": campaign["found"], "events": campaign["events"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def check(reps, workload, seed):
    """Output-correctness gate. Returns a list of problems (empty = correct)."""
    problems = []
    digests = {digest(r["campaign"]) for r in reps}
    if len(digests) != 1:
        problems.append(f"repetitions disagree on the result digest: {sorted(digests)}")
    for name in EXACT_COUNTS:
        values = {r["campaign"][name] for r in reps}
        if len(values) != 1:
            problems.append(f"{name} differs across repetitions: {sorted(values)}")
    for r in reps:
        if not r["resume"]["all_hits"]:
            problems.append("resume phase was not served entirely from the result cache")
        if not r["resume"]["equal"]:
            problems.append("resume phase result differs from the campaign's")
        if r["campaign"]["attacks_found"] == 0:
            problems.append("campaign found no attack")
        if "replay" in r and r["replay"]["verdict_mismatches"]:
            problems.append(f"traced replay disagrees with the campaign on "
                            f"{r['replay']['verdict_mismatches']} verdict(s)")
    if seed == DEFAULT_SEED and digests:
        with open(os.path.join(HERE, "pinned_digests.json")) as f:
            pinned = json.load(f).get(workload)
        got = sorted(digests)[0]
        if pinned != got:
            problems.append(f"default-seed digest {got} does not match pinned {pinned}")
    return sorted(set(problems))


def end_to_end_metrics(reps):
    camp = [r["campaign"] for r in reps]
    return {
        "strategies_per_s": median([c["strategies"] / c["wall_s"] for c in camp]),
        "cpu_ms_per_strategy": median([c["cpu_s"] * 1e3 / c["strategies"] for c in camp]),
        "setup_s": median([s for c in camp for s in c["setup_s"]]),
        "peak_rss_mib": median([c["peak_rss_mib"] for c in camp]),
        "resume_s": median([s for r in reps for s in r["resume"]["runs_s"]]),
    }


def per_layer_metrics(plain, traced, killed):
    """killed: repetitions killed at the deadline, one failed attempt each."""
    c = traced[0]["campaign"]
    attempted = sum(r["campaign"]["attempts"] for r in plain + traced) + killed
    failed = sum(r["campaign"]["failed"] for r in plain + traced) + killed
    m = {
        "attacks_found": c["attacks_found"],
        "unique_attacks": c["unique_attacks"],
        "trials_to_first_attack": c["trials_to_first_attack"],
        "failed_trial_ratio": failed / attempted if attempted else 0.0,
    }
    for name, _, _ in PER_LAYER:
        if name in m or name == "bench.trace_overhead_ratio":
            continue
        m[name] = median([r["layers"].get(name, 0.0) for r in traced])
    m["bench.trace_overhead_ratio"] = (
        median([r["campaign"]["wall_s"] for r in traced]) /
        median([r["campaign"]["wall_s"] for r in plain]))
    return m


def self_time_table(traced):
    totals = {}
    for r in traced:
        for name, ms in r["self_ms"].items():
            totals.setdefault(name, []).append(ms)
    lines = ["self time per span (median over traced repetitions):"]
    for name, values in sorted(totals.items(), key=lambda kv: -median(kv[1])):
        lines.append(f"  {name:32s} {median(values):12.3f} ms")
    return "\n".join(lines)


def main(argv):
    args = parse_args(argv)
    bdir = build()
    if bdir is None:
        return 1
    binary = os.path.join(bdir, "snake_campaign_bench")
    workdir = os.path.join(os.path.dirname(build_dir()), "work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
    trace, spans = None, None

    plain, traced = [], []
    killed, crashed = 0, 0
    try:
        if args.trace:
            os.makedirs(workdir, exist_ok=True)
            os.makedirs(trace_dir, exist_ok=True)
            trace = os.path.join(workdir, f"seed{args.seed}.trace")
            spans = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
            if not write_trace(bdir, args.seed, trace):
                return 1
        start = time.monotonic()

        def rep(mode, label=None, **kw):
            nonlocal killed, crashed
            status, result = run_rep(binary, args.workload, args.seed, mode, workdir, **kw)
            killed += status == "killed"
            crashed += status == "crashed"
            if result is not None:
                c = result["campaign"]
                log(f"  {label or mode + ' repetition'}: "
                    f"{c['strategies'] / c['wall_s']:.1f} strategies/s, "
                    f"{c['cpu_s'] * 1e3 / c['strategies']:.3f} CPU ms/strategy, "
                    f"resume {median(result['resume']['runs_s']):.4f} s, "
                    f"peak RSS {c['peak_rss_mib']:.1f} MiB")
            return result

        # Warm-up: a short campaign, discarded, so the first measured
        # repetition does not pay for cold page and CPU caches.
        rep("plain", label="warm-up", strategies=WARMUP_STRATEGIES)
        measure_start = time.monotonic()
        cycles = []  # wall seconds of each measured round of repetitions
        while True:
            have = min(len(plain), len(traced)) if args.trace else len(plain)
            # Stop when one more round would end further past --seconds
            # than stopping now falls short of it.
            elapsed = time.monotonic() - measure_start
            if have >= MIN_REPS and elapsed + median(cycles) / 2 >= args.seconds:
                break
            if time.monotonic() - start >= RUN_BUDGET_S:
                break
            cycle_start = time.monotonic()
            # Traced runs interleave untraced twins for the overhead ratio.
            for mode in (["plain", "traced"] if args.trace else ["plain"]):
                if time.monotonic() - start >= RUN_BUDGET_S:
                    break
                if mode == "traced":
                    result = rep(mode, trace=trace, spans=spans)
                else:
                    result = rep(mode)
                if result is not None:
                    (traced if mode == "traced" else plain).append(result)
            cycles.append(time.monotonic() - cycle_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    problems = check(reps, args.workload, args.seed) if reps else ["no repetition completed"]
    if crashed:
        problems.append(f"{crashed} repetition(s) of the harness crashed")
    if args.trace and (not plain or not traced):
        problems.append("traced run needs both traced and untraced repetitions")
    attempted = sum(r["campaign"]["attempts"] for r in reps) + killed
    failed = sum(r["campaign"]["failed"] for r in reps) + killed

    metrics = {}
    if not problems:
        if args.trace:
            values = per_layer_metrics(plain, traced, killed)
            table = [(n, u) for n, u, _ in PER_LAYER]
        else:
            values = end_to_end_metrics(plain)
            table = [(n, u) for n, u, _, _ in END_TO_END]
        metrics = {n: {"value": values[n], "unit": u} for n, u in table}
        print(f"== {args.workload} seed {args.seed}: {len(plain)} untraced"
              + (f" + {len(traced)} traced" if args.trace else "") + " repetitions ==")
        for n, u in table:
            print(f"  {n:36s} {values[n]:16.6g} {u}")
        c = reps[0]["campaign"]
        print(f"  exact counts: attacks_found={c['attacks_found']} "
              f"unique_attacks={c['unique_attacks']} "
              f"trials_to_first_attack={c['trials_to_first_attack']} events={c['events']} "
              f"digest={digest(c)[:16]}")
        if args.trace:
            print(self_time_table(traced))
            print(f"  spans: {spans}")
    for p in problems:
        log(f"CORRECTNESS: {p}")
    print(json.dumps({"correct": not problems, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
