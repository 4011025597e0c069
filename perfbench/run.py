#!/usr/bin/env python3
"""The dasm benchmark: seeded solve workloads that drive the shipped `dasm run`
binary from outside (and, when traced, `dasm serve`), gate every output, and
print the end-to-end metrics (untraced run) or the per-layer metrics (traced
run).

    python3 perfbench/run.py --workload solve_dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds `dasm`
and `dasm-probe` (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, default
`.bench_build`; scratch files go to `.bench_out/`. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a host fingerprint and a human-readable table. The exit code
is nonzero when any gate fails, the build is a Debug or sanitizer build, or
the repository sources are missing.

Workloads, metrics and their layer map are described in
perfbench/workloads.json and perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
NPROC = len(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A gate failed or the harness could not run; the run prints no result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def resolve(value):
    """Thread and connection counts may be written relative to nproc."""
    if value == "nproc":
        return NPROC
    if value == "nproc-1":
        return max(1, NPROC - 1)
    return int(value)


# ---------------------------------------------------------------------------
# Build and host fingerprint


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
            ROOT / "tools" / "CMakeLists.txt").is_file():
        raise BenchError("repository sources (src/, tools/) not found beside perfbench/")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", str(NPROC),
                    "--target", "dasm_cli", "dasm_probe"],
                   stdout=sys.stderr, check=True)
    return bdir / "tools" / "dasm", bdir / "dasm-probe"


def source_digest():
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*")
                   if p.is_file())
    for p in files + [HERE / "probe.cpp", HERE / "CMakeLists.txt"]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(probe):
    fp = json.loads(subprocess.run([str(probe), "fingerprint"], check=True,
                                   capture_output=True, text=True).stdout)
    fp["nproc"] = NPROC
    fp["cpu_model"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                fp["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fp["git_commit"] = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            fp["git_commit"] = r.stdout.strip()
    fp["source_sha256"] = source_digest()
    if (fp["build_type"] in ("", "Debug") or not fp["optimized"]
            or fp["sanitized"]):
        raise BenchError(f"refusing to report timings from this build: {fp}")
    return fp


# ---------------------------------------------------------------------------
# Child processes


def spawn(cmd, out_path, cpus=None):
    """Starts `cmd` with stdout+stderr to `out_path`, pinned to `cpus` if given."""
    out = open(out_path, "wb")
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    try:
        return subprocess.Popen([str(c) for c in cmd], stdout=out,
                                stderr=subprocess.STDOUT, preexec_fn=pin)
    finally:
        out.close()


def reap(proc, timeout=CHILD_TIMEOUT_S):
    """Waits for `proc` with wait4; returns (exit code, max RSS in MB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_timed(cmd, out_path, cpus=None):
    """Runs `cmd` to completion: (wall seconds, max RSS MB). Nonzero exit fails."""
    t0 = time.perf_counter()
    code, rss = reap(spawn(cmd, out_path, cpus))
    wall = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"{cmd[0]} {cmd[1]} exited {code}: "
                         f"{Path(out_path).read_text(errors='replace')[-2000:]}")
    return wall, rss


def run_json(cmd, out_path, cpus=None):
    run_timed(cmd, out_path, cpus)
    return json.loads(Path(out_path).read_text().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Statistics


def nearest_rank(sorted_values, q):
    """Nearest-rank quantile, the rank rule HistogramSnapshot::quantile uses."""
    n = len(sorted_values)
    rank = max(1, int(q * n + 0.5))
    return sorted_values[min(n, rank) - 1]


def windowed_p99(samples, min_per_window=1000):
    """samples: (scheduled_us, value_us). Splits the step into equal time
    windows of at least `min_per_window` samples (so each window's p99 has
    ten samples beyond it), takes the p99 of each window, and returns their
    median in ms: the typical window's tail, which a rare multi-millisecond
    stall of the host does not move the way it moves one pooled p99."""
    if not samples:
        return 0.0
    samples = sorted(samples)
    windows = max(1, len(samples) // min_per_window)
    t0, t1 = samples[0][0], samples[-1][0] + 1
    groups = [[] for _ in range(windows)]
    for t, value in samples:
        groups[min(windows - 1, (t - t0) * windows // (t1 - t0))].append(value)
    return statistics.median(nearest_rank(sorted(g), 0.99) / 1000.0 for g in groups if g)


def parse_prometheus(text):
    """Counters/gauges -> value; histograms -> {"b": {le: cumulative}, "sum", "count"}."""
    scalars, hists = {}, {}
    for line in text.splitlines():
        if not line.startswith("dasm_"):
            continue
        name, value = line.rsplit(" ", 1)
        if "_bucket{le=\"" in name:
            base, le = name.split("_bucket{le=\"")
            le = le.rstrip("\"}")
            if le != "+Inf":
                hists.setdefault(base, {"b": {}, "sum": 0, "count": 0})["b"][int(le)] = int(value)
        elif name.endswith("_sum") and name[:-4] in hists:
            hists[name[:-4]]["sum"] = int(value)
        elif name.endswith("_count") and name[:-6] in hists:
            hists[name[:-6]]["count"] = int(value)
        else:
            scalars[name] = int(value)
    return scalars, hists


def histogram_delta(before, after):
    """Per-bucket counts (upper bound -> count) observed between two scrapes.
    The bucket layout is fixed, so cumulative counts subtract bucket-wise."""
    def per_bucket(h):
        out, prev = {}, 0
        for le in sorted(h["b"]):
            out[le] = h["b"][le] - prev
            prev = h["b"][le]
        return out
    a = per_bucket(after) if after else {}
    b = per_bucket(before) if before else {}
    return {le: a.get(le, 0) - b.get(le, 0) for le in sorted(set(a) | set(b))
            if a.get(le, 0) - b.get(le, 0) > 0}


def bucket_lower(le):
    """Smallest value of the registry histogram bucket whose largest value
    is `le`: exact buckets below 16, then 8 buckets per power of two
    (obs::HistogramLayout)."""
    if le < 16:
        return le
    width = 1 << (le.bit_length() - 1 - 3)
    return le - width + 1


def delta_quantile(buckets, q):
    """Nearest-rank q-quantile of a bucket delta, placed inside its bucket
    by linear interpolation (a bucket [lo, le] holds values in [lo, le + 1)
    since the registry records whole microseconds); 0 if empty."""
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    rank = max(1, int(q * total + 0.5))
    seen = 0
    for le in sorted(buckets):
        if seen + buckets[le] >= rank:
            lo = bucket_lower(le)
            return lo + (le + 1 - lo) * (rank - seen - 0.5) / buckets[le]
        seen += buckets[le]
    return float(max(buckets))


class ScrapeDelta:
    def __init__(self, before_text, after_text):
        self.s0, self.h0 = parse_prometheus(before_text)
        self.s1, self.h1 = parse_prometheus(after_text)

    def counter(self, name):
        key = "dasm_" + name.replace(".", "_")
        return self.s1.get(key, 0) - self.s0.get(key, 0)

    def buckets(self, name):
        key = "dasm_" + name.replace(".", "_")
        return histogram_delta(self.h0.get(key), self.h1.get(key))

    def quantile(self, name, q):
        buckets = self.buckets(name)
        if sum(buckets.values()) == 1:
            return self.mean(name)  # one observation: its exact value
        return delta_quantile(buckets, q)

    def mean(self, name):
        key = "dasm_" + name.replace(".", "_")
        a, b = self.h1.get(key), self.h0.get(key) or {"sum": 0, "count": 0}
        if not a or a["count"] == b["count"]:
            return 0.0
        return (a["sum"] - b["sum"]) / (a["count"] - b["count"])


# ---------------------------------------------------------------------------
# Request streams


def stream_rng(seed, *salt):
    return random.Random("/".join(["dasm-perfbench", str(seed)] + [str(s) for s in salt]))


# The traced serve phase has the serve_mixed shape: mid-size markets (a miss
# costs milliseconds), hits on keys answered in the warm-up, every
# SERVE_MISS_EVERY-th request a miss with a fresh seed across the algorithms,
# and one live registration of a mid-size market halfway through. On the
# 4-vCPU host the baseline was taken on, this mix's p99 stays under 100 ms up
# to about 6500 requests/s; SERVE_RATE is about 60% of that, where queue
# wait and head-of-line blocking behind misses show but the queue stays
# bounded.
SERVE_MARKETS = [["complete", 128], ["complete", 256], ["regular", 2048], ["bounded", 4096]]
SERVE_ALGOS = ["asm", "rand-asm", "mm"]
SERVE_KEY_SEEDS = 2
SERVE_MISS_EVERY = 50
SERVE_REGISTER = ["complete", 256]
SERVE_RATE = 4000
SERVE_SECONDS = 2.0


def serve_plan(smoke):
    """The traced serve phase's markets, registration, rate and length;
    --smoke shrinks them so the phase takes a fraction of a second."""
    if smoke:
        return {"markets": [[f, min(n, 64)] for f, n in SERVE_MARKETS],
                "register": [SERVE_REGISTER[0], 32], "rate": 500, "seconds": 0.3}
    return {"markets": SERVE_MARKETS, "register": SERVE_REGISTER,
            "rate": SERVE_RATE, "seconds": SERVE_SECONDS}


def serve_inputs(seed, markets):
    """The preload's `instance` lines and the hit keys, from `seed`."""
    rng = stream_rng(seed, "serve")
    preload = [f"instance s{i} gen {family} {n} {rng.randrange(1, 1 << 31)}"
               for i, (family, n) in enumerate(markets)]
    keys = [f"request s{i} {algo} seed {rng.randrange(1, 1 << 20)}"
            for i in range(len(markets)) for algo in SERVE_ALGOS
            for _ in range(SERVE_KEY_SEEDS)]
    return preload, keys


def make_schedule(seed, plan, conns, keys):
    """Open-loop Poisson arrivals at the plan's rate over `conns` connections
    for its seconds: (time_us, conn, line). Every SERVE_MISS_EVERY-th
    request carries a fresh seed (a cache miss), cycling through every
    (market, algorithm) pair, so the share and mix of misses are fixed
    rather than sampled; the rest are warm-up keys (hits). Halfway through,
    one live `instance` registration goes out on connection 0."""
    rng = stream_rng(seed, "schedule")
    miss_base = rng.randrange(1, 1 << 30) << 20
    n_markets = len(plan["markets"])
    events, t, misses, count = [], 0.0, 0, 0
    while True:
        t += rng.expovariate(plan["rate"])
        if t >= plan["seconds"]:
            break
        conn = rng.randrange(conns)
        count += 1
        if count % SERVE_MISS_EVERY == 0:
            algo = SERVE_ALGOS[(misses // n_markets) % len(SERVE_ALGOS)]
            line = f"request s{misses % n_markets} {algo} seed {miss_base + misses}"
            misses += 1
        else:
            line = keys[rng.randrange(len(keys))]
        events.append((int(t * 1e6), conn, line))
    family, n = plan["register"]
    events.append((int(plan["seconds"] / 2 * 1e6), 0,
                   f"instance live gen {family} {n} {rng.randrange(1, 1 << 31)}"))
    events.sort(key=lambda e: e[0])
    return events


# ---------------------------------------------------------------------------
# Serving: server lifecycle, load steps, the replay gate

# The load generator busy-polls on one CPU and the server runs on the others,
# so neither is migrated onto the other's CPU or waits for it.
LOAD_CPUS = {0} if NPROC > 1 else None
SERVER_CPUS = set(range(1, NPROC)) if NPROC > 1 else None


class Server:
    def __init__(self, ctx, preload_path, threads, tag):
        self.ctx = ctx
        port_file = ctx.out / f"{tag}.port"
        port_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        self.proc = spawn([ctx.dasm, "serve", "--port", 0, "--port-file", port_file,
                           "--threads", threads, "--preload", preload_path,
                           "--queue", 1 << 20, "--idle-timeout-ms", 0],
                          ctx.out / f"{tag}.log", SERVER_CPUS)
        ctx.server = self
        while True:
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                break
            if self.proc.poll() is not None or time.perf_counter() - t0 > 60:
                raise BenchError(f"dasm serve did not start: "
                                 f"{(ctx.out / f'{tag}.log').read_text(errors='replace')}")
            time.sleep(0.0005)

    def stop(self):
        """Graceful SIGTERM drain."""
        self.ctx.server = None
        self.proc.send_signal(signal.SIGTERM)
        code, _ = reap(self.proc, timeout=30)
        if code != 0:
            raise BenchError(f"dasm serve exited {code}")


class Step:
    """One run of the load generator against a live server."""

    def __init__(self, ctx, server, tag, events, conns, scrape=False):
        sched = ctx.out / f"{tag}.sched"
        with open(sched, "w") as f:
            for t, c, line in events:
                f.write(f"{t} {c} {line}\n")
        self.conns = []
        for c in range(conns):
            sent = ctx.out / f"{tag}.sent.{c}"
            sent.write_text("dasm-requests 1\n" + "".join(
                line + "\n" for _, cc, line in events if cc == c))
            self.conns.append((sent, ctx.out / f"{tag}.recv.{c}"))
        cmd = [ctx.probe, "load", "--port", server.port, "--schedule", sched,
               "--conns", conns, "--recv-prefix", ctx.out / f"{tag}.recv",
               "--lat-out", ctx.out / f"{tag}.lat"]
        if scrape:
            cmd += ["--scrape-prefix", ctx.out / f"{tag}.scrape"]
        self.summary = run_json(cmd, ctx.out / f"{tag}.log", LOAD_CPUS)
        self.samples, self.lateness, self.unanswered = [], [], 0
        for line in (ctx.out / f"{tag}.lat").read_text().splitlines():
            _, _, sched_us, lat_us, late_us = line.split()
            self.lateness.append((int(sched_us), float(late_us)))
            if float(lat_us) < 0:
                self.unanswered += 1
            else:
                self.samples.append((int(sched_us), float(lat_us)))
        self.requests = self.summary["requests"]
        self.errors = self.unanswered + self.summary["err_lines"]
        self.scrape = None
        if scrape:
            self.scrape = ScrapeDelta(
                (ctx.out / f"{tag}.scrape.0.prom").read_text(),
                (ctx.out / f"{tag}.scrape.1.prom").read_text())

    def lateness_p99_ms(self):
        return windowed_p99(self.lateness)


def replay_gate(ctx, preload_path, steps, spans=None):
    """Each connection's bytes must equal a direct MatchService replay of that
    connection's own request sequence. Returns (replay summary, per step
    whether every connection's bytes are equal)."""
    cmd = [ctx.probe, "replay", "--preload", preload_path, "--threads", NPROC]
    for step in steps:
        for sent, recv in step.conns:
            cmd += ["--conn", sent, recv]
    if spans:
        cmd += ["--spans", spans]
    summary = run_json(cmd, ctx.out / "replay.log")
    equal, i, verdicts = summary["equal"], 0, []
    for step in steps:
        verdicts.append(all(equal[i:i + len(step.conns)]))
        i += len(step.conns)
    return summary, verdicts


def gate_steps(ctx, steps, verdicts):
    """Every request of a gated step is an attempted operation; unanswered
    and ERR requests fail, and a connection whose bytes differ from the
    replay fails its whole step."""
    for step, equal in zip(steps, verdicts):
        ctx.gate(equal and step.errors == 0,
                 f"{step.conns[0][0].name}: {step.errors} unanswered or ERR responses, "
                 f"bytes {'equal to' if equal else 'differ from'} the replay",
                 attempted=step.requests, failed=step.errors if equal else step.requests)


def start_and_warm(ctx, preload_path, keys, threads, tag):
    """Spawns a server (preload included), then sends every key at once and
    waits for the answers (cache warm-up)."""
    server = Server(ctx, preload_path, threads, tag)
    warm = Step(ctx, server, f"{tag}.warm", [(0, 0, k) for k in keys], 1)
    if warm.errors:
        raise BenchError(f"warm-up of {tag} failed: {warm.summary}")
    return server, warm


# ---------------------------------------------------------------------------
# Workloads


class Ctx:
    def __init__(self, args, dasm, probe):
        self.args = args
        self.dasm, self.probe = dasm, probe
        self.out = ROOT / ".bench_out" / args.workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.server = None  # the live `dasm serve`, killed if the run aborts

    def kill_server(self):
        if self.server is not None:
            self.server.proc.kill()
            reap(self.server.proc)
            self.server = None

    def gate(self, ok, what, attempted=1, failed=None):
        """Counts `attempted` operations; a failed gate fails all of them
        unless `failed` says how many."""
        self.attempted += attempted
        if failed is None:
            failed = 0 if ok else attempted
        self.failed += failed
        if not ok:
            self.notes.append(what)


def scaled(cfg, smoke):
    """--smoke shrinks every size so every workload runs in seconds."""
    cfg = json.loads(json.dumps(cfg))
    if smoke:
        cfg["n"] = 128 if cfg["family"] == "complete" else 2048
        cfg["setup_reps"], cfg["min_cycles"] = 1, 1
    return cfg


def traced_solve(ctx, family, n, d, threads, alt_threads, eps, seed, tag):
    """In-process traced solve (probe): set-up, then the layers of `dasm run`."""
    inst, ref, spans = ctx.out / f"{tag}.inst", ctx.out / f"{tag}.ref", ctx.out / f"{tag}.spans.jsonl"
    res = run_json([ctx.probe, "solve", "--in", inst, "--ref-out", ref, "--threads", threads,
                    "--alt-threads", alt_threads, "--eps", eps, "--seed", seed,
                    "--family", family, "--n", n, "--d", d, "--gen-seed", seed,
                    "--spans", spans], ctx.out / f"{tag}.log")
    return inst, ref, res, load_spans(spans)


def load_spans(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def self_times(spans):
    """Self time (s) of every span: its duration minus the part of it that
    its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered, cur_end = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], cur_end), min(c["end_ns"], s["end_ns"])
            if b > a:
                covered += b - a
                cur_end = b
        out.append((s, (s["end_ns"] - s["start_ns"] - covered) / 1e9))
    return out


def self_time_table(spans):
    """Rows (layer, self seconds, share of the traced solve) for the solve
    tree, the unattributed residual last."""
    solve = next(s for s in spans if s["name"] == "solve")
    total = (solve["end_ns"] - solve["start_ns"]) / 1e9
    rows = {}
    for s, t in self_times(spans):
        if s["parent"] == solve["id"]:
            rows[s["name"]] = rows.get(s["name"], 0.0) + t
    out = [(name, t, t / total) for name, t in rows.items()]
    unattributed = next(t for s, t in self_times(spans) if s is solve)
    out.append(("unattributed", unattributed, unattributed / total))
    return out


def span_seconds(spans, name, parent_name=None):
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["name"] == name and (parent_name is None or
                                  (parent and parent["name"] == parent_name)):
            return (s["end_ns"] - s["start_ns"]) / 1e9
    raise BenchError(f"span {name} missing")


def solve_layer_metrics(spans, res, file_bytes, threads, alt_threads):
    load = span_seconds(spans, "stable.io.load_instance")
    build = span_seconds(spans, "stable.instance_build")
    protocol = span_seconds(spans, "core.protocol", "solve")
    alt_protocol = span_seconds(spans, "core.protocol", "par.alt_threads")
    one, many = (protocol, alt_protocol) if threads <= alt_threads else (alt_protocol, protocol)
    rounds, messages, edges = res["rounds"], res["messages"], res["edges"]
    solve_total = span_seconds(spans, "solve")
    unattributed = sum(t for s, t in self_times(spans) if s["name"] == "solve")
    parse = max(load - build, 1e-9)
    return {
        "gen.generate_s": span_seconds(spans, "gen.generate"),
        "stable.io.save_instance_s": span_seconds(spans, "stable.io.save_instance"),
        "stable.io.load_instance_s": load,
        "stable.io.parse_s": parse,
        "stable.io.parse_MBps": file_bytes / parse / 1e6,
        "stable.instance_build_s": build,
        "stable.instance_bytes_per_edge": res["instance_bytes"] / edges,
        "core.engine_bytes_per_edge": res["engine_bytes"] / edges,
        "core.engine_setup_s": span_seconds(spans, "core.engine_setup", "solve"),
        "core.protocol_s": protocol,
        "core.engine_teardown_s": span_seconds(spans, "core.engine_teardown"),
        "core.protocol_us_per_round": protocol * 1e6 / max(1, rounds),
        "congest.messages_per_round": messages / max(1, rounds),
        "core.mm_round_share": res["mm_rounds"] / max(1, rounds),
        "congest.ns_per_message": protocol * 1e9 / max(1, messages),
        "par.engine_speedup": one / many,
        "congest.rounds": rounds,
        "congest.messages": messages,
        "congest.bits": res["bits"],
        "stable.certify_s": span_seconds(spans, "stable.certify"),
        "stable.io.save_matching_s": span_seconds(spans, "stable.io.save_matching"),
        "solve.traced_s": solve_total,
        "unattributed_s": unattributed,
        "unattributed_frac": unattributed / solve_total,
        "_self_times": self_time_table(spans),
    }


def check_reference(ctx, res, eps, what):
    budget = eps * res["edges"]
    ctx.gate(res["almost_stable"] and res["blocking"] <= budget
             and res["matched"] == res["metrics_matched"] and res["alt_identical"],
             f"{what}: reference matching not (1-eps)-stable or not thread-count invariant: {res}")


def check_cli_solve(ctx, out_path, stdout_path, ref_bytes, res, what):
    """A CLI solve must write the reference bytes and report the same counts."""
    text = Path(stdout_path).read_text()
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    counts_ok = (fields.get("rounds executed") == str(res["rounds"])
                 and fields.get("messages") == str(res["messages"])
                 and fields.get("bits") == str(res["bits"]))
    blocking = fields.get("blocking pairs", "")
    cert_ok = blocking.startswith(f"{res['blocking']} ") and blocking.endswith("met)") \
        and "NOT MET" not in blocking
    same = Path(out_path).read_bytes() == ref_bytes
    ctx.gate(counts_ok and cert_ok and same,
             f"{what}: counts_ok={counts_ok} certified={cert_ok} bytes_equal={same}")


def cli_solve(ctx, cfg, inst, tag, seed):
    threads = resolve(cfg["threads"])
    out, stdout = ctx.out / f"{tag}.match", ctx.out / f"{tag}.stdout"
    out.unlink(missing_ok=True)
    wall, rss = run_timed([ctx.dasm, "run", "--algo", "asm", "--in", inst, "--out", out,
                           "--threads", threads, "--eps", cfg["eps"], "--seed", seed], stdout)
    return wall, rss, out, stdout


def run_solve(ctx, cfg):
    args, seed = ctx.args, ctx.args.seed
    threads, alt = resolve(cfg["threads"]), resolve(cfg["alt_threads"])
    if args.trace:
        inst, ref, res, spans = traced_solve(ctx, cfg["family"], cfg["n"], cfg["d"], threads,
                                             alt, cfg["eps"], seed, "traced")
        check_reference(ctx, res, cfg["eps"], "traced solve")
        wall, _, out, stdout = cli_solve(ctx, cfg, inst, "cli", seed)
        check_cli_solve(ctx, out, stdout, ref.read_bytes(), res, "cli solve")
        layers = solve_layer_metrics(spans, res, inst.stat().st_size, threads, alt)
        traced = layers["solve.traced_s"]
        # The same in-process solve with and without its spans.
        layers["trace.overhead_frac"] = (traced - res["untraced_s"]) / res["untraced_s"]
        # What the traced layers leave out of a `dasm run`: process start,
        # dynamic loading, and exit.
        layers["trace.cli_gap_frac"] = (wall - traced) / wall
        layers.update(trace_serve_phase(ctx, seed, serve_plan(args.smoke)))
        return layers

    # Round counts differ from instance to instance (180 to 312 rounds for
    # bounded n=65536 d=8), so a workload whose protocol dominates solves
    # several instances from its seed in turn; the first is the traced one.
    rng = stream_rng(seed, "instances")
    gen_seeds = [seed] + [rng.randrange(1, 1 << 31) for _ in range(cfg["instances"] - 1)]
    setups, instances = [], []
    for i, gen_seed in enumerate(gen_seeds):
        inst = ctx.out / f"instance{i}.txt"
        for rep in range(cfg["setup_reps"]):
            wall, _ = run_timed([ctx.dasm, "gen", "--family", cfg["family"], "--n", cfg["n"],
                                 "--d", cfg["d"], "--seed", gen_seed, "--out", inst],
                                ctx.out / f"gen{i}.{rep}.log")
            setups.append(wall)
        ref = ctx.out / f"reference{i}.match"
        res = run_json([ctx.probe, "solve", "--in", inst, "--ref-out", ref,
                        "--threads", threads, "--alt-threads", alt, "--eps", cfg["eps"],
                        "--seed", seed], ctx.out / f"reference{i}.log")
        check_reference(ctx, res, cfg["eps"], f"reference solve {i}")
        instances.append((inst, ref.read_bytes(), res))
    # One cycle solves every instance once; its figure is the mean solve time.
    cycles, rss = [], []
    t_end = time.perf_counter() + args.seconds
    while len(cycles) < cfg["min_cycles"] or time.perf_counter() < t_end:
        walls = []
        for i, (inst, ref_bytes, res) in enumerate(instances):
            wall, mb, out, stdout = cli_solve(ctx, cfg, inst, f"solve{i}", seed)
            check_cli_solve(ctx, out, stdout, ref_bytes, res, f"cycle {len(cycles)} solve {i}")
            walls.append(wall)
            rss.append(mb)
        cycles.append(statistics.fmean(walls))
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(cycles),
        "peak_rss_mb": statistics.median(rss),
        "cycles": len(cycles),
    }


def serve_layer_metrics(step, replay):
    d = step.scrape
    requests = max(1, d.counter("net.requests"))
    hits, misses = d.counter("svc.cache_hits"), d.counter("svc.cache_misses")
    reg = step.summary["register_ms"]
    return {
        "net.read_us.p50": d.quantile("time.net.read_us", 0.50),
        "net.read_us.p99": d.quantile("time.net.read_us", 0.99),
        "net.write_us.p50": d.quantile("time.net.write_us", 0.50),
        "net.write_us.p99": d.quantile("time.net.write_us", 0.99),
        "net.bytes_per_request": (d.counter("net.bytes_read") + d.counter("net.bytes_written")) / requests,
        "net.frame_ns_per_byte": replay["frame_ns_per_byte"],
        "svc.parse_request_us": replay["parse_request_us"],
        "svc.replay_hit_us": replay["hit_us"],
        "net.batch_us.p50": d.quantile("time.net.batch_us", 0.50),
        "net.batch_us.p99": d.quantile("time.net.batch_us", 0.99),
        "svc.batch_requests.mean": d.mean("svc.batch_requests"),
        "svc.batch_cells.mean": d.mean("svc.batch_cells"),
        "svc.queue_wait_us.p50": d.quantile("time.svc.queue_wait_us", 0.50),
        "svc.queue_wait_us.p99": d.quantile("time.svc.queue_wait_us", 0.99),
        "svc.execute_us.p50": d.quantile("time.svc.execute_us", 0.50),
        "svc.execute_us.p99": d.quantile("time.svc.execute_us", 0.99),
        "svc.register_ms": statistics.median(reg) if reg else 0.0,
        "svc.cache_hit_ratio": hits / max(1, hits + misses),
        "svc.shed": d.counter("svc.shed"),
        "obs.scrape_ms": statistics.median(step.summary["scrape_ms"] or [0.0]),
        # Spans around each step of the hit path, a few microseconds each.
        "trace.replay_overhead_frac": (replay["hit_traced_us"] - replay["hit_us"]) / replay["hit_us"],
        "load.lateness_ms.p99": step.lateness_p99_ms(),
        "load.sent": step.requests,
        "load.completed": len(step.samples),
    }


def trace_serve_phase(ctx, seed, plan):
    """A traced run also drives `dasm serve` with the serve_mixed shape, so
    the serve layers (net, svc, obs, load) are measured as well."""
    preload, keys = serve_inputs(seed, plan["markets"])
    preload_path = ctx.out / "preload.txt"
    preload_path.write_text("dasm-requests 1\n" + "".join(p + "\n" for p in preload))
    server, warm = start_and_warm(ctx, preload_path, keys, max(1, NPROC - 1), "srv")
    step = Step(ctx, server, "mixed", make_schedule(seed, plan, NPROC, keys), NPROC,
                scrape=True)
    server.stop()
    replay, verdicts = replay_gate(ctx, preload_path, [warm, step], ctx.out / "replay.spans.jsonl")
    gate_steps(ctx, [warm, step], verdicts)
    return serve_layer_metrics(step, replay)


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every input so a run takes seconds (self-test)")
    args = ap.parse_args(argv)
    ctx = None
    try:
        dasm, probe = build()
        fp = fingerprint(probe)
        print("fingerprint " + json.dumps(fp, sort_keys=True), flush=True)
        cfg = scaled(WORKLOADS[args.workload], args.smoke)
        ctx = Ctx(args, dasm, probe)
        values = run_solve(ctx, cfg)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    finally:
        if ctx is not None:
            ctx.kill_server()
    values["error_rate"] = ctx.failed / ctx.attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in values:
            log(f"error: metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    table = values.pop("_self_times", None)
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}): "
          + ", ".join(f"{k}={v}" for k, v in values.items() if k not in metrics))
    if table:
        print("  traced solve, self time by layer:")
        for name, t, share in table:
            print(f"    {name:30s} {t:12.6f} s {100 * share:6.2f}%")
        for name in ("trace.overhead_frac", "trace.cli_gap_frac"):
            print(f"    {name:30s} {values[name]:12.6f}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for note in ctx.notes:
        print(f"  GATE FAILED: {note}")
    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted,
              "failed": ctx.failed, "metrics": metrics}
    (ctx.out / f"result-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"fingerprint": fp, **result}, indent=1))
    print(json.dumps(result))
    return 0 if ctx.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
