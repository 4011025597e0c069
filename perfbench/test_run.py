#!/usr/bin/env python3
"""Self-tests of the benchmark: input determinism, the correctness gates,
scrape-delta histogram quantiles, and a seconds-long smoke run of every
workload. Builds like run.py does on first use.

    python3 perfbench/test_run.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as R  # noqa: E402


class Args:
    def __init__(self, workload, seed=1, seconds=2, trace=0):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace


def context(workload="solve_dense"):
    dasm, probe = R.build()
    ctx = R.Ctx(Args(workload), dasm, probe)
    ctx.out = ctx.out.parent / f"test-{workload}"
    ctx.out.mkdir(parents=True, exist_ok=True)
    return ctx


PLAN = dict(R.serve_plan(smoke=True), rate=2000)


def small_server(ctx, tag):
    """A live server preloaded with the smoke plan's markets and warmed on
    their keys."""
    lines, keys = R.serve_inputs(3, PLAN["markets"])
    preload = ctx.out / f"{tag}.preload"
    preload.write_text("dasm-requests 1\n" + "".join(l + "\n" for l in lines))
    server, warm = R.start_and_warm(ctx, preload, keys, 2, tag)
    return preload, server, warm, keys


class Determinism(unittest.TestCase):
    def test_request_streams_follow_the_seed(self):
        plan = R.serve_plan(smoke=False)

        def stream(seed):
            preload, keys = R.serve_inputs(seed, plan["markets"])
            events = R.make_schedule(seed, plan, 4, keys)
            return "\n".join(preload + [f"{t} {c} {l}" for t, c, l in events])

        self.assertEqual(stream(7), stream(7))
        self.assertNotEqual(stream(7), stream(8))
        self.assertIn("instance live gen complete 256", stream(7))
        requests = [l for l in stream(7).splitlines() if " request " in l]
        keys = set(R.serve_inputs(7, plan["markets"])[1])
        misses = [l for l in requests if l.split(" ", 2)[2] not in keys]
        self.assertEqual(len(misses), len(requests) // R.SERVE_MISS_EVERY)
        self.assertEqual({m.split()[4] for m in misses}, set(R.SERVE_ALGOS))

    def test_instances_follow_the_seed(self):
        ctx = context("solve_dense")

        def instance(seed, name):
            path = ctx.out / name
            R.run_timed([ctx.dasm, "gen", "--family", "complete", "--n", 64,
                         "--seed", seed, "--out", path], ctx.out / "gen.log")
            return path.read_bytes()

        self.assertEqual(instance(5, "a.txt"), instance(5, "b.txt"))
        self.assertNotEqual(instance(5, "a.txt"), instance(6, "c.txt"))


class Gates(unittest.TestCase):
    def test_replay_gate_catches_one_flipped_byte(self):
        ctx = context()
        preload, server, warm, keys = small_server(ctx, "gate")
        step = R.Step(ctx, server, "gate.step", R.make_schedule(1, PLAN, 2, keys), 2)
        server.stop()
        self.assertEqual(step.errors, 0)
        _, verdicts = R.replay_gate(ctx, preload, [warm, step])
        self.assertEqual(verdicts, [True, True])
        recv = step.conns[1][1]
        data = bytearray(recv.read_bytes())
        i = data.index(b"matched ") + len(b"matched ")
        data[i] = ord("9") if data[i] != ord("9") else ord("8")
        recv.write_bytes(bytes(data))
        _, verdicts = R.replay_gate(ctx, preload, [warm, step])
        self.assertEqual(verdicts, [True, False])

    def test_solve_gates_catch_an_uncertified_or_altered_matching(self):
        ctx = context("solve_dense")
        inst = ctx.out / "inst.txt"
        R.run_timed([ctx.dasm, "gen", "--family", "complete", "--n", 96, "--seed", 4,
                     "--out", inst], ctx.out / "gen.log")
        ref = ctx.out / "ref.match"
        res = R.run_json([ctx.probe, "solve", "--in", inst, "--ref-out", ref, "--threads", 1,
                          "--alt-threads", 2, "--seed", 4], ctx.out / "ref.log")
        cfg = {"threads": 1, "eps": 0.25}
        _, _, out, stdout = R.cli_solve(ctx, cfg, inst, "ok", 4)
        R.check_reference(ctx, res, 0.25, "reference")
        R.check_cli_solve(ctx, out, stdout, ref.read_bytes(), res, "cli")
        self.assertEqual((ctx.attempted, ctx.failed), (2, 0))

        # An uncertified matching: more blocking pairs than eps*|E|.
        R.check_reference(ctx, dict(res, blocking=res["edges"], almost_stable=False),
                          0.25, "uncertified")
        self.assertEqual(ctx.failed, 1)
        # The CLI reporting the budget as missed fails too.
        text = stdout.read_text().replace(", met)", ", NOT MET)")
        stdout.write_text(text)
        R.check_cli_solve(ctx, out, stdout, ref.read_bytes(), res, "not met")
        self.assertEqual(ctx.failed, 2)
        # The reference refuses to run without the thread-count gate.
        r = subprocess.run([str(ctx.probe), "solve", "--in", str(inst), "--ref-out",
                            str(ref), "--threads", "1"], capture_output=True, text=True)
        self.assertNotEqual(r.returncode, 0)
        # One pair swapped in the written matching.
        _, _, out, stdout = R.cli_solve(ctx, cfg, inst, "swap", 4)
        lines = out.read_text().splitlines()
        pairs = [i for i, l in enumerate(lines) if len(l.split()) == 2 and l.split()[0].isdigit()]
        a, b = pairs[0], pairs[1]
        ma, wa = lines[a].split()
        mb, wb = lines[b].split()
        lines[a], lines[b] = f"{ma} {wb}", f"{mb} {wa}"
        out.write_text("\n".join(lines) + "\n")
        R.check_cli_solve(ctx, out, stdout, ref.read_bytes(), res, "swapped")
        self.assertEqual(ctx.failed, 3)


class ScrapeDeltas(unittest.TestCase):
    BEFORE = """# TYPE dasm_net_requests counter
dasm_net_requests 10
# TYPE dasm_time_net_read_us histogram
dasm_time_net_read_us_bucket{le="3"} 2
dasm_time_net_read_us_bucket{le="17"} 5
dasm_time_net_read_us_bucket{le="+Inf"} 5
dasm_time_net_read_us_sum 40
dasm_time_net_read_us_count 5
"""
    AFTER = """# TYPE dasm_net_requests counter
dasm_net_requests 110
# TYPE dasm_time_net_read_us histogram
dasm_time_net_read_us_bucket{le="3"} 12
dasm_time_net_read_us_bucket{le="17"} 85
dasm_time_net_read_us_bucket{le="35"} 104
dasm_time_net_read_us_bucket{le="+Inf"} 104
dasm_time_net_read_us_sum 2119
dasm_time_net_read_us_count 104
"""

    def test_bucket_bounds_follow_the_registry_layout(self):
        # 16 exact buckets, then 8 per octave: [16,17], [18,19], ..., [32,35].
        self.assertEqual([R.bucket_lower(le) for le in (0, 15, 17, 31, 35, 63, 71)],
                         [0, 15, 16, 30, 32, 60, 64])

    def test_quantiles_of_the_delta(self):
        # Per bucket, before: {3: 2, 17: 3}; after: {3: 12, 17: 73, 35: 19}.
        # Delta: {3: 10, 17: 70, 35: 19}, 99 observations summing to 2079.
        d = R.ScrapeDelta(self.BEFORE, self.AFTER)
        self.assertEqual(d.buckets("time.net.read_us"), {3: 10, 17: 70, 35: 19})
        self.assertEqual(d.counter("net.requests"), 100)
        # Buckets: [3, 4) exact; le 17 -> [16, 18); le 35 -> [32, 36).
        # p50: rank int(0.5*99+0.5)=50, 40th of 70 in [16, 18).
        self.assertAlmostEqual(d.quantile("time.net.read_us", 0.50), 16 + 2 * 39.5 / 70)
        # p10: rank 10, the 10th of 10 in [3, 4).
        self.assertAlmostEqual(d.quantile("time.net.read_us", 0.10), 3 + 9.5 / 10)
        # p11: rank 11, the 1st of 70 in [16, 18).
        self.assertAlmostEqual(d.quantile("time.net.read_us", 0.11), 16 + 2 * 0.5 / 70)
        # p99: rank 98, the 18th of 19 in [32, 36).
        self.assertAlmostEqual(d.quantile("time.net.read_us", 0.99), 32 + 4 * 17.5 / 19)
        self.assertEqual(d.mean("time.net.read_us"), 2079 / 99)

    def test_one_observation_reads_exactly(self):
        after = self.BEFORE.replace('le="+Inf"} 5', 'le="+Inf"} 6').replace(
            "_count 5", "_count 6").replace("_sum 40", "_sum 1040").replace(
            'dasm_time_net_read_us_bucket{le="+Inf"}',
            'dasm_time_net_read_us_bucket{le="1023"} 6\ndasm_time_net_read_us_bucket{le="+Inf"}')
        d = R.ScrapeDelta(self.BEFORE, after)
        self.assertEqual(d.buckets("time.net.read_us"), {1023: 1})
        self.assertEqual(d.quantile("time.net.read_us", 0.99), 1000.0)

    def test_live_scrapes_parse(self):
        ctx = context()
        _, server, _, keys = small_server(ctx, "scr")
        step = R.Step(ctx, server, "scr.step", R.make_schedule(2, PLAN, 2, keys), 2,
                      scrape=True)
        server.stop()
        self.assertEqual(step.scrape.counter("net.requests"), step.requests)
        self.assertEqual(sum(step.scrape.buckets("time.svc.queue_wait_us").values()),
                         step.requests)
        self.assertEqual(step.scrape.counter("svc.cache_misses"),
                         step.requests // R.SERVE_MISS_EVERY)


class Windows(unittest.TestCase):
    def test_windowed_p99(self):
        samples = [(t, 100.0) for t in range(3000)]
        samples[10] = (10, 9000.0)  # one stalled request in the first window
        self.assertEqual(R.windowed_p99(samples), 0.1)


class Smoke(unittest.TestCase):
    def run_bench(self, workload, trace, cwd):
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                            "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke"],
                           cwd=cwd, capture_output=True, text=True, timeout=600)
        return r

    def test_all_workloads_end_to_end(self):
        spec = json.loads((R.ROOT / "BENCHMARK.json").read_text())
        for w in spec["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = self.run_bench(w["name"], trace, R.ROOT)
                    self.assertEqual(r.returncode, 0, r.stderr[-3000:])
                    result = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in spec[section]])

    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(R.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(R.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve_dense",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=tmp, capture_output=True, text=True, timeout=170, env=env)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


class LayerMap(unittest.TestCase):
    def test_every_per_layer_metric_is_mapped(self):
        spec = json.loads((R.ROOT / "BENCHMARK.json").read_text())
        mapped = {row["metric"] for row in json.loads((R.HERE / "layers.json").read_text())}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, mapped)


if __name__ == "__main__":
    unittest.main()
