#!/usr/bin/env python3
"""End-to-end benchmark of the `dr-rules` command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload spmv-full --seed 1 --seconds 50 --trace 0

The script builds `dr-rules` and the in-process probe (`perfbench/probe`)
from source, then runs the workload's command chain as child processes,
one command at a time at `--threads 1`, for `--seconds` seconds. With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs the
traced probe next to the untraced commands and prints the per-layer
metrics. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. Checks that fail make
the exit code 1. See perfbench/README.md for what each number means.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBE_MANIFEST = os.path.join(BENCH_DIR, "probe", "Cargo.toml")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Every workload runs the same chain on its own scenario: a cold
# explore->rules run into a fresh store (the main command), warm reruns
# over that store, a small-budget `rules` run for the Fig. 7 accuracy
# check, a two-worker swarm, and the scenario's static verification.
WORKLOADS = {
    "spmv-full": {
        "scenario": "spmv",
        "iterations": 1600,  # exhausts the 1600-traversal space
        "exhaustive": True,
        "warm_reruns": 3,  # ~20 ms each, so several per round
        "verify": ["verify-rules", "--max-schedules", "0"],
        "lint_cap": 0,
    },
    "halo-search": {
        "scenario": "halo",
        # Of ~3e16 traversals. At 2000 the main command's time varied 3x
        # by seed and a run fit only eight rounds; 1000 keeps training a
        # third of the work and fits twice the rounds.
        "iterations": 1000,
        "exhaustive": False,
        "warm_reruns": 2,  # a warm rerun still trains: ~0.3 s each
        # verify-rules does not finish on halo's space; lint is bounded.
        "verify": ["lint", "--max-schedules", "2048"],
        "lint_cap": 2048,
    },
}
SUBSET = 400  # the CLI's small run; the probe's accuracy mode repeats it
WORKERS = 2
PANEL = 8  # seeds per run, each weighing the same
FIXED_SEEDS = [101, 202, 303, 404, 505, 606, 707, 808]
COMMAND_TIMEOUT_S = 120
LAST_ROUND_START_S = 110  # no round starts later, so a run ends < 180 s


def declared_metrics():
    """Name -> unit of the end-to-end and per-layer metrics, as the
    repository's BENCHMARK.json declares them."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


END_TO_END, PER_LAYER = declared_metrics()

STORE_LINE = re.compile(r"store: (\d+) hits, (\d+) misses, (\d+) loaded, (\d+) appended")
MERGED_LINE = re.compile(r"merged (\d+) shards: (\d+) records, .* (\d+) quarantined")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def panel_seeds(seed):
    """The run's seed panel: the given seed, then fixed seeds shared by
    every run (halo's cost varies 3x with the search seed, so a panel of
    only fresh seeds would make run-to-run spread mostly seed spread)."""
    return [seed] + [f for f in FIXED_SEEDS if f != seed][: PANEL - 1]


def hermetic_env():
    """The child environment: no DR_* variable reaches the program."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DR_")}


class Result:
    def __init__(self, code, wall, rss_mb, out, err):
        self.code, self.wall, self.rss_mb, self.out, self.err = code, wall, rss_mb, out, err


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, cwd, env):
    """Runs `argv` to completion; returns its exit code, wall time from
    spawn to exit, peak RSS (its own and its reaped children's), stdout
    and stderr. A command that outlives its timeout is killed."""
    os.makedirs(cwd, exist_ok=True)
    out_path, err_path = os.path.join(cwd, "stdout.txt"), os.path.join(cwd, "stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, kill_group, (p.pid,))
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    return Result(p.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


def last_json_line(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    return json.loads(lines[-1])


def median_mean(per_seed):
    """Median of each seed's samples, averaged over the seeds."""
    meds = [statistics.median(v) for v in per_seed.values() if v]
    return sum(meds) / len(meds)


class Bench:
    def __init__(self, args):
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.env = hermetic_env()
        self.work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        self.rss_mb = 0.0
        self.available_parallelism = None
        self.nproc = len(os.sched_getaffinity(0))

    # -- bookkeeping ------------------------------------------------------

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what} {detail}".strip())
            log(f"CHECK FAILED: {what} {detail}")
        return ok

    def run_cmd(self, name, argv, cwd):
        r = spawn(argv, cwd, self.env)
        self.check(f"{name} exits 0", r.code == 0, f"(code {r.code}: {r.err.strip()[-400:]})")
        return r

    def cli(self, name, rdir, args):
        """Runs `dr-rules` through the probe's `spawn` mode, which reports
        the command's own wall time and peak RSS (a child forked by this
        Python process would carry this script's RSS in its counter)."""
        cwd = os.path.join(rdir, name)
        report = os.path.join(cwd, "spawn.json")
        r = self.run_cmd(name, [self.probe_bin, "spawn", report, self.dr_rules] + [str(a) for a in args], cwd)
        if os.path.isfile(report):
            with open(report) as f:
                rep = json.load(f)
            r.wall, r.rss_mb = rep["wall_s"], rep["maxrss_kib"] / 1024.0
            self.rss_mb = max(self.rss_mb, r.rss_mb)
        return r

    def probe(self, name, rdir, args):
        r = self.run_cmd(name, [self.probe_bin] + [str(a) for a in args], os.path.join(rdir, name))
        if r.code != 0:
            return None
        out = json.loads(r.out.strip().splitlines()[-1])
        self.available_parallelism = out.get("available_parallelism", self.available_parallelism)
        return out

    # -- build ------------------------------------------------------------

    def build(self):
        if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
                and os.path.isfile(os.path.join(ROOT, "src", "bin", "dr-rules.rs"))):
            log(f"{ROOT} is not a checkout of the repository (no Cargo.toml / src/bin/dr-rules.rs)")
            sys.exit(2)
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        for cmd in (["cargo", "build", "--release", "--offline", "--bin", "dr-rules"],
                    ["cargo", "build", "--release", "--offline", "--manifest-path", PROBE_MANIFEST]):
            if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log(f"build failed: {' '.join(cmd)}")
                sys.exit(2)
        self.dr_rules = os.path.join(target, "release", "dr-rules")
        self.probe_bin = os.path.join(target, "release", "perfbench-probe")

    # -- the command chain -------------------------------------------------

    def main_command(self, rdir, seed, report=False):
        """Cold explore->rules into a fresh store. Returns (result, ledger
        entry) or None when the command failed."""
        sc, n = self.wl["scenario"], self.wl["iterations"]
        args = [sc, "explore", "--iterations", n, "--seed", seed, "--threads", 1,
                "--store", os.path.join(rdir, "store"), "--ledger", os.path.join(rdir, "ledger-cold")]
        if report:
            args += ["--report", os.path.join(rdir, "report.json")]
        r = self.cli("cold", rdir, args)
        if r.code != 0:
            return None
        entry = last_json_line(os.path.join(rdir, "ledger-cold", "ledger.jsonl"))
        records = entry["records"]["count"]
        if self.wl["exhaustive"]:
            self.check("main run covers the whole space",
                       records == n and entry["search"]["exhausted"], f"({records} records)")
        self.check("main run mines rulesets", entry["mining"]["num_rulesets"] > 0)
        self.count_quarantined(entry)
        m = STORE_LINE.search(r.out)
        self.check("cold store appends every record",
                   m is not None and int(m.group(1)) == 0 and int(m.group(4)) == records,
                   f"({m.group(0) if m else 'no store line'})")
        return r, entry

    def count_quarantined(self, entry):
        quarantined = (entry.get("resilience") or {}).get("quarantined", 0)
        self.attempted += entry["records"]["count"]
        self.failed += quarantined

    def swarm(self, rdir, seed):
        sc, n = self.wl["scenario"], self.wl["iterations"]
        sw = os.path.join(rdir, "swarm-store")
        r = self.cli("swarm", rdir, [sc, "swarm", "--workers", WORKERS, "--iterations", n,
                                     "--seed", seed, "--threads", 1, "--store", sw])
        if r.code != 0:
            return None
        m = MERGED_LINE.search(r.out)
        ok = self.check("swarm merges every shard", m is not None and int(m.group(1)) == WORKERS,
                        f"({r.out.strip()[-200:]})")
        if ok:
            self.attempted += int(m.group(2))
            self.failed += int(m.group(3))
        entry = last_json_line(os.path.join(sw, "ledger.jsonl"))
        self.check("swarm mines rulesets", entry["mining"]["num_rulesets"] > 0)
        return r, entry, sw

    def untraced_round(self, rdir, seed, s):
        sc, n = self.wl["scenario"], self.wl["iterations"]
        main = self.main_command(rdir, seed)
        if main is None:
            return
        r, entry = main
        fp, records = entry["records"]["fingerprint"], entry["records"]["count"]
        s["time_to_rules_s"].append(r.wall)
        s["records"] = records
        s["best_impl_us"] = [entry["search"]["best_time"] * 1e6]
        s["cold_fingerprint"] = fp
        s["store"] = os.path.join(rdir, "store")

        warm = []
        for i in range(self.wl["warm_reruns"]):
            ledger = os.path.join(rdir, f"ledger-warm-{i}")
            w = self.cli(f"warm-{i}", rdir, [sc, "explore", "--iterations", n, "--seed", seed, "--threads", 1,
                                             "--store", s["store"], "--ledger", ledger])
            if w.code != 0:
                continue
            m = STORE_LINE.search(w.out)
            self.check("warm rerun answers every record from the store",
                       m is not None and int(m.group(1)) == records and int(m.group(4)) == 0,
                       f"({m.group(0) if m else 'no store line'})")
            wfp = last_json_line(os.path.join(ledger, "ledger.jsonl"))["records"]["fingerprint"]
            self.check("warm fingerprint equals cold", wfp == fp, f"({wfp} vs {fp})")
            warm.append(w.wall)
        if warm:
            s["warm_rerun_s"].append(statistics.median(warm))

        if "subset_fingerprint" not in s:  # no metric times it: once per seed
            sub = self.cli("subset", rdir, [sc, "rules", "--iterations", SUBSET, "--seed", seed, "--threads", 1,
                                            "--ledger", os.path.join(rdir, "ledger-subset")])
            if sub.code == 0:
                e = last_json_line(os.path.join(rdir, "ledger-subset", "ledger.jsonl"))
                self.check("subset run prints rulesets",
                           e["mining"]["num_rulesets"] > 0 and "ruleset (" in sub.out)
                s["subset_fingerprint"] = e["records"]["fingerprint"]

        sw = self.swarm(rdir, seed)
        if sw is not None:
            s["swarm_wall_s"].append(sw[0].wall)

        v = self.cli("verify", rdir, [sc] + self.wl["verify"] + ["--iterations", n, "--seed", seed,
                                                                 "--threads", 1, "--report",
                                                                 os.path.join(rdir, "verify.json")])
        if v.code == 0:
            with open(os.path.join(rdir, "verify.json")) as f:
                rep = json.load(f)
            if self.wl["verify"][0] == "verify-rules":
                self.check("verify-rules certifies every fastest-class ruleset",
                           rep["all_fast_certified"] is True and len(rep["rulesets"]) > 0)
            else:
                self.check("lint finds no error-severity diagnostic", rep["errors"] == 0,
                           f"({rep['errors']} errors)")
            s["verify_s"].append(v.wall)

    def traced_round(self, rdir, seed, s):
        main = self.main_command(rdir, seed, report=True)
        sw = self.swarm(rdir, seed)
        if main is None or sw is None:
            return
        r, entry = main
        fp = entry["records"]["fingerprint"]
        spans_out = os.path.join(rdir, "spans.json")
        t = self.probe("trace", rdir, ["trace", "--scenario", self.wl["scenario"], "--seed", seed,
                                       "--iterations", self.wl["iterations"], "--lint-cap", self.wl["lint_cap"],
                                       "--work", os.path.join(rdir, "probe-work"), "--swarm", sw[2],
                                       "--spans-out", spans_out])
        if t is None:
            return
        for kind in ("cold", "warm", "bare"):
            got = t[f"fingerprint_{kind}"]
            self.check(f"traced {kind} fingerprint equals the CLI's", got == fp, f"({got} vs {fp})")
        merged = sw[1]["records"]["fingerprint"]
        self.check("traced merge fingerprint equals the swarm's", t["fingerprint_merged"] == merged,
                   f"({t['fingerprint_merged']} vs {merged})")
        self.check("traced warm run answers every lookup from the store",
                   t["warm_hits"] == t["warm_lookups"] == t["records"]
                   and t["warm_appended"] == 0 and t["warm_simulated"] == 0)
        self.check("traced run mines rulesets", t["rulesets"] > 0)

        layers = dict(t["layers"])
        with open(os.path.join(rdir, "report.json")) as f:
            cli_explore = json.load(f)["phases"]["explore"]
        layers["core.stack_overhead_s"] = cli_explore - t["bare_explore_s"]
        shard_secs = []
        for i in range(WORKERS):
            with open(os.path.join(sw[2], f"shard-{i}-of-{WORKERS}.manifest.json")) as f:
                shard_secs.append(json.load(f)["seconds"])
        slots = min(WORKERS, self.nproc)
        layers["swarm.critical_path_s"] = max(shard_secs)
        layers["swarm.compute_s"] = sum(shard_secs)
        layers["swarm.overhead_s"] = sw[0].wall - max(shard_secs)
        layers["swarm.efficiency"] = sum(shard_secs) / (slots * sw[0].wall)
        layers["swarm.parallel_slots"] = slots
        layers["bench.trace_overhead_ratio"] = layers["bench.traced_total_s"] / r.wall
        for k, v in layers.items():
            s.setdefault(k, []).append(v)
        os.makedirs(OUT_DIR, exist_ok=True)
        shutil.copyfile(spans_out, os.path.join(OUT_DIR, f"spans-{self.args.workload}.json"))

    # -- the run ------------------------------------------------------------

    def run(self):
        self.build()
        shutil.rmtree(self.work, ignore_errors=True)
        seeds = panel_seeds(self.args.seed)
        samples = {seed: {m: [] for m in END_TO_END} for seed in seeds}
        traced = self.args.trace == 1
        start = time.perf_counter()
        rounds = 0
        min_rounds = 1 if traced else PANEL
        try:
            while rounds < min_rounds or time.perf_counter() - start < self.args.seconds:
                if time.perf_counter() - start > LAST_ROUND_START_S:
                    break
                seed = seeds[rounds % PANEL]
                rdir = os.path.join(self.work, f"seed-{seed}")
                shutil.rmtree(rdir, ignore_errors=True)  # fresh stores and ledgers
                (self.traced_round if traced else self.untraced_round)(rdir, seed, samples[seed])
                rounds += 1
            measured_s = time.perf_counter() - start
            used = {seed: s for seed, s in samples.items() if s["time_to_rules_s"] or s.get("sim.execute_s")}
            metrics = self.per_layer(used) if traced else self.end_to_end(used)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return rounds, measured_s, used, metrics

    def end_to_end(self, used):
        accuracy, setup = {}, []
        for seed, s in used.items():
            rdir = os.path.join(self.work, f"seed-{seed}")
            a = self.probe("accuracy", rdir, ["accuracy", "--scenario", self.wl["scenario"], "--seed", seed,
                                              "--store", s["store"]])
            if a is not None:
                self.check("accuracy reads the main run's records from its store",
                           a["store_fingerprint"] == s["cold_fingerprint"],
                           f"({a['store_fingerprint']} vs {s['cold_fingerprint']})")
                self.check("in-process subset run equals the CLI's",
                           a["subset_fingerprint"] == s.get("subset_fingerprint"),
                           f"({a['subset_fingerprint']} vs {s.get('subset_fingerprint')})")
                self.check("subset run mines rulesets", a["subset_rulesets"] > 0)
                accuracy[seed] = [a["accuracy"]]
            st = self.probe("setup", rdir, ["setup", "--scenario", self.wl["scenario"], "--seed", seed,
                                            "--store", s["store"]])
            if st is not None:
                setup.extend(st["samples"])
        metrics = {}
        for m in ("time_to_rules_s", "best_impl_us", "warm_rerun_s", "swarm_wall_s", "verify_s"):
            per_seed = {seed: s[m] for seed, s in used.items() if s[m]}
            if per_seed:
                metrics[m] = median_mean(per_seed)
        if "time_to_rules_s" in metrics:
            records = statistics.mean(s["records"] for s in used.values())
            metrics["impls_per_s"] = records / metrics["time_to_rules_s"]
        if accuracy:
            metrics["label_accuracy"] = median_mean(accuracy)
        if setup:
            metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = self.rss_mb
        return metrics

    def per_layer(self, used):
        return {m: median_mean({seed: s[m] for seed, s in used.items() if s.get(m)})
                for m in PER_LAYER if any(s.get(m) for s in used.values())}


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = Bench(args)
    rounds, measured_s, used, metrics = bench.run()
    declared = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(declared) - set(metrics) - {"ok_ratio"})
    bench.check("every declared metric was measured", not missing, f"(missing {missing})")
    if args.trace == 0:
        metrics["ok_ratio"] = 1.0 - bench.failed / max(bench.attempted, 1)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "panel_seeds": list(used),
        "trace": args.trace,
        "rounds": rounds,
        "measured_s": measured_s,
        "nproc": bench.nproc,
        "available_parallelism": bench.available_parallelism,
        "swarm_label": ("overhead-only (nproc = 1)" if bench.nproc == 1
                        else f"parallel on {min(WORKERS, bench.nproc)} cpus"),
        "git": git_describe(),
        "failures": bench.failures,
    }
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": metrics[m], "unit": declared[m]} for m in declared if m in metrics},
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": provenance, "samples": {str(k): v for k, v in used.items()},
                   "result": result}, f, indent=1, default=str)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
