#!/usr/bin/env python3
"""Benchmark of the alforge toolkit.

    python3 perfbench/run.py --workload pipeline96|census|parse_mix|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the toolkit is imported from src/.  Each
workload is a closed loop with one client: worker processes run one after
another, and each operation is issued when the previous one has returned.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: passes of the
workload for --seconds (at least one), plus set-up samples in fresh
processes.  --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics from the traced pass's spans, with the tracing
overhead (traced pass wall time minus untraced).  End-to-end times are
scaled to the host's usual speed by calibration chunks (calib.py); the
record keeps the raw times too.  Every pass checks its
outputs against perfbench/refs/.  The last line of standard output is the
JSON result (with --workload all, each workload prints its own block); a
record with the machine, git SHA and load average is written to
.bench_out/.  --smoke runs shrunken workloads twice and checks that every
metric name in BENCHMARK.json is emitted and that the counts repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import (
    BENCH,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    census_plan,
    digest_tree,
    grammar_ids,
    load_census_ref,
    load_pipeline_ref,
    pipeline_order,
)
from tracing import percentile

SETUP_SAMPLES = 3  # set-up is measured this many times per run; median reported
TRACE_PASSES = 5  # parse_mix passes in each child of a traced run
DEADLINE_S = 170  # every worker is killed after this many seconds of the run
SMOKE_GRAMMARS = 3
SMOKE_COUNTS = ("templates.count", "templates.long_parse_checks", "parser.grammatical_ratio")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    sha = None  # the benchmark may run from a plain export of the tree
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "loadavg_start": Path("/proc/loadavg").read_text().strip(),
    }


class Runner:
    """Runs the passes of one workload in worker processes and checks their
    outputs against the references."""

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = perf_counter() + DEADLINE_S
        self.ids = grammar_ids()
        self.rss_mb: list[float] = []

    def worker(self, spec: dict) -> dict | None:
        fd, path = tempfile.mkstemp(prefix="worker-", suffix=".json", dir=OUT)
        os.close(fd)
        spec = dict(spec, workload=self.workload, seed=self.seed, smoke=self.smoke, result=path)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                cwd=ROOT, stdout=subprocess.DEVNULL,
                timeout=max(1.0, self.deadline - perf_counter()),
            )
            if proc.returncode != 0:
                return None
            result = json.loads(Path(path).read_text())
        except subprocess.TimeoutExpired:
            print(f"worker timed out: {spec['task']}", file=sys.stderr)
            return None
        finally:
            os.unlink(path)
        self.rss_mb.append(result["rss_mb"])
        return result

    def run_pass(self, index: int, trace: bool = False, **budget) -> dict:
        """One pass; returns the worker result (or {}) with attempted/failed."""
        if self.workload == "pipeline96":
            return self._pipeline_pass(trace)
        if self.workload == "census":
            return self._census_pass(index, trace)
        res = self.worker({"task": "parse_mix", "trace": trace, **budget})
        return res or {"attempted": 1, "failed": 1}

    def _pipeline_pass(self, trace: bool) -> dict:
        order = pipeline_order(self.seed, self.ids)
        ref = load_pipeline_ref()
        if self.smoke:
            # only per-grammar artifacts are independent of the grammar set
            order = order[:SMOKE_GRAMMARS]
            ref = {k: v for k, v in ref.items() if k.split("_")[0] in order}
        out_dir = Path(tempfile.mkdtemp(prefix="pipeline-", dir=OUT))
        try:
            res = self.worker({"task": "pipeline", "order": order,
                               "out_dir": str(out_dir), "trace": trace})
            got = digest_tree(out_dir) if res and res["rc"] == 0 else {}
            written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.smoke:
            got = {k: v for k, v in got.items() if k.split("_")[0] in order}
        keys = ref.keys() | got.keys()
        res = res or {}
        res.update(attempted=len(keys), failed=sum(ref.get(k) != got.get(k) for k in keys))
        if "layers" in res:
            res["layers"]["cli.bytes_written"] = written
        return res

    def _census_pass(self, index: int, trace: bool) -> dict:
        plan = census_plan(self.seed, self.ids, index)
        if self.smoke:
            plan = plan[:SMOKE_GRAMMARS]
        ref = {(r["grammar"], r["max_len"]): r for r in load_census_ref()}
        res = self.worker({"task": "census", "plan": plan, "trace": trace}) or {}
        got = {(r["grammar"], r["max_len"]): r for r in res.get("records", [])}
        res.update(attempted=len(plan),
                   failed=sum(got.get(tuple(p)) != ref[tuple(p)] for p in plan))
        return res

    def untraced(self, seconds: float) -> dict:
        setup_samples = 2 if self.smoke else SETUP_SAMPLES
        start = perf_counter()
        passes = []
        while True:
            began = perf_counter()
            passes.append(self.run_pass(len(passes), seconds=seconds))
            # parse_mix loops inside its worker; the others stop before a
            # pass that would likely end after the budget
            if self.workload == "parse_mix" or 2 * perf_counter() - began - start > seconds:
                break
        setups = [p for p in passes if "setup_s" in p]
        while len(setups) < setup_samples:
            res = self.worker({"task": "setup"})
            if res is None:
                break
            setups.append(res)
        raw_setup_s = [p["raw_setup_s"] for p in setups]
        setups = [p["setup_s"] for p in setups]
        pass_s = [s for p in passes for s in p.get("pass_s", [])]
        raw_pass_s = [s for p in passes for s in p.get("raw_pass_s", [])]
        op_s = [s for p in passes for s in p.get("op_s", [])]
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        metrics = {}
        if pass_s and op_s and setups:
            metrics = {
                "wall_s": statistics.median(pass_s),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": max(self.rss_mb),
                "ops_per_s": len(op_s) / sum(pass_s),
                "op_p50_ms": percentile(op_s, 0.50) * 1e3,
                "op_p90_ms": percentile(op_s, 0.90) * 1e3,
            }
        else:
            failed = max(failed, 1)
        samples = {"passes": len(pass_s), "ops": len(op_s), "setups": len(setups)}
        if pass_s:
            # how much slower than the reference speed the host ran
            samples["host_slowdown"] = round(sum(raw_pass_s) / sum(pass_s), 4)
            samples["raw_wall_s"] = round(statistics.median(raw_pass_s), 4)
        if setups:
            samples["raw_setup_s"] = round(statistics.median(raw_setup_s), 4)
        return {"metrics": metrics, "attempted": attempted, "failed": failed, "samples": samples}

    def traced(self) -> dict:
        base = self.run_pass(0, passes=TRACE_PASSES)
        traced = self.run_pass(0, trace=True, passes=TRACE_PASSES)
        metrics = traced.get("layers", {})
        metrics.setdefault("cli.bytes_written", 0)  # only the pipeline writes
        failed = base["failed"] + traced["failed"]
        if metrics and base.get("pass_s"):
            metrics["trace.overhead_s"] = (
                statistics.median(traced["pass_s"]) - statistics.median(base["pass_s"]))
        else:
            metrics, failed = {}, max(failed, 1)
        return {"metrics": metrics, "attempted": base["attempted"] + traced["attempted"],
                "failed": failed,
                "samples": {"passes": len(traced.get("pass_s", [])),
                            "spans": metrics.get("trace.spans", 0)}}


def report(workload: str, seed: int, trace: int, env: dict, out: dict, units: dict) -> dict:
    """Print the human-readable lines and return the JSON result."""
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"workload={workload} seed={seed} trace={trace} "
          + " ".join(f"{k}={v}" for k, v in out["samples"].items()))
    for name, value in out["metrics"].items():
        print(f"  {name:<40} {value:.6g} {units.get(name, '')}")
    print(f"  {'failed_ratio':<40} {ratio:.6g} ({out['failed']}/{out['attempted']})")
    correct = out["failed"] == 0 and set(out["metrics"]) == set(units)
    record = dict(env, workload=workload, seed=seed, trace=trace, correct=correct,
                  failed_ratio=ratio, **out)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("env: " + json.dumps(env))
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in out["metrics"].items()},
    }


def smoke() -> int:
    bench = load_benchmark()
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        runner = Runner(workload, seed=1, smoke=True)
        plain = runner.untraced(seconds=0)
        first, second = runner.traced(), runner.traced()
        problems = []
        if set(plain["metrics"]) != e2e:
            problems.append(f"end-to-end names differ: {sorted(set(plain['metrics']) ^ e2e)}")
        for t in (first, second):
            if set(t["metrics"]) != layers:
                problems.append(f"per-layer names differ: {sorted(set(t['metrics']) ^ layers)}")
        for name in SMOKE_COUNTS:
            if first["metrics"].get(name) != second["metrics"].get(name):
                problems.append(f"{name} differs between runs")
        failed = plain["failed"] + first["failed"] + second["failed"]
        if failed:
            problems.append(f"{failed} failed operations")
        counts = {k: first["metrics"].get(k) for k in SMOKE_COUNTS}
        print(f"{workload}: {'ok' if not problems else 'FAILED'} {counts}")
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="alforge benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (SRC / "alforge" / "__init__.py").is_file():
        print(f"error: no alforge package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    bench = load_benchmark()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        env = environment()
        runner = Runner(workload, args.seed)
        out = runner.traced() if args.trace else runner.untraced(args.seconds)
        env["loadavg_end"] = Path("/proc/loadavg").read_text().strip()
        result = report(workload, args.seed, args.trace, env, out, units)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
