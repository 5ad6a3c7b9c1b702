"""Worker process of the benchmark.  run.py starts one per pass (or per set-up
sample) with a JSON spec as the only argument; the worker sets the toolkit
up, runs the pass, and writes a JSON result to spec["result"].

Tasks:
- setup: set-up only (one setup_s sample).
- pipeline: one `alforge pipeline` run, through alforge.cli.main, over
  spec["order"] into spec["out_dir"]; one operation is one grammar.
- census: enumerate_templates over spec["plan"]; one operation is one call.
- parse_mix: warm ChartParser.parse over the seeded mix; one operation is one
  parse.  Runs spec["passes"] passes, or passes for spec["seconds"].

With spec["trace"] the worker installs the span tracer before set-up, runs
the micro-benchmarks after its passes, and reports per-layer metrics.

Every reported time is scaled to the host's usual speed (see calib.py).
A calibration sampler runs from the start of the worker; it scales set-up,
each census call, each pipeline grammar and the pipeline pass.  parse_mix
stops it after set-up and scales each batch of parses by chunks timed
between batches instead.  "raw_setup_s" and "raw_pass_s" keep the unscaled
times for the record.
"""

from time import perf_counter

from calib import Sampler, chunk_s, scale_series

SAMPLER = Sampler().start()
T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from common import (  # noqa: E402
    OUT,
    PIPELINE_ARGS,
    PIPELINE_THREADS,
    add_src_path,
    census_record,
    parse_mix,
)

SMOKE_PARSES = 150  # parse_mix size under run.py --smoke
PARSE_BATCH = 256  # parses between two calibration chunks in parse_mix


def setup(spec: dict, tracer) -> dict:
    """Import the toolkit and build the grammar inventory."""
    add_src_path()
    import alforge.cli  # noqa: F401  (the toolkit's entry point imports every layer)

    if tracer is not None:
        import tracing

        tracing.install(tracer)
    from alforge.grammars import enumerate_grammars

    return {g.params: g for g in enumerate_grammars()}


def run_pipeline(spec: dict) -> dict:
    from alforge import cli

    spans: list[tuple[float, float]] = []
    inner = cli._pipeline_one

    def timed(*args, **kwargs):
        t = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spans.append((t, perf_counter()))

    # cmd_pipeline looks _pipeline_one up at call time, in both the serial
    # and the thread-pool path.
    cli._pipeline_one = timed
    argv = ["pipeline", "--params", *spec["order"], *PIPELINE_ARGS,
            "--threads", str(PIPELINE_THREADS), "--out-dir", spec["out_dir"]]
    t = perf_counter()
    rc = cli.main(argv)
    end = perf_counter()
    return {"rc": rc, "pass_s": [SAMPLER.scaled(t, end)], "raw_pass_s": [end - t],
            "op_s": [SAMPLER.scaled(a, b) for a, b in spans]}


def run_census(spec: dict, grammars: dict) -> dict:
    from alforge.templates import enumerate_templates

    spans, records = [], []
    for gid, max_len in spec["plan"]:
        t = perf_counter()
        templates = enumerate_templates(grammars[gid], max_len)
        spans.append((t, perf_counter()))
        records.append(census_record(gid, max_len, templates))
        del templates
    op_s = [SAMPLER.scaled(a, b) for a, b in spans]
    return {"pass_s": [sum(op_s)], "raw_pass_s": [sum(b - a for a, b in spans)], "op_s": op_s,
            "records": records}


def prepare_parse_mix(spec: dict, grammars: dict, tracer):
    """Build one parser per grammar and the categorized mix, and run one
    unmeasured pass that fills each parser's pair memo.  Returns the pass
    function, the mix size and the warm-up pass's failure count."""
    from alforge import parser as parser_mod

    mix = parse_mix(spec["seed"])
    if spec.get("smoke"):
        mix = mix[:SMOKE_PARSES]
    parsers = {gid: parser_mod.ChartParser(g.policy) for gid, g in grammars.items()}
    items = [
        (parsers[m["grammar"]], grammars[m["grammar"]].categorize(m["classes"].split()),
         m["label"], m["derivations"], m["grammar"])
        for m in mix
    ]
    scope = tracer.span if tracer else (lambda name, rid: nullcontext())

    def one_pass(lat: list | None) -> tuple[int, float, float]:
        """Parse the mix once in batches, each between two calibration
        chunks; returns the failures and the scaled and raw pass times."""
        failed, batches, walls, chunks = 0, [], [], [chunk_s()]
        for start in range(0, len(items), PARSE_BATCH):
            batch = []
            t0 = perf_counter()
            for parser, seq, label, derivations, gid in items[start:start + PARSE_BATCH]:
                with scope("bench.parse_op", gid):
                    t = perf_counter()
                    result = parser.parse(seq, derivations=derivations)
                    batch.append(perf_counter() - t)
                    ok = result.grammatical == label
                    if derivations and ok:
                        ok = bool(result.derivations) and all(
                            parser_mod.derivation_check(d) for d in result.derivations)
                failed += not ok
            walls.append(perf_counter() - t0)
            chunks.append(chunk_s())
            batches.append(batch)
        scaled = scale_series(walls, chunks)
        if lat is not None:
            for batch, wall, s in zip(batches, walls, scaled):
                lat.extend(dt * s / wall for dt in batch)
        return failed, sum(scaled), sum(walls)

    return one_pass, len(items), one_pass(None)[0]


def run_parse_mix(spec: dict, one_pass) -> dict:
    op_s: list[float] = []
    pass_s: list[float] = []
    raw_pass_s: list[float] = []
    failed = 0
    start = perf_counter()
    while True:
        f, scaled, raw = one_pass(op_s)
        failed += f
        pass_s.append(scaled)
        raw_pass_s.append(raw)
        if "passes" in spec:
            if len(pass_s) >= spec["passes"]:
                break
        elif perf_counter() - start >= spec["seconds"]:
            break
    return {"pass_s": pass_s, "raw_pass_s": raw_pass_s, "op_s": op_s, "failed": failed,
            "attempted": len(op_s)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
    grammars = setup(spec, tracer)
    if spec["workload"] == "parse_mix":
        one_pass, n_items, warm_failed = prepare_parse_mix(spec, grammars, tracer)
    t = perf_counter()
    if spec["workload"] == "parse_mix":
        SAMPLER.stop()  # keeps parse latencies undisturbed; see one_pass
    result: dict = {"setup_s": SAMPLER.scaled(T0, t), "raw_setup_s": t - T0}
    task = spec["task"]
    if task == "pipeline":
        result.update(run_pipeline(spec))
    elif task == "census":
        result.update(run_census(spec, grammars))
    elif task == "parse_mix":
        result.update(run_parse_mix(spec, one_pass))
    if spec["workload"] == "parse_mix":
        # the warm-up pass checks every verdict too
        result["failed"] = result.get("failed", 0) + warm_failed
        result["attempted"] = result.get("attempted", 0) + n_items
    SAMPLER.stop()
    if tracer is not None:
        import micro
        import tracing

        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(OUT / f"trace-{spec['workload']}.jsonl")
        result["layers"].update(micro.micro_metrics(spec["seed"], grammars))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
