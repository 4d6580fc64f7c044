"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload model3-wavelet --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
training and inference throughput, peak memory); with ``--trace 1`` they
are the per-layer ones from a traced run of fixed work (one set-up and
three training rounds, each followed by an inference round). Full results, and
for a traced run the spans, are written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import env

CHILD_TIMEOUT_S = 150
TRACED_ROUNDS = 3  # fixed work of a traced run, so that its counts repeat exactly


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="CORPUS_DIR", type=Path,
                        help="time one cold set-up on an exported corpus and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cold_setups(workload_name: str, count: int):
    """Set-up times from ``count`` fresh processes, one after another, so
    that no in-process cache carries over between samples."""
    def measure(corpus_dir: Path) -> list[float]:
        samples = []
        for _ in range(count):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
                 "--setup-only", str(corpus_dir)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        return samples
    return measure


def _result_path(workload: str, seed: int, trace: int) -> Path:
    return env.WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def _overhead(result, acct) -> dict | None:
    """Traced minus untraced end-to-end metrics, from the untraced run of
    the same workload and seed in this checkout, if there was one; also
    checks that tracing left the losses bit-identical."""
    path = _result_path(result.workload, result.seed, 0)
    if not path.is_file():
        return None
    untraced = json.loads(path.read_text())
    traced = result.end_to_end()
    for model_seed, observed in result.observed.items():
        theirs = untraced["observed"].get(model_seed, {}).get("l_total")
        acct.check(observed.get("l_total") == theirs,
                   f"model {model_seed}: traced losses differ from untraced {theirs}")
    return {name: {"traced": value, "untraced": untraced["end_to_end"][name],
                   "difference": value - untraced["end_to_end"][name]}
            for name, value in traced.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    env.limit_threads()
    try:
        env.use_source_tree()
    except env.SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # NumPy and the package load only now, after the thread limits are set.
    import measure
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only is not None:
        seconds, _, _ = measure.set_up(workload, args.setup_only)
        print(json.dumps({"setup_s": seconds}))
        return 0

    traced = bool(args.trace)
    corpus_dir = env.WORK / f"corpus-{args.workload}-{args.seed}-{os.getpid()}"
    references = measure.load_references(workload, args.seed)
    extra = None if traced else cold_setups(workload.name, workload.setup_runs - 1)
    result = measure.run(workload, args.seed, args.seconds, corpus_dir,
                         rounds=TRACED_ROUNDS if traced else None, trace=traced,
                         extra_setups=extra, references=references)
    acct = result.acct
    e2e = result.end_to_end()
    overhead = _overhead(result, acct) if traced else None
    environment = env.environment()

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print("corpus " + json.dumps(result.facts, sort_keys=True))
    print(f"setup_s samples {[round(s, 4) for s in result.setup_samples]}")
    for phase, rounds in (("train", result.train_rounds), ("infer", result.infer_rounds)):
        rates = [round(d / s, 2) for d, s in rounds if s > 0]
        print(f"{phase} rounds {len(rounds)}  graphs/s per round {rates}")
    print(f"reference {result.reference}  checks {acct.checks}  "
          f"attempted {acct.attempted}  failed {acct.failed}")
    for problem in acct.problems[:20]:
        print(f"FAILED {problem}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment, "corpus": result.facts,
        "setup_samples": result.setup_samples,
        "train_rounds": result.train_rounds, "infer_rounds": result.infer_rounds,
        "end_to_end": e2e, "reference": result.reference,
        "attempted": acct.attempted, "failed": acct.failed, "problems": acct.problems,
        "observed": result.observed,
    }
    if traced:
        metrics = {name: {"value": result.layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        idle = [name for name, _ in tracing.PER_LAYER if result.layer[name] == 0]
        for name, unit in tracing.PER_LAYER:
            print(f"  {name:28s} {result.layer[name]:14.6g} {unit}")
        print(f"layer metrics that did not run (reported as 0): {idle}")
        print(f"absent wrapped names: {result.tracer.absent}")
        if overhead is None:
            print("overhead: no untraced result for this workload and seed in this checkout")
        else:
            print("overhead (traced - untraced) " + json.dumps(overhead, sort_keys=True))
        spans_path = env.WORK / "results" / f"{workload.name}-seed{args.seed}-spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as fh:
            for span in result.tracer.records():
                fh.write(json.dumps(span) + "\n")
        record.update(layer=result.layer, absent=result.tracer.absent, not_run=idle,
                      overhead=overhead, trace_wall_s=result.trace_wall_s,
                      spans=str(spans_path.relative_to(env.ROOT)))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in measure.END_TO_END}

    path = _result_path(workload.name, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: no measurement for {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": acct.failed == 0, "attempted": acct.attempted,
                      "failed": acct.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
