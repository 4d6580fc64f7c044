"""Record the outputs the benchmark checks runs against.

    python3 perfbench/record_references.py --seeds 0-23 [--workload NAME ...]

For each workload and seed this does the fixed work of a traced run,
untraced: one set-up, one training round and one inference round. It stores
per model the warm-pass accuracy, the per-epoch ``l_total``, the test
accuracy, the corpus accuracy and the per-graph predictions in
``references.json``, next to a digest of the workload definition. Record
again only when a workload definition changes, or when a change to the
program is meant to change its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import env


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-23"))
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    env.limit_threads()
    env.use_source_tree()
    import measure  # after the thread limits, like run.py
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    path = measure.REFERENCES
    data = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    data["about"] = ("per workload and seed: per model seed, the outputs of one set-up, "
                     "one training round and one inference round")
    for name in names:
        workload = workloads.WORKLOADS[name]
        digest = measure.definition_digest(workload)
        entry = data["workloads"].get(name)
        if entry is None or entry["definition"] != digest:
            entry = data["workloads"][name] = {"definition": digest, "seeds": {}}
        for seed in args.seeds:
            corpus_dir = env.WORK / f"corpus-record-{name}-{seed}-{os.getpid()}"
            result = measure.run(workload, seed, 1.0, corpus_dir, rounds=1)
            if result.acct.failed:
                print(f"{name} seed {seed}: {result.acct.problems}", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = result.observed
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
            tmp.replace(path)
            print(f"{name} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
