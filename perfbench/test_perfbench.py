"""Self-checks of the benchmark: the tracer must not change what the program
computes, and its self times must account for the traced wall time.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import env

env.use_source_tree()

import measure  # noqa: E402
import pytest  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from wavepool import model as wavepool_model  # noqa: E402
from wavepool import spectral  # noqa: E402

TINY = {
    variant: workloads.Workload(
        name=f"tiny-{variant}", variant=variant,
        sizes=((10, 14, 18, 22), (11, 15, 19, 23), (12, 16, 20, 24)),
        model_seeds=(0, 1), stratified=False, epochs=2, setup_runs=1)
    for variant in ("wavelet_spectral", "gcn_diffpool")
}


def _fixed_run(workload, tmp_path, trace):
    return measure.run(workload, seed=3, seconds=1.0, corpus_dir=tmp_path / f"c{trace}",
                       rounds=1, trace=trace)


@pytest.mark.parametrize("variant", sorted(TINY))
def test_traced_outputs_bit_identical(variant, tmp_path):
    plain = _fixed_run(TINY[variant], tmp_path, trace=False)
    traced = _fixed_run(TINY[variant], tmp_path, trace=True)
    assert plain.acct.failed == 0 and traced.acct.failed == 0
    for model_seed in ("0", "1"):
        assert traced.observed[model_seed]["l_total"] == plain.observed[model_seed]["l_total"]
    assert traced.observed == plain.observed
    assert not traced.tracer.absent


@pytest.mark.parametrize("variant", sorted(TINY))
def test_self_times_add_up_to_traced_wall(variant, tmp_path):
    result = _fixed_run(TINY[variant], tmp_path, trace=True)
    tr = result.tracer
    own = tr.self_times()
    durations = tr.durations()
    assert all(s >= -1e-9 for s in own)
    for idx, parent in enumerate(tr.parents):
        if parent >= 0:  # children lie inside their parent
            assert tr.starts[parent] <= tr.starts[idx] <= tr.ends[idx] <= tr.ends[parent]
    wrapped = {name for _, _, name in tracing.WRAPS}
    layer_self = sum(s for name, s in zip(tr.names, own) if name in wrapped)
    top = sum(d for d, parent in zip(durations, tr.parents) if parent < 0)
    remainder = (sum(s for name, s in zip(tr.names, own) if name not in wrapped)
                 + result.trace_wall_s - top)
    assert remainder >= 0
    assert math.isclose(layer_self + remainder, result.trace_wall_s, rel_tol=1e-9)
    layer = result.layer
    assert set(layer) == {name for name, _ in tracing.PER_LAYER}
    assert layer["model.forward_calls"] > 0 and layer["training.steps"] > 0
    if variant == "wavelet_spectral":
        assert layer["spectral.bases_calls"] == 2 * 12  # one warm pass per model
        assert layer["spectral.pinv_calls"] == 3 * layer["spectral.bases_calls"]
    else:
        assert layer["spectral.bases_calls"] == 0 and layer["spectral.dct_calls"] == 0


def test_missing_name_is_absent_and_wrappers_are_removed():
    original = wavepool_model.gwc_forward
    tr = tracing.Tracer()
    tr.start(wraps=tracing.WRAPS + (("wavepool.spectral", "no_such_function", "x.y"),
                                    ("wavepool.no_such_module", "f", "x.z")))
    try:
        assert wavepool_model.gwc_forward is not original
    finally:
        tr.stop()
    assert wavepool_model.gwc_forward is original
    assert tr.absent == ["wavepool.spectral.no_such_function", "wavepool.no_such_module.f"]
    assert tracing.layer_metrics(tr, None)["spectral.bases_calls"] == 0


def test_wrapped_cache_still_caches():
    tr = tracing.Tracer()
    tr.start()
    try:
        before = spectral.cosine_transform.cache_info()
        first = wavepool_model.cosine_transform(37)
        second = wavepool_model.cosine_transform(37)
    finally:
        tr.stop()
    after = spectral.cosine_transform.cache_info()
    assert first is second
    assert after.hits - before.hits >= 1
    assert tr.names.count("spectral.dct") == 2


def test_corpus_depends_on_seed_only():
    wl = TINY["wavelet_spectral"]
    a, b, c = (workloads.generate(wl, s) for s in (5, 5, 6))
    assert all((ga.adjacency == gb.adjacency).all() for ga, gb in zip(a.graphs, b.graphs))
    assert a.sizes.tolist() == c.sizes.tolist()
    assert any((ga.adjacency != gc.adjacency).any() for ga, gc in zip(a.graphs, c.graphs))
    facts = workloads.corpus_facts(a, wl)
    assert facts["graphs"] == 12 and facts["max_n"] == 24 and facts["distinct_node_sizes"] == 12


def test_references_match_workload_definitions():
    data = json.loads(measure.REFERENCES.read_text())
    for name, entry in data["workloads"].items():
        assert entry["definition"] == measure.definition_digest(workloads.WORKLOADS[name])


def test_fails_without_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "model3-gcn",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
