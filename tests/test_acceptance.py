"""Shipping acceptance checks, one test per criterion.

Each test states its tolerance inline, prints a single verdict line, and
fails honestly if the property does not hold. Together they cover: gradient
correctness, wavelet-basis fidelity, the pseudoinverse contract, layer
perturbation bounds, the cross-scale pipeline contract, benchmark accuracy,
CLI determinism, generator statistics, and the ablation/sensitivity grids.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import wavepool.autodiff as ad
from wavepool.cli import main
from wavepool.graphs import (
    Graph,
    SplitSpec,
    degree_onehot_features,
    load_tu_dataset,
    split_dataset,
)
from wavepool.harness import (
    SWEEP_AXES,
    ExperimentPlan,
    ablation_text_table,
    majority_baseline,
    run_ablation,
    run_experiment,
    run_sensitivity,
    sweep_csv,
    sweep_svg,
)
from wavepool.model import VARIANTS, CrossScaleModel, ModelConfig
from wavepool.spectral import (
    MODE_CLOSED_FORM,
    MODE_FITTED_KERNEL,
    exact_wavelet_oracle,
    normalized_laplacian,
    pseudoinverse,
    wavelet_bases,
)
from wavepool.stability import run_stability_suite
from wavepool.synth import build_msg, gen_ba, gen_er, gen_ws, three_class_config
from wavepool.training import TrainConfig, graph_loss

from .conftest import cycle_adjacency
from .fdcheck import central_difference, max_rel_error


def verdict(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {status}{suffix}")
    assert ok, f"{tag}: {detail}"


def two_triangle_adjacency() -> np.ndarray:
    adj = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
        adj[a, b] = adj[b, a] = 1.0
    return adj


# -- 1. gradient correctness ----------------------------------------------


def test_criterion_01_gradient_correctness():
    """Every learnable tensor: reverse-mode vs central differences < 1e-4.

    Six-node two-class fixture with dense features; parameters are nudged off
    the initialization so no rectifier input sits inside the difference step
    (frozen seed 0 gives a 0.14 margin against the 1e-5 step).
    """
    start = time.monotonic()
    rng = np.random.default_rng(0)
    adj = two_triangle_adjacency()
    graph = Graph(adjacency=adj, features=rng.normal(size=(6, 3)),
                  label=1, id="grad-fixture")
    cfg = ModelConfig(feature_dim=3, class_count=2, variant="wavelet_spectral",
                      n_max=6, m_out=2, scales=(1.0, 2.0, 3.0), order=16)
    model = CrossScaleModel(cfg, seed=0)
    for var in model.params.values():
        var.value = var.value + rng.normal(scale=0.1, size=var.value.shape)

    def loss_value() -> float:
        total, _ = graph_loss(model.forward(graph), 1, 2, beta=0.1)
        return float(total.value)

    for var in model.params.values():
        var.grad = None
    total, _ = graph_loss(model.forward(graph), 1, 2, beta=0.1)
    ad.backward(total)

    worst, worst_name = 0.0, "-"
    for name, var in model.params.items():
        x0 = var.value.copy()

        def probe(x, var=var):
            var.value = np.asarray(x, dtype=float)
            return loss_value()

        numeric = central_difference(probe, x0)
        var.value = x0
        analytic = var.grad if var.grad is not None else np.zeros_like(x0)
        err = max_rel_error(analytic, numeric)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.monotonic() - start
    verdict("criterion-01 gradient-correctness",
            worst < 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.3e} at {worst_name}, {elapsed:.1f}s")


# -- 2. wavelet fidelity --------------------------------------------------


def test_criterion_02_wavelet_fidelity():
    """Quadrature-fitted basis at order 40 vs dense eigendecomposition
    within 1e-6 relative Frobenius on 20 random graphs (n <= 50,
    f in {0.5, 1, 2}); closed-form coefficients converge internally:
    order-50 vs order-49 relative difference < 1e-6."""
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst_fit = worst_conv = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        lap = normalized_laplacian(gen_er(n, 0.3, rng))
        for f in (0.5, 1.0, 2.0):
            fitted = wavelet_bases(lap, (f,), order=40, mode=MODE_FITTED_KERNEL).psi(0)
            exact = exact_wavelet_oracle(lap, f, lambda t: np.exp(-t))
            rel = np.linalg.norm(fitted - exact) / np.linalg.norm(exact)
            worst_fit = max(worst_fit, rel)
            hi = wavelet_bases(lap, (f,), order=50, mode=MODE_CLOSED_FORM).psi(0)
            lo = wavelet_bases(lap, (f,), order=49, mode=MODE_CLOSED_FORM).psi(0)
            conv = np.linalg.norm(hi - lo) / np.linalg.norm(hi)
            worst_conv = max(worst_conv, conv)
    elapsed = time.monotonic() - start
    verdict("criterion-02 wavelet-fidelity",
            worst_fit < 1e-6 and worst_conv < 1e-6 and elapsed < 60.0,
            f"fit {worst_fit:.3e}, convergence {worst_conv:.3e}, {elapsed:.1f}s")


# -- 3. pseudoinverse contract --------------------------------------------


def test_criterion_03_pseudoinverse_conditions():
    """All four generalized-inverse conditions within 1e-8 relative on 100
    random matrices, including rectangular and rank-deficient ones."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        n, m = rng.integers(2, 40, size=2)
        mat = rng.standard_normal((n, m))
        if trial % 3 == 0 and m >= 2:
            mat[:, -1] = mat[:, 0]            # repeated column
        if trial % 5 == 0 and n >= 2:
            mat[-1] = 0.0                     # zero row
        pinv = pseudoinverse(mat)
        scale = np.linalg.norm(mat) * np.linalg.norm(pinv) + 1e-30
        residuals = (
            np.linalg.norm(mat @ pinv @ mat - mat) / np.linalg.norm(mat),
            np.linalg.norm(pinv @ mat @ pinv - pinv) / np.linalg.norm(pinv),
            np.linalg.norm(mat @ pinv - (mat @ pinv).T) / scale,
            np.linalg.norm(pinv @ mat - (pinv @ mat).T) / scale,
        )
        worst = max(worst, *residuals)
    verdict("criterion-03 pseudoinverse-conditions", worst < 1e-8,
            f"worst relative residual {worst:.3e} over 100 matrices")


# -- 4. perturbation bounds -----------------------------------------------


def test_criterion_04_perturbation_bounds():
    """Convolution, pooling, and their composition respect the derived
    operator-norm bounds: 10^4 random perturbations per layer on five
    8-32 node graphs record zero violations."""
    start = time.monotonic()
    report, checks, _ = run_stability_suite(
        seed=3, graph_count=5, size_range=(8, 32), trials=10_000)
    elapsed = time.monotonic() - start
    per_layer_ok = all(c.outcome.violations == 0 for c in checks)
    verdict("criterion-04 perturbation-bounds",
            report.violations == 0 and report.passing and per_layer_ok
            and elapsed < 120.0,
            f"{report.trials} trials, {report.violations} violations, "
            f"max ratio {report.max_ratio:.8f}, {elapsed:.1f}s")


# -- 5. cross-scale pipeline contract -------------------------------------


def test_criterion_05_cross_scale_contract():
    """Graphs of sizes 4, 40, 400, and 1000 all map to length-c logits
    through one parameter set; every pooled adjacency stays symmetric
    to 1e-12."""
    start = time.monotonic()
    cfg = ModelConfig(feature_dim=degree_onehot_features(np.zeros((2, 2))).shape[1],
                      class_count=3, variant="wavelet_spectral",
                      n_max=1000, m_out=4, scales=(1.0, 2.0), order=8)
    model = CrossScaleModel(cfg, seed=0)
    worst_asym = 0.0
    for n in (4, 40, 400, 1000):
        adj = cycle_adjacency(n)
        graph = Graph(adjacency=adj, features=degree_onehot_features(adj),
                      label=0, id=f"cycle-{n}")
        result = model.forward(graph)
        assert result.logits.value.shape == (3,)
        assert np.all(np.isfinite(result.logits.value))
        for pooled in result.pooled_adjacencies:
            a = pooled.value
            worst_asym = max(worst_asym, float(np.max(np.abs(a - a.T))))
    elapsed = time.monotonic() - start
    verdict("criterion-05 cross-scale-contract", worst_asym <= 1e-12,
            f"worst pooled asymmetry {worst_asym:.2e}, {elapsed:.1f}s")


# -- 6. synthetic benchmark accuracy --------------------------------------


def test_criterion_06_synthetic_benchmark_accuracy():
    """Three-family benchmark (dense random, rewired ring lattice,
    preferential tree; 60 graphs/class, 20-200 nodes): mean test accuracy
    over five seeds with default settings reaches 90%, against a one-third
    majority baseline."""
    start = time.monotonic()
    dataset = build_msg(three_class_config(per_class=60, size_range=(20, 200),
                                           seed=0))
    plan = ExperimentPlan(seeds=(0, 1, 2, 3, 4))
    outcome = run_experiment(dataset, plan)
    train_ds, _, test_ds = split_dataset(dataset, SplitSpec(seed=0))
    baseline = majority_baseline(train_ds, test_ds)
    elapsed = time.monotonic() - start
    per_seed = ", ".join(f"{r.test_acc:.3f}" for r in outcome.results)
    verdict("criterion-06 synthetic-benchmark-accuracy",
            outcome.n == 5 and outcome.mean >= 0.90
            and abs(baseline - 1 / 3) < 0.05 and elapsed < 900.0,
            f"mean {outcome.mean:.4f} over [{per_seed}], "
            f"majority {baseline:.3f}, {elapsed:.0f}s")


# -- 7. external benchmark (requires downloaded data) ---------------------


MUTAG_DIR = Path(os.environ.get(
    "WAVEPOOL_MUTAG",
    Path(__file__).resolve().parents[1] / "data" / "MUTAG"))


@pytest.mark.skipif(
    not MUTAG_DIR.is_dir(),
    reason=f"MUTAG dataset not present at {MUTAG_DIR}; "
    "fetch it with scripts/fetch_tu_dataset.py and re-run",
)
def test_criterion_07_mutag_accuracy():
    """Mean test accuracy over ten seeds beats the majority-class baseline
    by at least ten points. An external reference mean of 0.9111 is printed
    for context only, never asserted."""
    start = time.monotonic()
    dataset = load_tu_dataset(MUTAG_DIR)
    plan = ExperimentPlan(seeds=tuple(range(10)))
    outcome = run_experiment(dataset, plan)
    train_ds, _, test_ds = split_dataset(dataset, SplitSpec(seed=plan.seeds[0]))
    baseline = majority_baseline(train_ds, test_ds)
    elapsed = time.monotonic() - start
    print(f"[criterion-07] external reference mean 0.9111 (context only)")
    verdict("criterion-07 mutag-accuracy",
            outcome.n == 10 and outcome.mean >= baseline + 0.10
            and elapsed < 1800.0,
            f"mean {outcome.mean:.4f} vs majority {baseline:.4f}, {elapsed:.0f}s")


# -- 8. CLI determinism ---------------------------------------------------


FAST_FLAGS = ["--epochs", "2", "--order", "6", "--m-out", "2",
              "--scales", "1", "--batch-size", "8"]


def _run_twice(tmp_path: Path, label: str, argv_for) -> list[str]:
    """Run a subcommand into two fresh directories; return mismatched files."""
    dirs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{label}-{tag}"
        assert main(argv_for(out)) == 0, f"{label} run failed"
        dirs.append(out)
    mismatches = []
    for path in sorted(dirs[0].glob("*.csv")) + sorted(dirs[0].glob("*.txt")):
        twin = dirs[1] / path.name
        if path.read_bytes() != twin.read_bytes():
            mismatches.append(f"{label}/{path.name}")
    return mismatches


def test_criterion_08_cli_determinism(tmp_path):
    """Re-running every subcommand with identical configuration and seed
    reproduces byte-identical CSV (and exported text) outputs."""
    bench = tmp_path / "bench"
    assert main(["generate", "--preset", "three-class", "--per-class", "8",
                 "--size-range", "8:12", "--seed", "7", "--out", str(bench)]) == 0
    data = ["--data", str(bench)]
    mismatches = []
    mismatches += _run_twice(tmp_path, "generate", lambda out: [
        "generate", "--preset", "three-class", "--per-class", "8",
        "--size-range", "8:12", "--seed", "7", "--out", str(out)])
    mismatches += _run_twice(tmp_path, "train", lambda out: [
        "train", *data, "--seed", "1", "--out", str(out), *FAST_FLAGS])
    mismatches += _run_twice(tmp_path, "evaluate", lambda out: [
        "evaluate", *data, "--seeds", "0,1", "--out", str(out), *FAST_FLAGS])
    mismatches += _run_twice(tmp_path, "ablate", lambda out: [
        "ablate", *data, "--seeds", "0", "--out", str(out), *FAST_FLAGS])
    mismatches += _run_twice(tmp_path, "sweep", lambda out: [
        "sweep", *data, "--axis", "beta", "--values", "0,0.5",
        "--seeds", "0", "--out", str(out), *FAST_FLAGS])
    verdict("criterion-08 cli-determinism", not mismatches,
            "all CSV outputs byte-identical" if not mismatches
            else f"differing files: {mismatches}")


# -- 9. generator statistics ----------------------------------------------


def test_criterion_09_generator_statistics():
    """Ring-lattice class keeps mean degree exactly 4.00 by construction;
    preferential-tree class mean degree lies in [1.9, 2.0]; dense-random
    class total edge count passes a 3-sigma binomial check over 500 graphs."""
    start = time.monotonic()
    rng = np.random.default_rng(99)
    ws_degrees = set()
    ba_lo, ba_hi = np.inf, -np.inf
    for _ in range(30):
        n = int(rng.integers(20, 201))
        ws = gen_ws(n, 4, 0.1, rng)
        ws_degrees.add(float(ws.sum()) / n)     # exactly 4.0 for every graph
        ba = gen_ba(n, 1, rng)
        mean_deg = float(ba.sum()) / n
        ba_lo, ba_hi = min(ba_lo, mean_deg), max(ba_hi, mean_deg)
    n_er, p = 100, 0.35
    pairs = n_er * (n_er - 1) // 2
    total_edges = sum(
        int(gen_er(n_er, p, rng).sum()) // 2 for _ in range(500))
    mu = 500 * pairs * p
    sigma = np.sqrt(500 * pairs * p * (1 - p))
    z = abs(total_edges - mu) / sigma
    elapsed = time.monotonic() - start
    verdict("criterion-09 generator-statistics",
            ws_degrees == {4.0} and 1.9 <= ba_lo and ba_hi <= 2.0
            and z <= 3.0 and elapsed < 120.0,
            f"ws degrees {sorted(ws_degrees)}, ba [{ba_lo:.3f}, {ba_hi:.3f}], "
            f"er z={z:.2f}, {elapsed:.1f}s")


# -- 10. ablation and sensitivity grids -----------------------------------


SENSITIVITY_GRID = {
    "F": [1.0, 2.0, 3.0, 4.0],
    "M": [2.0, 4.0, 8.0, 16.0],
    "beta": [round(0.1 * i, 1) for i in range(10)],
}


def test_criterion_10_ablation_and_sensitivity_grids(tmp_path):
    """The four-variant ablation and the full sensitivity grids (scale count,
    approximation order, loss mix) run end to end and emit complete CSV and
    SVG outputs; shapes are asserted, accuracy trends only recorded."""
    start = time.monotonic()
    dataset = build_msg(three_class_config(per_class=8, size_range=(8, 12),
                                           seed=7))
    plan = ExperimentPlan(seeds=(0,), train=TrainConfig(epochs=2, batch_size=8),
                          m_out=2, scales=(1.0,), order=6)
    problems = []

    ablation = run_ablation(dataset, plan)
    if [r.variant for r in ablation.rows] != list(VARIANTS):
        problems.append("ablation rows out of order")
    table = ablation_text_table(ablation)
    (tmp_path / "ablation.txt").write_text(table)
    if len(table.strip().splitlines()) != 2 + len(VARIANTS):
        problems.append("ablation table wrong shape")

    assert tuple(SENSITIVITY_GRID) == SWEEP_AXES
    for axis, values in SENSITIVITY_GRID.items():
        sweep = run_sensitivity(dataset, plan, axis, values)
        csv_text = sweep_csv(sweep)
        svg_text = sweep_svg(sweep)
        (tmp_path / f"sweep_{axis}.csv").write_text(csv_text)
        (tmp_path / f"sweep_{axis}.svg").write_text(svg_text)
        lines = csv_text.strip().splitlines()
        if len(lines) != 1 + len(values):
            problems.append(f"{axis} grid has {len(lines) - 1} rows, "
                            f"wanted {len(values)}")
        if not all(np.isfinite(c.mean) for c in sweep.cells):
            problems.append(f"{axis} grid has non-finite cells")
        if not svg_text.startswith("<svg"):
            problems.append(f"{axis} plot is not an SVG document")
    elapsed = time.monotonic() - start
    verdict("criterion-10 ablation-and-sensitivity-grids", not problems,
            f"4 variants + {sum(len(v) for v in SENSITIVITY_GRID.values())} "
            f"sweep cells, {elapsed:.0f}s" if not problems else "; ".join(problems))
