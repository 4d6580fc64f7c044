import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from wavepool.errors import ContractViolationError
from wavepool.spectral import normalized_laplacian, wavelet_bases
from wavepool.stability import (
    RATIO_SLACK,
    LipschitzReport,
    coefficient_bound,
    lipschitz_bound_gwc,
    lipschitz_bound_pool,
    make_gwc_layer,
    make_pool_layer,
    perturbation_check,
    run_stability_suite,
    spectral_norm,
    suite_to_json,
    top_right_singular_direction,
)

from .conftest import cycle_adjacency


def basis_for(adj, scale=1.0, order=16):
    return wavelet_bases(normalized_laplacian(adj), (scale,), order)


# -- bound formulas -------------------------------------------------------


def test_spectral_norm_matches_svd(rng):
    mat = rng.standard_normal((5, 7))
    assert spectral_norm(mat) == pytest.approx(np.linalg.svd(mat)[1][0], abs=1e-10)


def test_gwc_bound_zero_and_identity_filters():
    basis = basis_for(cycle_adjacency(6))
    assert lipschitz_bound_gwc(basis, np.zeros((6, 6)), "relu") == pytest.approx(0.0, abs=1e-12)
    # psi I psi^+ is a projection: top singular value 1 on a connected graph
    assert lipschitz_bound_gwc(basis, np.eye(6), "relu") == pytest.approx(1.0, abs=1e-8)


def test_gwc_bound_shape_gate():
    basis = basis_for(cycle_adjacency(5))
    with pytest.raises(ContractViolationError, match="theta shape"):
        lipschitz_bound_gwc(basis, np.eye(4), "relu")


def test_pool_bound_identity_and_scaling():
    assert lipschitz_bound_pool(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert lipschitz_bound_pool(2.0 * np.eye(3)) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ContractViolationError):
        lipschitz_bound_pool(np.array([[np.nan]]))


def test_coefficient_bound_dominates_operator_norm(rng):
    for scale in (0.5, 1.0, 2.0):
        basis = basis_for(cycle_adjacency(9), scale=scale)
        assert coefficient_bound(basis) >= spectral_norm(basis.psi(0)) - 1e-10


# -- perturbation harness -------------------------------------------------


def test_identity_layer_saturates_unit_bound(rng):
    outcome = perturbation_check(lambda x: x, rng.standard_normal((4, 4)),
                                 bound=1.0, trials=50, rng=rng)
    assert outcome.violations == 0
    assert outcome.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_too_small_bound_is_reported_not_hidden(rng):
    outcome = perturbation_check(lambda x: 2.0 * x, rng.standard_normal((3, 3)),
                                 bound=1.0, trials=20, rng=rng)
    assert outcome.violations == 20
    assert outcome.max_ratio == pytest.approx(2.0, abs=1e-12)


def test_zero_bound_with_constant_layer(rng):
    outcome = perturbation_check(lambda x: np.zeros((2, 2)), np.ones((2, 2)),
                                 bound=0.0, trials=5, rng=rng)
    assert outcome.violations == 0
    assert outcome.max_ratio == 0.0


def test_zero_bound_with_moving_layer_flags_infinite_ratio(rng):
    outcome = perturbation_check(lambda x: x, np.ones((2, 2)),
                                 bound=0.0, trials=5, rng=rng)
    assert outcome.violations == 5
    assert outcome.max_ratio == np.inf


def test_perturbation_validation(rng):
    with pytest.raises(ContractViolationError):
        perturbation_check(lambda x: x, np.ones((2, 2)), bound=1.0, trials=0)
    with pytest.raises(ContractViolationError):
        perturbation_check(lambda x: x, np.ones((2, 2)), bound=np.inf, trials=1)
    with pytest.raises(ContractViolationError):
        perturbation_check(lambda x: x, np.ones((2, 2)), bound=1.0, trials=1,
                           magnitude_range=(0.0, 1.0))


def test_extra_directions_are_applied_verbatim(rng):
    captured = []

    def layer(x):
        captured.append(x.copy())
        return x

    direction = np.full((2, 2), 0.5)
    x0 = np.zeros((2, 2))
    perturbation_check(layer, x0, bound=1.0, trials=1, rng=rng,
                       extra_directions=(direction,))
    assert any(np.array_equal(x, direction) for x in captured)


# -- adversarial tightness ------------------------------------------------


def test_pool_adversarial_direction_achieves_bound(rng):
    s_raw = rng.standard_normal((3, 8))
    exp = np.exp(s_raw - s_raw.max(axis=1, keepdims=True))
    s = exp / exp.sum(axis=1, keepdims=True)
    bound = lipschitz_bound_pool(s)
    direction = top_right_singular_direction(s)
    layer = make_pool_layer(s)
    moved = np.linalg.norm(layer(np.zeros((8, 8)) + direction) - layer(np.zeros((8, 8))))
    ratio = moved / (bound * np.linalg.norm(direction))
    assert ratio == pytest.approx(1.0, abs=1e-9)
    outcome = perturbation_check(layer, rng.standard_normal((8, 8)), bound,
                                 trials=100, rng=rng,
                                 extra_directions=(direction,))
    assert outcome.violations == 0
    assert outcome.max_ratio >= 1.0 - 1e-6  # the bound is tight, not just safe


def test_gwc_layer_respects_bound_with_identity_activation(rng):
    adj = cycle_adjacency(7)
    basis = basis_for(adj)
    theta = rng.standard_normal((7, 7))
    bias = rng.standard_normal((7, 3))
    bound = lipschitz_bound_gwc(basis, theta, "identity")
    layer = make_gwc_layer(basis, theta, bias, activation="identity")
    outcome = perturbation_check(layer, rng.standard_normal((7, 3)), bound,
                                 trials=200, rng=rng)
    assert outcome.violations == 0


def test_perturbation_check_holds_one_perturbation_at_a_time():
    """Each perturbation is dropped once checked, so ten times the trials
    take about the same peak memory; holding them all took 13 MB at 20000
    trials of an 8 x 8 input."""
    def peak(trials):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((8, 8))
        x0 = rng.standard_normal((8, 8))
        tracemalloc.start()
        try:
            perturbation_check(make_pool_layer(s), x0, lipschitz_bound_pool(s), trials, rng=rng)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(2000)
    assert peak(20000) <= 2 * small


# -- full suite -----------------------------------------------------------


def test_suite_smoke_and_report_shape():
    report, checks, notes = run_stability_suite(
        seed=0, graph_count=2, size_range=(6, 10), trials=50,
        composition_trials=20,
    )
    assert report.passing
    assert report.violations == 0
    assert report.max_ratio >= 1.0 - 1e-6  # adversarial direction saturates
    assert report.k_psi >= 0.0
    assert len(checks) == 6  # three layer rows per graph
    assert [c.layer for c in checks[:3]] == ["gwc", "pool", "gwc->pool"]
    payload = suite_to_json(report, checks, notes)
    assert payload["report"]["passing"] is True
    assert len(payload["layers"]) == 6
    assert payload["layers"][2]["frobenius_norm"] is None
    assert len(payload["notes"]) == 2
    json.dumps(payload)  # strict JSON, no NaN/inf leakage


def test_suite_is_deterministic():
    a = run_stability_suite(seed=3, graph_count=1, size_range=(6, 8), trials=25,
                            composition_trials=10)[0]
    b = run_stability_suite(seed=3, graph_count=1, size_range=(6, 8), trials=25,
                            composition_trials=10)[0]
    assert a == b


# SHA-256 of the sorted-key JSON of one suite run; floats print as repr, so
# any change in a bound, norm, ratio or trial count changes it.
SUITE_DIGEST = "9fa842d83394c26ca9e06bfc76b7aba65d7862b3388c0f3c454427c1a722aa95"


def test_suite_output_is_pinned():
    payload = suite_to_json(*run_stability_suite(seed=3, graph_count=2, trials=200,
                                                 composition_trials=50))
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGEST


def test_report_passing_logic():
    good = LipschitzReport(1.0, 1.0, 1.0, trials=10, violations=0, max_ratio=1.0)
    bad = LipschitzReport(1.0, 1.0, 1.0, trials=10, violations=1,
                          max_ratio=1.0 + 1e-3)
    assert good.passing
    assert not bad.passing
    assert bad.to_json()["passing"] is False
    assert RATIO_SLACK < 1e-6
