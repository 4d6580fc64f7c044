"""Lipschitz bounds for the convolution and pooling layers, checked empirically.

Bounds use the spectral norm (submultiplicative); the empirical side measures
Frobenius distances, which the mixed inequality ||AB||_F <= ||A||_2 ||B||_F
covers. The pooling map is the two-sided congruence X -> S X S^T, so its
constant is the squared top singular value of S.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractViolationError
from .layers import activation_lipschitz, gwc_forward, wavelet_input
from .spectral import WaveletBasis, cosine_transform, normalized_laplacian, wavelet_bases
from .synth import gen_er

RATIO_SLACK = 1e-9  # relative tolerance on the bound per trial
SUITE_SCALE = 1.0  # the suite's one wavelet scale
SUITE_ORDER = 16  # and its Chebyshev order
SUITE_EDGE_PROBABILITY = 0.3  # each suite graph's Erdos-Renyi edge probability
SUITE_FEATURE_DIM = 8  # and its input feature columns


def spectral_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix, 2))


def lipschitz_bound_gwc(basis: WaveletBasis, theta: np.ndarray, activation: str) -> float:
    """K_1 = L_sigma * ||psi theta psi^+||_2 for a one-scale bank's convolution."""
    n = basis.eigvecs.shape[0]
    if theta.shape != (n, n):
        raise ContractViolationError(f"theta shape {theta.shape} does not match basis size {n}")
    product = basis.psi(0) @ theta @ basis.psi_pinv(0)
    return activation_lipschitz(activation) * spectral_norm(product)


def lipschitz_bound_pool(s: np.ndarray) -> float:
    """K_2 = ||S^T||_2 ||S||_2, the constant of X -> S X S^T."""
    if not np.all(np.isfinite(s)):
        raise ContractViolationError("assignment matrix contains non-finite entries")
    top = spectral_norm(s)
    return top * top


def coefficient_bound(basis: WaveletBasis) -> float:
    """K_psi = |c_0|/2 + sum_i |c_i| of a one-scale bank; bounds ||psi||_2 as ||T_i|| <= 1."""
    c = basis.coefficients[0]
    return float(abs(c[0]) / 2.0 + np.sum(np.abs(c[1:])))


@dataclass(frozen=True)
class PerturbationOutcome:
    trials: int
    violations: int
    max_ratio: float


def perturbation_check(
    layer,
    x0: np.ndarray,
    bound: float,
    trials: int,
    magnitude_range: tuple[float, float] = (1e-3, 1e1),
    rng: np.random.Generator | None = None,
    extra_directions: tuple[np.ndarray, ...] = (),
) -> PerturbationOutcome:
    """Sample perturbations and verify ||layer(x+d) - layer(x)|| <= K ||d||.

    Directions are random with log-uniform Frobenius magnitude, each checked
    as it is drawn; any ``extra_directions`` are then applied verbatim (for
    adversarial alignment). A zero perturbation counts as ratio 0.
    """
    if trials < 1:
        raise ContractViolationError(f"need trials >= 1, got {trials}")
    if bound < 0 or not math.isfinite(bound):
        raise ContractViolationError(f"bound must be finite and nonnegative, got {bound}")
    rng = rng or np.random.default_rng(0)
    lo, hi = magnitude_range
    if not 0 < lo <= hi:
        raise ContractViolationError(f"bad magnitude range {magnitude_range}")
    base = np.asarray(layer(x0))

    def deltas():
        for _ in range(trials):
            direction = rng.standard_normal(x0.shape)
            norm = float(np.linalg.norm(direction))
            if norm != 0.0:  # a zero direction has ratio 0 and draws no magnitude
                magnitude = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
                yield direction * (magnitude / norm)
        yield from (np.asarray(d, dtype=float) for d in extra_directions)

    violations = 0
    max_ratio = 0.0
    for delta in deltas():
        dnorm = float(np.linalg.norm(delta))
        if dnorm == 0.0:
            continue  # ratio defined as 0; cannot violate
        diff = float(np.linalg.norm(np.asarray(layer(x0 + delta)) - base))
        denom = bound * dnorm
        if denom == 0.0:
            ratio = 0.0 if diff <= 1e-12 else np.inf
        else:
            ratio = diff / denom
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0 + RATIO_SLACK:
            violations += 1
    return PerturbationOutcome(trials + len(extra_directions), violations, max_ratio)


@dataclass(frozen=True)
class LipschitzReport:
    k_gwc: float
    k_pool: float
    k_psi: float
    trials: int
    violations: int
    max_ratio: float

    @property
    def passing(self) -> bool:
        return self.violations == 0 and self.max_ratio <= 1.0 + RATIO_SLACK

    def to_json(self) -> dict:
        d = asdict(self)
        d["passing"] = self.passing
        return d


@dataclass(frozen=True)
class LayerCheck:
    layer: str
    graph_index: int
    size: int
    bound: float
    frobenius_norm: float | None  # diagnostic companion to the spectral bound
    outcome: PerturbationOutcome


def make_gwc_layer(basis: WaveletBasis, theta: np.ndarray, bias: np.ndarray,
                   activation: str = "relu"):
    """Closure running the actual convolution layer on a plain array input."""
    thetas, bias_var = [ad.constant(theta)], ad.constant(bias)

    def layer(x: np.ndarray) -> np.ndarray:
        return gwc_forward(thetas, bias_var, wavelet_input(basis, x), activation).value

    return layer


def make_pool_layer(s: np.ndarray):
    def layer(x: np.ndarray) -> np.ndarray:
        return s @ x @ s.T

    return layer


def top_right_singular_direction(s: np.ndarray) -> np.ndarray:
    """Rank-one v v^T built from the top right-singular vector of S.

    S (v v^T) S^T has Frobenius norm sigma_max^2 exactly, so this direction
    meets the pooling bound with equality.
    """
    _, _, vt = np.linalg.svd(s)
    v = vt[0]
    return np.outer(v, v)


NOTES = (
    "row-softmax assignments are checked as frozen matrices; the bound for the "
    "softmax-composed map (assignment depending on its own filter) is flagged, "
    "not asserted",
    "the structural eigen-spectrum perturbation term of the layer-stability "
    "argument has no computable spectrum shift here; reported as not directly "
    "checkable",
)


def run_stability_suite(
    seed: int = 0,
    graph_count: int = 5,
    size_range: tuple[int, int] = (8, 32),
    trials: int = 10_000,
    composition_trials: int = 1_000,
) -> tuple[LipschitzReport, list[LayerCheck], tuple[str, ...]]:
    """Check K_1, K_2, and their product on random graphs.

    Returns the aggregate report (max bounds, total trials), the per-layer
    detail rows, and the caveat notes for the JSON output.
    """
    if not 3 <= size_range[0] <= size_range[1]:
        raise ConfigError(f"size range {size_range[0]}:{size_range[1]} needs 3 <= LO <= HI: "
                          "a graph is pooled to max(2, n // 4) nodes, fewer than n")
    rng = np.random.default_rng(seed)
    checks: list[LayerCheck] = []
    k_gwc = k_pool = k_psi = 0.0
    total = violations = 0
    max_ratio = 0.0
    for gi in range(graph_count):
        n = int(rng.integers(size_range[0], size_range[1] + 1))
        adj = gen_er(n, SUITE_EDGE_PROBABILITY, rng)
        basis = wavelet_bases(normalized_laplacian(adj), (SUITE_SCALE,), SUITE_ORDER)
        k_psi = max(k_psi, coefficient_bound(basis))

        theta = rng.standard_normal((n, n)) / math.sqrt(n)
        bias = rng.standard_normal((n, SUITE_FEATURE_DIM)) * 0.1
        bound1 = lipschitz_bound_gwc(basis, theta, "relu")
        layer1 = make_gwc_layer(basis, theta, bias)
        x0 = rng.standard_normal((n, SUITE_FEATURE_DIM))
        out1 = perturbation_check(layer1, x0, bound1, trials, rng=rng)
        checks.append(LayerCheck(
            layer="gwc", graph_index=gi, size=n, bound=bound1,
            frobenius_norm=float(np.linalg.norm(basis.psi(0) @ theta @ basis.psi_pinv(0))),
            outcome=out1,
        ))

        m = max(2, n // 4)
        raw = cosine_transform(m) @ rng.standard_normal((m, n)) @ cosine_transform(n).T
        exp = np.exp(raw - raw.max(axis=1, keepdims=True))
        s = exp / exp.sum(axis=1, keepdims=True)
        bound2 = lipschitz_bound_pool(s)
        layer2 = make_pool_layer(s)
        a0 = rng.standard_normal((n, n))
        out2 = perturbation_check(
            layer2, a0, bound2, trials, rng=rng,
            extra_directions=(top_right_singular_direction(s),),
        )
        checks.append(LayerCheck(
            layer="pool", graph_index=gi, size=n, bound=bound2,
            frobenius_norm=float(np.linalg.norm(s)) ** 2,
            outcome=out2,
        ))

        # Composed map S * gwc(X) * S^T on square inputs: K_1 K_2 by
        # submultiplicativity.
        square_bias = rng.standard_normal((n, n)) * 0.1
        gwc_sq = make_gwc_layer(basis, theta, square_bias)

        def composed(x, _g=gwc_sq, _s=s):
            return _s @ _g(x) @ _s.T

        out3 = perturbation_check(composed, rng.standard_normal((n, n)),
                                  bound1 * bound2, composition_trials, rng=rng)
        checks.append(LayerCheck(
            layer="gwc->pool", graph_index=gi, size=n, bound=bound1 * bound2,
            frobenius_norm=None, outcome=out3,
        ))

        k_gwc = max(k_gwc, bound1)
        k_pool = max(k_pool, bound2)
        for out in (out1, out2, out3):
            total += out.trials
            violations += out.violations
            max_ratio = max(max_ratio, out.max_ratio)
    report = LipschitzReport(
        k_gwc=k_gwc, k_pool=k_pool, k_psi=k_psi,
        trials=total, violations=violations, max_ratio=max_ratio,
    )
    return report, checks, NOTES


def suite_to_json(report: LipschitzReport, checks: list[LayerCheck],
                  notes: tuple[str, ...]) -> dict:
    return {
        "report": report.to_json(),
        "layers": [
            {
                "layer": c.layer,
                "graph_index": c.graph_index,
                "size": c.size,
                "bound": c.bound,
                "frobenius_norm": c.frobenius_norm,
                "trials": c.outcome.trials,
                "violations": c.outcome.violations,
                "max_ratio": c.outcome.max_ratio,
            }
            for c in checks
        ],
        "notes": list(notes),
    }
