"""Pipeline assembly: convolution, two-stage pooling, classifier head.

One parameter set serves every graph size up to ``n_max``: node-indexed
tensors are allocated at the maximum and sliced per graph, so cross-scale
batches share weights. The pooling schedule is size-adaptive:

  n > m_out      conv -> pool to max(ceil(n/4), m_out) -> conv -> pool to m_out
  n <= m_out     conv -> conv -> zero-pad features to m_out rows

Both pooling assignments are m x n, one row per pooled node.
``parameter_shapes`` is the one table of parameter names and shapes that
initialization, the constructor, ``load_state`` and checkpoints all read.
``CrossScaleModel.params`` is the only handle on the parameters: the
forward pass passes each layer its ``Var``s by those names, and the
constructor and ``load_state`` reject tensors that are misnamed,
misshapen or non-finite.

``CrossScaleModel.inputs_for`` builds what a forward pass reads of the graph
alone and keeps each operand on the ``Graph`` in its own memo slot, and only
the operands the variant reads: the wavelet operand, keyed by scales, order
and basis mode; the GCN operand (``layers.gcn_input``: Â X on X's non-zero
columns, n k floats), which the first convolution of both GCN variants
reads; and the renormalized adjacency (``layers.renormalize``: the graph's
own A and the n floats of D^{-1/2}, no n x n array of its own), which
DiffPool's first assignment and the small-graph branch read. The wavelet
operand (``layers.wavelet_input``) is built from the graph's one wavelet
bank (``spectral.wavelet_bases``): U and the (n, F) p_f(lambda) of the bank
itself, and psi_f^+ X for every scale, about n^2 + 3n + 3nk floats. Both
wavelet variants with equal settings share one eigendecomposition per graph,
and no dense psi_f or psi_f^+ is stored. The first pooling stage records
``pool_apply``'s S A and ||A||^2 (twice the graph's edge count), which the
structure loss reuses.

Checkpoints are a single binary file: a JSON manifest (configuration plus
tensor shapes) followed by raw little-endian float64 tensor data.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ContractViolationError, FormatError
from .graphs import Graph
from .layers import (
    ACTIVATIONS,
    GcnInput,
    Renormalized,
    WaveletInput,
    classify,
    diffpool_assign,
    gcn_forward,
    gcn_input,
    gwc_forward,
    pool_apply,
    renormalize,
    spectral_pool_assign,
    wavelet_input,
)
from .settings import check_fields, decode
from .spectral import (
    BESSEL_MAX_ARG,
    MODE_CLOSED_FORM,
    MODE_FITTED_KERNEL,
    ORDER_MAX,
    cosine_transform,
    normalized_laplacian,
    wavelet_bases,
    wavelet_coefficients,
)

# Ablation grid in fixed reporting order: convolution x pooling.
VARIANTS = ("gcn_diffpool", "gcn_spectral", "wavelet_diffpool", "wavelet_spectral")

CHECKPOINT_MAGIC = b"WPCK"
CHECKPOINT_VERSION = 1

_INIT_STREAM = 0x494E4954  # distinct RNG stream per purpose, mixed with the seed


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    class_count: int
    variant: str = "wavelet_spectral"
    n_max: int = 1000
    m_out: int = 4
    scales: tuple[float, ...] = (1.0, 2.0, 3.0)
    order: int = 16
    basis_mode: str = MODE_FITTED_KERNEL
    activation: str = "relu"
    softmax_rows: bool = True

    def __post_init__(self):
        check_fields(self, ContractViolationError)
        if self.variant not in VARIANTS:
            raise ContractViolationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.feature_dim < 1 or self.class_count < 2:
            raise ContractViolationError("need feature_dim >= 1 and class_count >= 2")
        if self.m_out < 1 or self.n_max < self.m_out:
            raise ContractViolationError("need 1 <= m_out <= n_max")
        if len(self.scales) < 1 or not all(0 < s < math.inf for s in self.scales):
            raise ContractViolationError("scales must be finite, positive and nonempty")
        if not 1 <= self.order <= ORDER_MAX:
            raise ContractViolationError(f"order must lie in [1, {ORDER_MAX}], got {self.order}")
        if self.basis_mode not in (MODE_CLOSED_FORM, MODE_FITTED_KERNEL):
            raise ContractViolationError(f"unknown basis mode {self.basis_mode!r}")
        if self.basis_mode == MODE_CLOSED_FORM and max(self.scales) > BESSEL_MAX_ARG:
            raise ContractViolationError(
                f"scales must be at most {BESSEL_MAX_ARG} in {MODE_CLOSED_FORM} mode, whose "
                f"Bessel series holds there; got {max(self.scales)}")
        for scale in self.scales:
            with np.errstate(all="ignore"):  # a huge scale overflows, and every term is 0
                coefficients = wavelet_coefficients(scale, self.order, self.basis_mode)
            if not (np.all(np.isfinite(coefficients)) and np.any(coefficients)):
                raise ContractViolationError(
                    f"scales must give a nonzero, finite Chebyshev series at order "
                    f"{self.order}; scale {scale} gives none")
        if self.activation not in ACTIVATIONS:
            raise ContractViolationError(f"unknown activation {self.activation!r}")

    @property
    def mid_size_max(self) -> int:
        """Largest possible first-stage pooled size."""
        return mid_pool_size(self.n_max, self.m_out)

    @property
    def uses_wavelets(self) -> bool:
        return self.variant.startswith("wavelet")

    @property
    def uses_spectral_pool(self) -> bool:
        return self.variant.endswith("spectral")

    @property
    def wavelet_key(self) -> tuple:
        """What the wavelet operand depends on besides the graph: models with
        equal scales, order and basis mode share it."""
        return (self.scales, self.order, self.basis_mode)


def mid_pool_size(n: int, m_out: int) -> int:
    """First-stage target for an n-node graph: a quarter, at least m_out."""
    return max(math.ceil(n / 4), m_out)


@dataclass
class PoolStage:
    """One pooling step, recorded for the structure loss."""

    adjacency: Var   # pre-pool adjacency (n x n)
    assignment: Var  # (m x n), one row per pooled node
    # S A from ``pool_apply``, recorded where A is the graph's constant
    product: np.ndarray | None = None
    # ||A||_F^2 where it is known without reading A: twice the edge count
    # of a graph's own 0/1 adjacency
    squared_norm: float | None = None


@dataclass
class ForwardResult:
    logits: Var  # (c,)
    stages: list[PoolStage] = field(default_factory=list)
    pooled_adjacencies: list[Var] = field(default_factory=list)

    @property
    def prediction(self) -> int:
        return int(np.argmax(self.logits.value))


@dataclass(frozen=True)
class GraphInputs:
    """The read-only operands a forward pass derives from its graph alone.

    ``wavelets`` is the wavelet convolution's one operand (``wavelet_input``:
    the eigenvectors U, p_f(lambda) and psi_f^+ X per scale on X's non-zero
    columns), set with wavelets; ``gcn`` is the first graph convolution's
    (``gcn_input``: Â X on X's non-zero columns), set without them;
    ``renormalized`` is set where a GCN runs on other features over the raw
    graph.
    """

    wavelets: WaveletInput | None
    gcn: GcnInput | None
    renormalized: Renormalized | None


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor of the variant, by name, with its shape, in
    the order ``init_parameters`` draws them."""
    n, l, c = config.n_max, config.feature_dim, config.class_count
    m1, m2 = config.mid_size_max, config.m_out
    shapes: dict[str, tuple[int, ...]] = {}
    if config.uses_wavelets:
        shapes.update({f"gwc.theta.{k}": (n, n) for k in range(len(config.scales))})
        shapes["gwc.bias"] = (n, l)
    else:
        shapes["conv1.weight"] = (l, l)
    if config.uses_spectral_pool:
        shapes.update({"pool1.theta": (m1, n), "pool2.theta": (m2, m1)})
    else:
        shapes.update({"pool1.assign": (l, m1), "pool2.assign": (l, m2)})
    shapes.update({"gcn.weight": (l, l), "classifier.weight": (m2 * l, c),
                   "classifier.bias": (c,)})
    return shapes


def init_parameters(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded initial tensors for the given variant, keyed by name.

    Tensors are drawn in ``parameter_shapes`` order from uniform Glorot
    noise with limit sqrt(6 / (fan_in + fan_out)). Node filters add the
    identity, so the wavelet convolution begins near a smoothing
    pass-through; biases start at zero.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _INIT_STREAM])))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape)
            continue
        limit = math.sqrt(6.0 / sum(shape))
        tensors[name] = rng.uniform(-limit, limit, size=shape)
        if name.startswith("gwc.theta."):
            tensors[name] += np.eye(shape[0])
    return tensors


def _mismatched(config: ModelConfig, shapes: dict[str, tuple[int, ...]]) -> list[str]:
    """Sorted names whose shape differs from the table's, or that one side lacks."""
    expected = parameter_shapes(config)
    return sorted(name for name in shapes.keys() | expected.keys()
                  if shapes.get(name) != expected.get(name))


def _check_tensors(config: ModelConfig, tensors: dict[str, np.ndarray]) -> None:
    """Every parameter of the variant, by its name and shape, and all finite."""
    wrong = _mismatched(config, {name: np.shape(t) for name, t in tensors.items()})
    if wrong:
        raise ContractViolationError(
            f"tensors {wrong} do not match the names and shapes of the "
            f"{config.variant} parameters (n_max={config.n_max})")
    nonfinite = sorted(name for name, t in tensors.items() if not np.all(np.isfinite(t)))
    if nonfinite:
        raise ContractViolationError(f"tensors {nonfinite} contain non-finite entries")


class CrossScaleModel:
    """Graph classifier with shared parameters across graph sizes.

    ``params`` holds one ``Var`` per ``parameter_shapes`` entry, and the
    forward pass hands those Vars to the layers by name.
    """

    def __init__(self, config: ModelConfig, seed: int = 0,
                 tensors: dict[str, np.ndarray] | None = None):
        self.config = config
        self.seed = seed
        if tensors is None:
            tensors = init_parameters(config, seed)
        _check_tensors(config, tensors)
        self.params: dict[str, Var] = {
            name: ad.parameter(np.array(value, dtype=np.float64))
            for name, value in sorted(tensors.items())
        }

    # -- parameter access -------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        return {name: var.value.copy() for name, var in self.params.items()}

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        _check_tensors(self.config, tensors)
        for name, value in tensors.items():
            self.params[name].value = np.array(value, dtype=np.float64)

    # -- forward ----------------------------------------------------------

    def inputs_for(self, graph: Graph) -> GraphInputs:
        """What this variant's forward pass reads of the graph alone. Each
        operand is built once per graph and shared by every model that reads
        it: the wavelet operand by models with the same scales, order and
        basis mode, the GCN operand and the renormalized adjacency by all."""
        cfg = self.config
        wavelets = gcn = renormalized = None
        if cfg.uses_wavelets:
            wavelets = graph.memoised("wavelets", cfg.wavelet_key,
                                      lambda: self.wavelet_operand(graph))
        else:
            gcn = graph.memoised("gcn", None,
                                 lambda: gcn_input(graph.adjacency, graph.features))
        # the first DiffPool assignment and the small-graph branch run a GCN
        # on the raw graph
        if not cfg.uses_spectral_pool or graph.node_count <= cfg.m_out:
            renormalized = graph.memoised("renormalized", None,
                                          lambda: renormalize(graph.adjacency))
        return GraphInputs(wavelets, gcn, renormalized)

    def wavelet_operand(self, graph: Graph) -> WaveletInput:
        """The graph's wavelet operand, built afresh; ``inputs_for`` keeps it
        in the graph's "wavelets" slot under ``ModelConfig.wavelet_key``."""
        return wavelet_input(wavelet_bases(normalized_laplacian(graph.adjacency),
                                           *self.config.wavelet_key), graph.features)

    def _assign(self, stage: int, gcn_adjacency: Var | Renormalized | None,
                features: Var, n: int, m: int) -> Var:
        """The m x n pool assignment; DiffPool's GCN reads ``gcn_adjacency``."""
        cfg = self.config
        if cfg.uses_spectral_pool:
            return spectral_pool_assign(self.params[f"pool{stage}.theta"], cosine_transform(n),
                                        cosine_transform(m), cfg.softmax_rows)
        return diffpool_assign(gcn_adjacency, features, self.params[f"pool{stage}.assign"], m)

    def forward(self, graph: Graph) -> ForwardResult:
        cfg, p = self.config, self.params
        n = graph.node_count
        if n > cfg.n_max:
            raise ContractViolationError(f"graph has {n} nodes, model allocated for {cfg.n_max}")
        if graph.feature_dim != cfg.feature_dim:
            raise ContractViolationError(
                f"graph features have width {graph.feature_dim}, model expects {cfg.feature_dim}"
            )
        inputs = self.inputs_for(graph)
        adjacency = ad.constant(graph.adjacency)
        if cfg.uses_wavelets:
            thetas = [p[f"gwc.theta.{k}"] for k in range(len(cfg.scales))]
            h = gwc_forward(thetas, p["gwc.bias"], inputs.wavelets, cfg.activation)
        else:
            h = gcn_forward(inputs.gcn, None, p["conv1.weight"], cfg.activation)
        stages: list[PoolStage] = []
        pooled_adjacencies: list[Var] = []
        if n > cfg.m_out:
            m1 = mid_pool_size(n, cfg.m_out)
            s = self._assign(1, inputs.renormalized, h, n, m1)
            pooled, h, product = pool_apply(s, adjacency, h, symmetric=True)
            stages.append(PoolStage(adjacency, s, product, 2.0 * graph.edge_count))
            adjacency = pooled
            pooled_adjacencies.append(adjacency)
            h = gcn_forward(adjacency, h, p["gcn.weight"], cfg.activation)
            if m1 > cfg.m_out:
                s = self._assign(2, adjacency, h, m1, cfg.m_out)
                stages.append(PoolStage(adjacency, s))
                adjacency, h, _ = pool_apply(s, adjacency, h)
                pooled_adjacencies.append(adjacency)
        else:
            h = gcn_forward(inputs.renormalized, h, p["gcn.weight"], cfg.activation)
            if n < cfg.m_out:
                h = ad.pad_rows(h, cfg.m_out)
        logits = classify(h, p["classifier.weight"], p["classifier.bias"])
        return ForwardResult(logits, stages, pooled_adjacencies)

    def predict(self, graph: Graph) -> int:
        """The predicted class, from a forward pass that records no tape."""
        with ad.no_grad():
            return self.forward(graph).prediction


# -- checkpoint serialization ---------------------------------------------


def config_to_dict(config: ModelConfig) -> dict:
    d = asdict(config)
    d["scales"] = list(config.scales)
    return d


def config_from_dict(d: dict) -> ModelConfig:
    try:
        return decode(ModelConfig, d, "config", error=FormatError)
    except ContractViolationError as exc:  # a well-typed value out of range
        raise FormatError(f"invalid model config: {exc}") from exc


def save_checkpoint(path, config: ModelConfig, tensors: dict[str, np.ndarray],
                    extra: dict | None = None) -> None:
    """Single-file checkpoint: JSON manifest + raw float64 tensors."""
    names = sorted(tensors)
    manifest = {
        "format": "wavepool-checkpoint",
        "version": CHECKPOINT_VERSION,
        "config": config_to_dict(config),
        "tensors": {name: list(np.asarray(tensors[name]).shape) for name in names},
        "extra": extra or {},
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
    buf.write(blob)
    for name in names:
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        buf.write(arr.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated checkpoint header")
    version, blob_len = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    offset = 12
    try:
        manifest = json.loads(data[offset:offset + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt checkpoint manifest: {exc}") from exc
    offset += blob_len
    if not isinstance(manifest, dict) or not {"tensors", "config"} <= manifest.keys():
        raise FormatError(f"{path}: checkpoint manifest needs 'tensors' and 'config'")
    shapes = manifest["tensors"]
    if not isinstance(shapes, dict) or not all(
            isinstance(shape, list) and all(isinstance(d, int) and d >= 0 for d in shape)
            for shape in shapes.values()):
        raise FormatError(f"{path}: checkpoint tensor shapes must be lists of sizes")
    config = config_from_dict(manifest["config"])
    wrong = _mismatched(config, {name: tuple(shape) for name, shape in shapes.items()})
    if wrong:
        raise FormatError(f"{path}: checkpoint tensors {wrong} do not match the "
                          f"{config.variant} parameters of its config")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(data):
            raise FormatError(f"{path}: truncated tensor data for {name}")
        flat = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        tensors[name] = flat.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes after tensors")
    return config, tensors, manifest.get("extra", {})


def model_from_checkpoint(path, seed: int = 0) -> CrossScaleModel:
    config, tensors, _ = load_checkpoint(path)
    return CrossScaleModel(config, seed=seed, tensors=tensors)
