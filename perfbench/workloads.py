"""Workload definitions and the seeded corpus generator.

Each workload is a corpus of synthetic graphs from the three criterion-06
families (dense random, rewired ring lattice, preferential-attachment tree)
plus a model schedule; why each workload exists is stated in BENCHMARK.json
and README.md. Graph sizes are fixed per workload and spread evenly
over its size range, so every seed does the same amount of work; the seed
draws the edges. The generator writes the corpus in the TU text layout, and
the program under test only ever reads those files back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from wavepool import spectral, synth
from wavepool.graphs import Graph, GraphDataset, degree_onehot_features

M_OUT = 4  # the package's default final pooled size (ModelConfig.m_out)


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    sizes: tuple[tuple[int, ...], ...]  # node counts, one tuple per class
    model_seeds: tuple[int, ...]
    stratified: bool
    epochs: int
    setup_runs: int  # cold set-ups per untraced run; the median is reported


def _model3_sizes(classes: int = 3, per_class: int = 60) -> tuple[tuple[int, ...], ...]:
    # 20-199 nodes, every size used once, classes interleaved
    return tuple(tuple(20 + c + classes * k for k in range(per_class)) for c in range(classes))


def _xl_sizes(classes: int = 3) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(400 + 200 * k - c for k in range(4)) for c in range(classes))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="model3-wavelet",
            variant="wavelet_spectral",
            sizes=_model3_sizes(),
            model_seeds=(0, 1),
            stratified=True,
            epochs=2,
            setup_runs=2,
        ),
        Workload(
            name="model3-gcn",
            variant="gcn_diffpool",
            sizes=_model3_sizes(),
            model_seeds=(0, 1),
            stratified=True,
            epochs=2,
            setup_runs=3,
        ),
        Workload(
            name="xl-wavelet",
            variant="wavelet_spectral",
            sizes=_xl_sizes(),
            model_seeds=(0,),
            stratified=False,
            epochs=2,
            setup_runs=1,
        ),
    )
}


def _family_generators():
    """Edge generators with the criterion-06 family parameters."""
    specs = synth.three_class_config().classes
    gens = []
    for spec in specs:
        if spec.family == "er":
            gens.append(lambda n, rng, s=spec: synth.gen_er(n, s.p, rng))
        elif spec.family == "ws":
            gens.append(lambda n, rng, s=spec: synth.gen_ws(n, s.k, s.p_rewire, rng))
        elif spec.family == "ba":
            gens.append(lambda n, rng, s=spec: synth.gen_ba(n, s.m, rng))
        else:
            raise ValueError(f"unexpected family {spec.family!r} in the three-class config")
    return gens


def generate(workload: Workload, seed: int) -> GraphDataset:
    """The workload's corpus for ``seed``; the same seed gives the same graphs."""
    gens = _family_generators()
    if len(gens) < len(workload.sizes):
        raise ValueError(f"{workload.name}: {len(workload.sizes)} classes, "
                         f"{len(gens)} families")
    graphs = []
    for label, (gen, sizes) in enumerate(zip(gens, workload.sizes)):
        for index, n in enumerate(sizes):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([seed, label, index])))
            adj = gen(n, rng)
            graphs.append(Graph(adj, degree_onehot_features(adj), label,
                                id=f"{workload.name}-{label}-{index}"))
    return GraphDataset(tuple(graphs), len(workload.sizes), graphs[0].feature_dim,
                        name=workload.name)


def export(dataset: GraphDataset, directory) -> None:
    synth.export_tu(dataset, directory, "WP")


def mid_pool_size(n: int) -> int:
    """First-stage pooled size of an n-node graph (quarter, floored at M_OUT)."""
    return max(math.ceil(n / 4), M_OUT)


def corpus_facts(dataset: GraphDataset, workload: Workload) -> dict:
    """Corpus properties the planned optimisations depend on.

    ``distinct_dct_sizes`` counts the cosine-transform sizes a spectral
    pooling pass asks for (node counts, first-stage pooled sizes and the
    final size); ``dct_cache_slots`` is the program's DCT cache capacity.
    """
    sizes = [g.node_count for g in dataset.graphs]
    pooled = {mid_pool_size(n) for n in sizes if n > M_OUT}
    cache_info = getattr(spectral.cosine_transform, "cache_info", None)
    slots = cache_info().maxsize if cache_info is not None else None
    return {
        "graphs": len(sizes),
        "total_nodes": int(sum(sizes)),
        "max_n": int(max(sizes)),
        "edges": int(sum(g.edge_count for g in dataset.graphs)),
        "distinct_node_sizes": len(set(sizes)),
        "distinct_pooled_sizes": len(pooled),
        "distinct_dct_sizes": len(set(sizes) | pooled | {M_OUT}),
        "dct_cache_slots": slots,
        "models": len(workload.model_seeds),
        "variant": workload.variant,
    }
