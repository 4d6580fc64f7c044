"""Recorded losses and gradient norms that guard the tape against drift.

The values were produced by the package before the tape moved to a single
node convention. Every change to ``autodiff`` or to a layer's backward pass
must reproduce them: each of the four variants, on one graph large enough to
pool twice and one small enough to be zero-padded, with the structure loss
switched on. A gradient of None means the parameter is not reached.
"""

import numpy as np
import pytest

from wavepool import autodiff as ad
from wavepool.graphs import Graph
from wavepool.model import CrossScaleModel, ModelConfig
from wavepool.training import graph_loss

REL_TOL = 1e-9

# (variant, node count): (loss, {parameter: Frobenius norm of its gradient})
RECORDED = {
    ('gcn_diffpool', 20): (5.39086534792128, {'classifier.bias': 0.2052104191679193, 'classifier.weight': 0.4019627622929378, 'conv1.weight': 0.3151620883606887, 'gcn.weight': 0.2522750511909853, 'pool1.assign': 0.16408252623732586, 'pool2.assign': 0.04132060887714807}),
    ('gcn_diffpool', 3): (0.23849138730786515, {'classifier.bias': 0.18297433761746748, 'classifier.weight': 0.24390489513376234, 'conv1.weight': 0.0318273487652258, 'gcn.weight': 0.13266121366183356, 'pool1.assign': None, 'pool2.assign': None}),
    ('gcn_spectral', 20): (2.028867694505917, {'classifier.bias': 0.1888150287399271, 'classifier.weight': 0.0490470493609186, 'conv1.weight': 0.008455986097686862, 'gcn.weight': 0.008230242623640012, 'pool1.theta': 0.0169391633444561, 'pool2.theta': 0.005946684604520081}),
    ('gcn_spectral', 3): (0.22083426074020265, {'classifier.bias': 0.1750152796016291, 'classifier.weight': 0.15786300980483842, 'conv1.weight': 0.0700317176805849, 'gcn.weight': 0.13024599495284214, 'pool1.theta': None, 'pool2.theta': None}),
    ('wavelet_diffpool', 20): (6.678970695525334, {'classifier.bias': 0.0020626167792412403, 'classifier.weight': 0.05014390348987937, 'gcn.weight': 0.5843531850045732, 'gwc.bias': 0.31363852435239714, 'gwc.theta.0': 1.7964268194215223, 'gwc.theta.1': 4.372401138645059, 'gwc.theta.2': 12.086222496391754, 'pool1.assign': 7.420120988732386, 'pool2.assign': 0.35130089263423664}),
    ('wavelet_diffpool', 3): (1.826771993511497, {'classifier.bias': 0.32985132721735416, 'classifier.weight': 8.028719055487178, 'gcn.weight': 2.7100654822751458, 'gwc.bias': 0.05801841586614557, 'gwc.theta.0': 0.0404939243133141, 'gwc.theta.1': 0.0, 'gwc.theta.2': 8.062970622714989, 'pool1.assign': None, 'pool2.assign': None}),
    ('wavelet_spectral', 20): (2.0513732678451326, {'classifier.bias': 0.19304673153419954, 'classifier.weight': 1.1085024306856734, 'gcn.weight': 0.5738207332285428, 'gwc.bias': 0.0225481114333597, 'gwc.theta.0': 0.0921423832806672, 'gwc.theta.1': 0.23193149930534665, 'gwc.theta.2': 0.5339351070111499, 'pool1.theta': 0.01947334799420551, 'pool2.theta': 0.014350029000245016}),
    ('wavelet_spectral', 3): (0.00020326280773357141, {'classifier.bias': 0.0002785588798430243, 'classifier.weight': 0.00984342445155647, 'gcn.weight': 0.0038893873500251567, 'gwc.bias': 7.667282949170639e-05, 'gwc.theta.0': 6.236134501025327e-05, 'gwc.theta.1': 0.0, 'gwc.theta.2': 0.008332896872143478, 'pool1.theta': None, 'pool2.theta': None}),
}

GRAPH_SEEDS = {20: 20, 3: 10}


def seeded_graph(n: int) -> Graph:
    rng = np.random.default_rng(GRAPH_SEEDS[n])
    upper = np.triu(rng.random((n, n)) < 0.3, 1).astype(float)
    return Graph(upper + upper.T, rng.standard_normal((n, 3)), label=GRAPH_SEEDS[n] % 3)


@pytest.mark.parametrize("variant, n", sorted(RECORDED))
def test_loss_and_gradient_norms_match_recorded_values(variant, n):
    expected_loss, expected_norms = RECORDED[variant, n]
    model = CrossScaleModel(
        ModelConfig(feature_dim=3, class_count=3, variant=variant, n_max=24, m_out=4), seed=7)
    graph = seeded_graph(n)
    loss, _ = graph_loss(model.forward(graph), graph.label, 3, beta=0.3)
    ad.backward(loss)
    assert float(loss.value) == pytest.approx(expected_loss, rel=REL_TOL, abs=0.0)
    assert sorted(model.params) == sorted(expected_norms)
    for name, expected in expected_norms.items():
        grad = model.params[name].grad
        if expected is None:
            assert grad is None, name
        else:
            assert float(np.linalg.norm(grad)) == pytest.approx(expected, rel=REL_TOL, abs=0.0), name
