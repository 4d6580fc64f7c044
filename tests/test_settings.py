"""The one rule that turns outside values into settings objects."""

import pytest

from wavepool.errors import ConfigError
from wavepool.graphs import SplitSpec
from wavepool.settings import decode, typed
from wavepool.synth import ClassSpec
from wavepool.training import TrainConfig


@pytest.mark.parametrize("build, names", [
    (lambda: TrainConfig(epochs="2"), "TrainConfig.epochs"),
    (lambda: TrainConfig(grad_clip_norm=float("nan")), "TrainConfig.grad_clip_norm"),
    (lambda: SplitSpec(stratified="yes"), "SplitSpec.stratified"),
    (lambda: ClassSpec(family="er", size_range=(4,)), "ClassSpec.size_range"),
    (lambda: ClassSpec(family="er", count=True), "ClassSpec.count"),
])
def test_library_calls_with_a_mistyped_field_name_it(build, names):
    with pytest.raises(ConfigError, match=names):
        build()


def test_values_are_stored_in_their_annotated_form():
    rate = TrainConfig(learning_rate=1).learning_rate
    assert rate == 1.0 and isinstance(rate, float)
    assert ClassSpec(family="er", size_range=[5, 8]).size_range == (5, 8)
    assert typed(int | None, None, "x", ConfigError) is None
    assert typed(tuple[float, ...], [1, 2.5], "x", ConfigError) == (1.0, 2.5)


def test_decode_precedence_is_fixed_then_flags_then_data():
    class Flags:
        epochs = 3
        batch_size = None

    config = decode(TrainConfig, {"epochs": 7, "batch_size": 4}, "train", Flags(), {"seed": 9})
    assert (config.epochs, config.batch_size, config.seed) == (3, 4, 9)
    with pytest.raises(ConfigError, match=r"unknown keys \['seed'\]"):
        decode(TrainConfig, {"seed": 1}, "train", fixed={"seed": 9})
