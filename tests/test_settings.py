"""The one rule that turns outside values into settings objects."""

import argparse
import ast
import dataclasses
import re
import shlex
import types
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool import cli, harness
from wavepool.errors import ConfigError
from wavepool.graphs import SplitSpec
from wavepool.harness import ExperimentPlan
from wavepool.settings import decode, typed
from wavepool.synth import ClassSpec
from wavepool.training import TrainConfig

from .conftest import toy_dataset


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


# -- the config sections the CLI reads --------------------------------------


def accepted_keys(section: str) -> list[str]:
    """The keys ``cli.plan_from`` accepts in a config section, as its error
    for an unknown key lists them."""
    with pytest.raises(ConfigError, match="accepted: ") as info:
        cli.plan_from({section: {"?": 0}}, argparse.Namespace(), (0,))
    return ast.literal_eval(str(info.value).split("accepted: ")[1])


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", ["model", "split"])
def test_readme_lists_the_keys_each_section_accepts(name):
    text = README.read_text(encoding="utf-8")
    (listed,) = re.findall(rf"^- `{name}`: (.*?);$", text, re.M | re.S)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(accepted_keys(name))


def test_readme_lists_the_shared_training_flags():
    """The flags that ``train``, ``evaluate``, ``ablate`` and ``sweep`` all
    take, less those that ``generate`` or ``stats`` take too (``--config``,
    ``--data``, ``--out``, ``-v``, ``-h``), are the shared training group's."""
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]

    def flags(name):
        return set(commands[name]._option_string_actions)

    shared = set.intersection(*map(flags, ["train", "evaluate", "ablate", "sweep"]))
    text = " ".join(README.read_text(encoding="utf-8").split())
    (listed,) = re.findall(r"`train`, `evaluate`, `ablate` and `sweep` take the model and "
                           r"training flags (.*?)\. ", text)
    assert sorted(re.findall(r"`(--[\w-]+)`", listed)) == sorted(
        shared - flags("generate") - flags("stats"))


def recipes(text: str) -> list[list[str]]:
    """The arguments of every ``wavepool`` line in ``text``'s shell blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("wavepool ")]


def test_readme_recipes_parse():
    """Every ``wavepool`` line of the README's shell blocks parses with the
    command's own parser, and its "Experiments" section runs the comparison
    and the three sweeps, each into its own directory."""
    text = README.read_text(encoding="utf-8")
    for argv in recipes(text):
        assert cli.build_parser().parse_args(argv).command == argv[0]
    experiments = text[text.index("## Experiments\n"):text.index("## Tests\n")]
    runs = [cli.build_parser().parse_args(argv) for argv in recipes(experiments)]
    assert [run.command for run in runs] == ["generate", "ablate", "sweep", "sweep", "sweep"]
    assert [run.axis for run in runs[2:]] == ["F", "M", "beta"]
    assert len({run.out for run in runs}) == len(runs)


TINY = toy_dataset(per_class=3)

SECTIONS = {"model": ExperimentPlan, "train": TrainConfig, "split": SplitSpec}

# negative, zero, huge, NaN and wrong-typed values, for any field
HOSTILE = st.sampled_from([-1, 0, 10**18, -(10**18), 10**400, float("nan"), float("inf"),
                           "1", True, None, [], {}])

# settings that have been removed, keys the CLI fixes itself, and a stranger
UNKNOWN = ["n_max", "basis_mode", "softmax_rows", "lp_stage_mode", "optimizer", "momentum",
           "adam_beta1", "adam_beta2", "adam_eps", "seed", "seeds", "bogus"]


def values(hint, default=dataclasses.MISSING):
    """Values of the annotation ``hint``: its default or any of its type,
    NaN and the infinities left to ``HOSTILE``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = set(typing.get_args(hint)) - {type(None)}
        return st.none() | values(hint, default)
    if typing.get_origin(hint) is tuple:
        drawn = st.lists(values(typing.get_args(hint)[0]), max_size=3)
    else:
        drawn = {int: st.integers(), float: st.floats(allow_nan=False, allow_infinity=False),
                 bool: st.booleans(), str: st.text(max_size=6)}[hint]
    if default is dataclasses.MISSING:
        return drawn
    return st.just(list(default) if isinstance(default, tuple) else default) | drawn


def section(name: str):
    """Any of a section's accepted keys, each with a value of its annotation."""
    cls = SECTIONS[name]
    hints = typing.get_type_hints(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return st.fixed_dictionaries({}, optional={
        key: values(hints[key], defaults[key]) for key in accepted_keys(name)})


# at most one hostile entry: a value under one of a section's accepted keys
# or an unknown key, or (key None) in place of the section itself
FAULTS = st.sampled_from(sorted(SECTIONS)).flatmap(lambda name: st.tuples(
    st.just(name), st.sampled_from(accepted_keys(name) + [None]) | st.sampled_from(UNKNOWN),
    HOSTILE)) | st.none()


@settings(max_examples=400, deadline=None)
@given(model=section("model"), train=section("train"), split=section("split"), fault=FAULTS)
def test_any_settings_document_gives_a_model_config_or_a_config_error(model, train, split,
                                                                      fault):
    """Whatever the ``model``, ``train`` and ``split`` sections hold, the CLI's
    plan and the harness's model settings for a tiny corpus are built, or
    ``ConfigError`` is raised, with no warning. Neither call allocates by a
    setting: the model's node allocation comes from the corpus."""
    cfg = {"model": model, "train": train, "split": split}
    if fault is not None:
        name, key, value = fault
        cfg[name] = value if key is None else {**cfg[name], key: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            harness.model_config_for(TINY, cli.plan_from(cfg, argparse.Namespace(), (0,)))
        except ConfigError:
            pass
