import json
import re
import subprocess
import sys

import pytest

from wavepool import cli
from wavepool.cli import build_parser, load_config_file, main, plan_from
from wavepool.errors import ConfigError, NumericError

from .test_lanes import WORKER_POSSIBLE, lane_env


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    """A small three-class benchmark generated once through the CLI."""
    out = tmp_path_factory.mktemp("bench")
    code = main([
        "generate", "--preset", "three-class", "--per-class", "8",
        "--size-range", "8:12", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    return out


FAST = ["--epochs", "2", "--order", "6", "--m-out", "2", "--scales", "1",
        "--batch-size", "8"]


# -- exit code 2: configuration problems ----------------------------------


def test_missing_data_path_exits_2_and_names_it(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_invalid_beta_rejected_before_training(bench_dir, tmp_path, capsys):
    code = main(["train", "--data", str(bench_dir), "--out", str(tmp_path / "o"),
                 "--beta", "1.5"])
    assert code == 2
    assert "beta" in capsys.readouterr().err
    assert not (tmp_path / "o" / "checkpoint.bin").exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "turbo": True}))
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "turbo" in capsys.readouterr().err


def test_config_file_bad_json(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"\xff\xfe{}")
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and "bad.json" in err
    with pytest.raises(ConfigError, match="byte 0"):
        load_config_file(str(cfg))


def test_config_file_wrong_schema_version(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ConfigError, match="schema_version"):
        load_config_file(str(cfg))


@pytest.mark.parametrize("flags", [["--seeds", "a,b"], ["--seeds", "1,-2"],
                                   ["--num-seeds", "0"], ["--num-seeds", "-3"],
                                   ["--seeds", "1,1"], ["--seeds", ""],
                                   ["--seeds", "1,2", "--num-seeds", "5"]])
def test_bad_seed_flags_exit_2(bench_dir, tmp_path, capsys, flags):
    code = main(["evaluate", "--data", str(bench_dir), "--out", str(tmp_path / "o"),
                 *flags, *FAST])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o" / "per_seed.csv").exists()


@pytest.mark.parametrize("command", ["generate", "train", "stability"])
def test_negative_seed_exits_2_and_names_it(bench_dir, tmp_path, capsys, command):
    data = ["--data", str(bench_dir)] if command == "train" else []
    code = main([command, *data, "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec", [
    {"family": "er", "p": 1.5}, {"family": "er", "p": -0.1},
    {"family": "ws", "k": 3}, {"family": "ws", "k": -2}, {"family": "ws", "p_rewire": 1.5},
    {"family": "ws", "k": 1200}, {"family": "ba", "m": 0}, {"family": "ba", "m": 1000},
], ids=lambda spec: "-".join(map(str, spec.values())))
def test_bad_family_parameter_exits_2_before_any_output(tmp_path, capsys, spec):
    cfg = tmp_path / "c.json"
    classes = [{**spec, "count": 2, "size_range": [8, 12]}, {"family": "er", "count": 2}]
    cfg.write_text(json.dumps({"schema_version": 1, "msg": {"classes": classes}}))
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and [k for k in spec if k != "family"][0] in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds", [["x"], [1.5], [True], [], 3, [1, 1]])
def test_bad_config_seeds_exit_2(bench_dir, tmp_path, capsys, seeds):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seeds": seeds}))
    code = main(["evaluate", "--config", str(cfg), "--data", str(bench_dir),
                 "--out", str(tmp_path / "o"), *FAST])
    assert code == 2
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "train"])
@pytest.mark.parametrize("model", [{"order": 0}, {"m_out": "4"}, {"scales": ["a"]}])
def test_bad_model_settings_exit_2_before_any_seed(bench_dir, tmp_path, capsys,
                                                   command, model):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "model": model}))
    out = tmp_path / "o"
    code = main([command, "--config", str(cfg), "--data", str(bench_dir),
                 "--out", str(out), "--epochs", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert next(iter(model)) in err  # names the field
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", [{"order": 100000}, {"order": 171},
                                   {"basis_mode": "closed_form", "scales": [60]},
                                   {"scales": [1e7]}, {"scales": [1.0, 1e308]}])
def test_an_order_or_scale_no_basis_can_take_exits_2_before_any_seed(bench_dir, tmp_path,
                                                                     capsys, model):
    """An order past ``ORDER_MAX`` (100000 would ask NumPy for 298 GiB), a
    closed-form scale past the Bessel series' window and a scale whose every
    Chebyshev coefficient underflows to zero (from 1e7 at order 16) are
    settings faults, rejected without a warning."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "model": model}))
    out = tmp_path / "o"
    code = main(["train", "--config", str(cfg), "--data", str(bench_dir),
                 "--out", str(out), "--epochs", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad model settings: ")
    assert ("scales" if "scales" in model else "order") in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "train"])
@pytest.mark.parametrize("model, message", [
    ({"activation": "identity", "softmax_rows": False, "bogus": 3, "order": 6},
     "unknown keys ['activation', 'bogus', 'softmax_rows']"),
    (3, "'model' must be an object"),
])
def test_unknown_model_keys_exit_2_and_are_named(bench_dir, tmp_path, capsys, command,
                                                 model, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "model": model}))
    out = tmp_path / "o"
    code = main([command, "--config", str(cfg), "--data", str(bench_dir),
                 "--out", str(out), *FAST])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, section, names", [
    ("train", {"train": [1]}, "'train' must be an object"),
    ("train", {"split": [1]}, "'split' must be an object"),
    ("generate", {"msg": [1]}, "'msg' must be an object"),
    ("train", {"model": {"scales": "12"}}, "model.scales"),
    ("train", {"train": {"shuffle": "no"}}, "train.shuffle"),
    ("train", {"split": {"stratified": "yes"}}, "split.stratified"),
    ("train", {"train": {"grad_clip_norm": True}}, "train.grad_clip_norm"),
    ("train", {"train": {"epochs": True}}, "train.epochs"),
    ("train", {"train": {"batch_size": 2.5}}, "train.batch_size"),
    ("train", {"train": {"epochs": "2"}}, "train.epochs"),
    ("generate", {"msg": {"per_class": "3"}}, "msg.per_class"),
    ("generate", {"msg": {"size_range": "ab"}}, "msg.size_range"),
    ("generate", {"msg": {"per_clas": 3}}, "'msg' has unknown keys ['per_clas']"),
    ("generate", {"msg": {"per_class": True}}, "msg.per_class"),
    ("train", {"train": {"learning_rate": NAN}}, "train.learning_rate"),
    ("train", {"train": {"learning_rate": INF}}, "train.learning_rate"),
    ("train", {"train": {"grad_clip_norm": NAN}}, "train.grad_clip_norm"),
    ("train", {"split": {"train_fraction": NAN}}, "split.train_fraction"),
])
def test_mistyped_config_values_exit_2_and_name_the_key(bench_dir, tmp_path, capsys,
                                                        command, section, names):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, **section}))
    out = tmp_path / "o"
    data = ["--data", str(bench_dir)] if command == "train" else []
    code = main([command, "--config", str(cfg), "--out", str(out), *data])
    assert code == 2
    assert names in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--bins", "0"], "--bins"),
    (["stability", "--size-range", "10:5"], "--size-range"),
    (["stability", "--trials", "0"], "--trials"),
])
def test_out_of_range_flags_exit_2_and_name_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_training_and_split_flags_reach_their_settings():
    cfg = {"train": {"learning_rate": 0.5, "grad_clip_norm": 1.0}}
    args = build_parser().parse_args(["train", "--data", "d", "--out", "o", "--lr", "0.25",
                                      "--grad-clip", "2", "--no-stratify"])
    plan = plan_from(cfg, args, (0,))
    assert (plan.train.learning_rate, plan.train.grad_clip_norm) == (0.25, 2.0)
    assert plan.split.stratified is False
    plan = plan_from(cfg, build_parser().parse_args(["train", "--data", "d", "--out", "o"]),
                     (0,))
    assert (plan.train.learning_rate, plan.train.grad_clip_norm) == (0.5, 1.0)
    assert plan.split.stratified is True


@pytest.mark.parametrize("raised, code", [
    (NumericError("eigh failed"), 1), (OSError("disk full"), 1),
    (TypeError("a bug"), None), (ValueError("a bug"), None),
])
def test_main_maps_package_and_os_errors_and_lets_bugs_escape(monkeypatch, tmp_path,
                                                              raised, code):
    def command(args):
        raise raised

    monkeypatch.setattr(cli, "cmd_stats", command)
    argv = ["stats", "--data", str(tmp_path)]
    if code is None:
        with pytest.raises(type(raised), match="a bug"):
            main(argv)
    else:
        assert main(argv) == code


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_n_max_below_the_largest_graph_exits_2(bench_dir, tmp_path, capsys, command):
    out = tmp_path / "o"
    code = main([command, "--data", str(bench_dir), "--out", str(out), "--n-max", "7",
                 *FAST])
    assert code == 2
    assert "n_max 7" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_bad_axis_value_before_any_cell(bench_dir, tmp_path, capsys):
    code = main(["sweep", "--data", str(bench_dir), "--out", str(tmp_path / "o"),
                 "--axis", "M", "--values", "6,0", "--seeds", "0", *FAST])
    assert code == 2
    assert "order" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_fractional_count_values_before_any_cell(bench_dir, tmp_path, capsys):
    code = main(["sweep", "--data", str(bench_dir), "--out", str(tmp_path / "o"),
                 "--axis", "M", "--values", "6.5,2.9", "--seeds", "0", *FAST])
    assert code == 2
    assert "sweep axis M takes integer values, got 6.5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--data", "d", "--seed", "5"],
    ["ablate", "--data", "d", "--seed", "5"],
    ["sweep", "--data", "d", "--axis", "M", "--values", "6", "--seed", "5"],
    ["stats", "--data", "d", "--seed", "5"],
    ["stats", "--data", "d", "--config", "c.json"],
    ["stability", "--config", "c.json"],
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_axis(bench_dir, tmp_path, capsys):
    code = main(["sweep", "--data", str(bench_dir), "--out", str(tmp_path / "o"),
                 "--values", "0,0.5"])
    assert code == 2
    assert "--axis" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# -- exit code 0 flows ----------------------------------------------------


def test_generate_outputs(bench_dir):
    names = {p.name for p in bench_dir.iterdir()}
    assert {"stats.json", "size_hist.csv", "size_hist.svg"} <= names
    assert any(n.endswith("_A.txt") for n in names)
    stats = json.loads((bench_dir / "stats.json").read_text())
    assert stats["overall"]["graph_count"] == 24
    assert len(stats["per_class"]) == 3
    hist = (bench_dir / "size_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    assert sum(int(line.split(",")[2]) for line in hist[1:]) == 24


def test_stats_command(bench_dir, tmp_path, capsys):
    code = main(["stats", "--data", str(bench_dir), "--out", str(tmp_path / "s")])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["overall"]["graph_count"] == 24
    on_disk = json.loads((tmp_path / "s" / "stats.json").read_text())
    assert on_disk == printed


def test_train_command(bench_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--data", str(bench_dir), "--out", str(out),
                 "--seed", "1", *FAST])
    assert code == 0
    assert "test accuracy" in capsys.readouterr().out
    assert (out / "checkpoint.bin").exists()
    assert (out / "report.csv").read_text().startswith("epoch,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["train"]["epochs"] == 2
    assert summary["train"]["seed"] == 1
    assert 0.0 <= summary["test_acc"] <= 1.0
    assert "majority_baseline" in summary


def test_evaluate_command_and_determinism(bench_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["evaluate", "--data", str(bench_dir), "--out", str(out),
                     "--seeds", "0,1", *FAST])
        assert code == 0
        outs.append(out)
    for fname in ("per_seed.csv", "aggregate.csv"):
        first = (outs[0] / fname).read_bytes()
        second = (outs[1] / fname).read_bytes()
        assert first == second, f"{fname} differs between identical runs"
    per_seed = (outs[0] / "per_seed.csv").read_text().splitlines()
    assert per_seed[0] == "variant,seed,test_acc,epochs,seconds"
    assert len(per_seed) == 3
    assert all(line.endswith(",") for line in per_seed[1:])  # no timing by default
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary["seeds"] == [0, 1]
    assert len(summary["per_seed"]) == 2


def test_evaluate_timing_flag_fills_seconds(bench_dir, tmp_path):
    out = tmp_path / "t"
    code = main(["evaluate", "--data", str(bench_dir), "--out", str(out),
                 "--seeds", "0", "--timing", *FAST])
    assert code == 0
    row = (out / "per_seed.csv").read_text().splitlines()[1]
    seconds = row.split(",")[4]
    assert seconds != "" and float(seconds) > 0


def test_ablate_command(bench_dir, tmp_path, capsys):
    out = tmp_path / "abl"
    code = main(["ablate", "--data", str(bench_dir), "--out", str(out),
                 "--seeds", "0", *FAST])
    assert code == 0
    table = (out / "ablation.txt").read_text()
    assert capsys.readouterr().out == table
    agg = (out / "ablation.csv").read_text().splitlines()
    assert agg[0] == "variant,mean,std,n"
    assert [line.split(",")[0] for line in agg[1:]] == [
        "gcn_diffpool", "gcn_spectral", "wavelet_diffpool", "wavelet_spectral"]
    per_seed = (out / "ablation_per_seed.csv").read_text().splitlines()
    assert len(per_seed) == 5  # header + one seed per variant


def test_sweep_command(bench_dir, tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", "--data", str(bench_dir), "--out", str(out),
                 "--axis", "beta", "--values", "0,0.5", "--seeds", "0", *FAST])
    assert code == 0
    printed = capsys.readouterr().out
    assert "beta=0:" in printed and "beta=0.5:" in printed
    csv_lines = (out / f"sweep_beta.csv").read_text().splitlines()
    assert csv_lines[0] == "axis,value,mean,std"
    assert len(csv_lines) == 3
    svg = (out / "sweep_beta.svg").read_text()
    assert svg.startswith("<svg")
    summary = json.loads((out / "summary.json").read_text())
    assert [c["value"] for c in summary["cells"]] == [0.0, 0.5]


def test_stability_command(tmp_path, capsys):
    out = tmp_path / "stab"
    code = main(["stability", "--trials", "50", "--graphs", "2",
                 "--size-range", "6:10", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 6  # three layer checks per graph
    assert "FAIL" not in printed
    report = json.loads((out / "stability.json").read_text())
    assert report["report"]["passing"] is True


@pytest.mark.parametrize("span, code", [("0:0", 2), ("2:2", 2), ("3:3", 0)])
def test_stability_sizes_must_pool_to_fewer_nodes(tmp_path, capsys, span, code):
    """Each graph is pooled to max(2, n // 4) nodes, fewer than n from n = 3 on."""
    out = tmp_path / "stab"
    assert main(["stability", "--trials", "5", "--graphs", "1", "--size-range", span,
                 "--out", str(out)]) == code
    assert ("needs 3 <= LO <= HI" in capsys.readouterr().err) == (code == 2)
    assert out.exists() == (code == 0)


def test_config_file_flag_precedence(bench_dir, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "train": {"epochs": 5, "learning_rate": 0.001},
        "model": {"m_out": 2, "order": 6, "scales": [1.0]},
    }))
    out = tmp_path / "run"
    code = main(["train", "--data", str(bench_dir), "--out", str(out),
                 "--config", str(cfg), "--epochs", "2", "--batch-size", "8"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["train"]["epochs"] == 2          # flag wins
    assert summary["train"]["learning_rate"] == 0.001  # file kept
    assert summary["model"]["m_out"] == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wavepool", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cross-scale graph classification" in proc.stdout


@pytest.mark.parametrize("verbose", [True, False])
def test_verbose_shows_where_lane_1_runs(bench_dir, tmp_path, verbose):
    """``-v`` shows the one INFO line ``train`` logs; without it the run
    logs nothing."""
    proc = subprocess.run(
        [sys.executable, "-m", "wavepool", "train", "--data", str(bench_dir),
         "--out", str(tmp_path / "run"), "--seed", "1", *FAST, *(["-v"] if verbose else [])],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if "wavepool.training" in line]
    if verbose:
        assert len(lines) == 1 and lines[0].startswith("INFO wavepool.training: lane 1 runs ")
    else:
        assert lines == []


def test_debug_shows_each_epoch_and_evaluation_pass(bench_dir, tmp_path):
    """``-vv`` adds one DEBUG record per epoch and one line per evaluation
    pass to the INFO line, and where lane 1 forks one per operand build and
    one per lane worker forked or retired: the training worker holds no test
    graph, so the test split's pass retires it and forks its own, which goes
    with the model."""
    proc = subprocess.run(
        [sys.executable, "-m", "wavepool", "train", "--data", str(bench_dir),
         "--out", str(tmp_path / "run"), "--seed", "1", *FAST, "-vv"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if "wavepool.training" in line]
    epochs = [line for line in lines if line.startswith("DEBUG wavepool.training: epoch ")]
    passes = [line for line in lines if line.startswith("DEBUG wavepool.training: evaluating ")]
    assert lines[0].startswith("INFO wavepool.training: lane 1 runs ")
    assert [line.split(":")[1] for line in epochs] == [" epoch 0", " epoch 1"]  # --epochs 2
    assert "pre-clip gradient norm max " in epochs[0] and "steps clipped" in epochs[0]
    builds = [line for line in lines if line.startswith("DEBUG wavepool.training: built ")]
    forks = [line for line in lines
             if line.startswith("DEBUG wavepool.training: forked a lane worker ")]
    retired = [line.rsplit(": ", 1)[1] for line in lines
               if line.startswith("DEBUG wavepool.training: retired the lane worker ")]
    assert len(passes) == 3  # two validation passes and the test split
    assert len(lines) == 1 + len(epochs) + len(passes) + len(builds) + len(forks) + len(retired)
    if WORKER_POSSIBLE:
        assert len(forks) == 2
        assert retired == ["a call needs graphs it does not hold", "its model was dropped"]


@pytest.mark.parametrize("verbosity", [["-vv"], []])
def test_debug_shows_each_operand_build(bench_dir, tmp_path, verbosity):
    """Where lane 1 forks, ``-vv`` shows one record per operand build that
    builds anything: the training and validation graphs' as ``train``
    starts, then the test split's before its evaluation pass. Each gives the
    operands per lane and where lane 1 ran and why. The default level shows
    nothing."""
    proc = subprocess.run(
        [sys.executable, "-m", "wavepool", "train", "--data", str(bench_dir),
         "--out", str(tmp_path / "run"), "--seed", "1", *FAST, *verbosity],
        capture_output=True, text=True, timeout=300, env=lane_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if "wavepool.training" in line]
    if not verbosity:
        assert lines == []
        return
    builds = [line for line in lines if line.startswith("DEBUG wavepool.training: built ")]
    if not WORKER_POSSIBLE:  # nothing forks, so the forward passes build the operands
        assert builds == []
        return
    pattern = (r"DEBUG wavepool\.training: built (\d+) wavelet operands in [\d.]+ s: (\d+) in "
               r"lane 0 here, (\d+) in lane 1 in a forked builder: \d+ CPUs, "
               r"one OpenBLAS thread per lane, \1 graphs at a time")
    counts = [tuple(map(int, re.fullmatch(pattern, line).groups())) for line in builds]
    assert [total for total, _, _ in counts] == [21, 3]  # 21 training and validation graphs
    assert all(total == first + second and second > 0 for total, first, second in counts)
