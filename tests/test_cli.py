import json
import subprocess
import sys

import pytest

from wavepool.cli import load_config_file, main
from wavepool.errors import ConfigError


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
                                   ["--num-seeds", "0"], ["--num-seeds", "-3"]])
def test_bad_seed_flags_exit_2(bench_dir, tmp_path, capsys, flags):
    code = main(["evaluate", "--data", str(bench_dir), "--out", str(tmp_path / "o"),
                 *flags, *FAST])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o" / "per_seed.csv").exists()


@pytest.mark.parametrize("seeds", [["x"], [1.5], [True], [], 3])
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
    assert "config error" in capsys.readouterr().err
    assert not (out / "per_seed.csv").exists()
    assert not (out / "checkpoint.bin").exists()


def test_sweep_rejects_a_bad_axis_value_before_any_cell(bench_dir, tmp_path, capsys):
    code = main(["sweep", "--data", str(bench_dir), "--out", str(tmp_path / "o"),
                 "--axis", "M", "--values", "6,0", "--seeds", "0", *FAST])
    assert code == 2
    assert "order" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
