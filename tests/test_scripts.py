"""The scripts under ``scripts/`` drive the harness end to end; each runs
here through its ``main`` on a tiny corpus. Fetching a TU dataset needs the
network, so that script is only asked for its help text."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = ["--per-class", "10", "--size-range", "8:16", "--seeds", "1", "--epochs", "1"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore:parameter .* received no gradient")
def test_synthetic_benchmark_writes_its_tables(tmp_path):
    out = tmp_path / "bench"
    assert load_script("synthetic_benchmark").main(["--out", str(out), *TINY]) == 0
    for name in ("per_seed.csv", "ablation.csv", "ablation.txt"):
        assert (out / name).is_file(), name
    assert (out / "ablation.csv").read_text().startswith("variant,mean,std,n\n")
    assert len((out / "per_seed.csv").read_text().splitlines()) == 1 + 4  # one row per variant
    assert (out / "dataset").is_dir()


@pytest.mark.filterwarnings("ignore:parameter .* received no gradient")
def test_sensitivity_sweeps_write_one_curve_per_axis(tmp_path):
    out = tmp_path / "sweeps"
    script = load_script("sensitivity_sweeps")
    assert script.main(["--out", str(out), *TINY]) == 0
    for axis in ("F", "M", "beta"):
        lines = (out / f"sweep_{axis}.csv").read_text().splitlines()
        assert lines[0] == "axis,value,mean,std"
        assert len(lines) == 1 + len(script.GRIDS[axis])
        assert (out / f"sweep_{axis}.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("name", ["synthetic_benchmark", "sensitivity_sweeps"])
@pytest.mark.parametrize("span", ["5", "200:20", "a:b"])
def test_bad_size_range_exits_2_and_names_the_flag(tmp_path, capsys, name, span):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        load_script(name).main(["--out", str(out), "--size-range", span])
    assert exit_info.value.code == 2
    assert "argument --size-range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["synthetic_benchmark", "sensitivity_sweeps"])
def test_size_range_outside_the_generator_bounds_exits_2(tmp_path, capsys, name):
    out = tmp_path / "o"
    assert load_script(name).main(["--out", str(out), "--size-range", "2:5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: size range")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["synthetic_benchmark", "sensitivity_sweeps"])
@pytest.mark.parametrize("flag", ["--seeds", "--epochs"])
def test_no_seed_or_no_epoch_exits_2_before_any_output(tmp_path, capsys, name, flag):
    out = tmp_path / "o"
    assert load_script(name).main(["--out", str(out), flag, "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, flag", [
    ("synthetic_benchmark", "--data-seed"), ("synthetic_benchmark", "--seeds"),
    ("synthetic_benchmark", "--epochs"), ("synthetic_benchmark", "--per-class"),
    ("sensitivity_sweeps", "--seeds"), ("sensitivity_sweeps", "--epochs"),
    ("sensitivity_sweeps", "--per-class")])
def test_negative_count_or_seed_exits_2_and_names_the_flag(tmp_path, capsys, name, flag):
    """The scripts parse their integers as the CLI does: a negative one (and
    a class size of 0) is a usage error, not NumPy's ValueError."""
    out = tmp_path / "o"
    for value in ["-1"] + (["0"] if flag == "--per-class" else []):
        with pytest.raises(SystemExit) as exit_info:
            load_script(name).main(["--out", str(out), flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["synthetic_benchmark", "sensitivity_sweeps"])
def test_a_corpus_too_small_to_split_exits_2_before_any_output(tmp_path, capsys, name):
    """One graph per class cannot fill a stratified split, whatever the seed."""
    out = tmp_path / "o"
    argv = ["--out", str(out), "--per-class", "1", "--seeds", "1", "--epochs", "1",
            "--size-range", "8:16"]
    assert load_script(name).main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: class 0 has only 1 graph(s)")
    assert "Traceback" not in err
    assert not out.exists()


def test_fetch_tu_dataset_help_needs_no_network(capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_script("fetch_tu_dataset").main(["--help"])
    assert exit_info.value.code == 0
    assert "TU" in capsys.readouterr().out
