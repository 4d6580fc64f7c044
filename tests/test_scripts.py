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


def test_fetch_tu_dataset_help_needs_no_network(capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_script("fetch_tu_dataset").main(["--help"])
    assert exit_info.value.code == 0
    assert "TU" in capsys.readouterr().out
