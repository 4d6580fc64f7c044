"""Two-lane training and evaluation: the lane rule, when lane 1 runs in a
forked process, and that forked and in-process runs give the same numbers,
errors, divergence and process clean-up.

Scenarios that need a worker run in fresh processes (``tests.lane_runs``)
with OpenBLAS pinned to one thread; the in-process runs of the same
scenarios pin themselves to one CPU.
"""

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from wavepool import training

ROOT = Path(__file__).resolve().parents[1]

WORKER_POSSIBLE = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                   and len(os.sched_getaffinity(0)) >= 2
                   and "openblas" in training._blas_name().lower())
needs_worker = pytest.mark.skipif(
    not WORKER_POSSIBLE, reason="needs os.fork, two CPUs and OpenBLAS")

# "2": a worker where the host allows one; "1": pinned to one CPU, in-process
CPUS = [pytest.param("2", marks=needs_worker, id="worker"), pytest.param("1", id="in-process")]


def lane_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in training.BLAS_THREAD_VARS}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def scenario(*args) -> dict:
    proc = subprocess.run([sys.executable, "-m", "tests.lane_runs", *args], cwd=ROOT,
                          env=lane_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["plan"][0] == (args[-1] == "2"), result["plan"]
    assert result["children_left"] is False
    return result


def test_lane_rule_balances_squared_sizes_largest_first():
    # 9 and 9 split, then 5 joins the tied lane 0 and 3 the lighter lane 1
    assert training.lanes([5, 9, 9, 3]) == ([0, 1], [2, 3])
    assert training.lanes([10, 1, 1, 1, 1]) == ([0], [1, 2, 3, 4])
    assert training.lanes([4, 4]) == ([0], [1])
    assert training.lanes([7]) == ([0], [])
    assert training.lanes([]) == ([], [])


@pytest.fixture
def two_cpus_and_openblas(monkeypatch):
    for var in training.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(training, "_blas_name", lambda: "scipy-openblas")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return monkeypatch


@pytest.mark.parametrize("settings, forked, reason", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True, "OPENBLAS_NUM_THREADS=1"),
    ({"OMP_NUM_THREADS": "1"}, True, "OMP_NUM_THREADS=1"),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True, "OMP_NUM_THREADS=1"),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False, "OPENBLAS_NUM_THREADS=2"),
    ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False, "GOTO_NUM_THREADS=4"),
    ({}, False, "none of OPENBLAS_NUM_THREADS"),
])
def test_worker_needs_openblas_pinned_to_one_thread(two_cpus_and_openblas, settings, forked,
                                                    reason):
    for var, value in settings.items():
        two_cpus_and_openblas.setenv(var, value)
    assert training.worker_plan(16)[0] is forked
    assert reason in training.worker_plan(16)[1]


def test_worker_needs_two_cpus_a_known_blas_one_thread_and_a_batch_of_two(two_cpus_and_openblas):
    mp = two_cpus_and_openblas
    mp.setenv("OPENBLAS_NUM_THREADS", "1")
    assert training.worker_plan(2) == (True, "2 CPUs, OPENBLAS_NUM_THREADS=1, 2 graphs at a time")
    assert training.worker_plan(1) == (False, "1 graph cannot fill two lanes")
    assert training.worker_plan(0) == (False, "0 graphs cannot fill two lanes")
    mp.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert training.worker_plan(16) == (False, "only 1 CPU is available")
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mp.setattr(training, "_blas_name", lambda: "mkl")
    forked, reason = training.worker_plan(16)
    assert not forked and "'mkl' is not OpenBLAS" in reason
    mp.setattr(training, "_blas_name", lambda: "scipy-openblas")
    waiting = threading.Event()
    thread = threading.Thread(target=waiting.wait)
    thread.start()
    try:
        assert training.worker_plan(16) == (False, "2 Python threads are running")
    finally:
        waiting.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


@needs_worker
def test_worker_and_in_process_runs_are_byte_identical():
    """Report CSVs, best epochs, best states, final parameters and every
    step's gradient norm, bit for bit, for a GCN and a wavelet variant,
    whose validation passes send lane 1 to the training worker."""
    worker, in_process = scenario("train", "2"), scenario("train", "1")
    assert worker["runs"] == in_process["runs"]
    for run in worker["runs"].values():
        assert len(run["norms"]) == 3 * 3  # 3 epochs of three batches (19 graphs)
    assert worker["validation"] == ["in the training worker"] * 6
    assert in_process["validation"] == ["in-process"] * 6


@pytest.mark.parametrize("cpus", CPUS)
def test_evaluation_lanes_count_every_hit(cpus):
    """All four variants, on graphs of 1 to 30 nodes: the accuracy is the
    hits of one graph at a time over the corpus, lane 1's included."""
    result = scenario("evaluate", cpus)
    where = "in a process forked for this pass" if cpus == "2" else "in-process"
    assert result["where"] == [where] * 4
    for run in result["runs"].values():
        assert run["lane_1_hits"] > 0
        assert run["accuracy"] == run["hits"] / result["graphs"]


@needs_worker
def test_forked_and_in_process_evaluation_agree():
    assert scenario("evaluate", "2")["runs"] == scenario("evaluate", "1")["runs"]


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("lanes, raised", [("1", "boom in lane 1"), ("0", "boom in lane 0"),
                                           ("01", "boom in lane 0")])
def test_an_evaluation_lane_error_reaches_the_caller(cpus, lanes, raised):
    """The largest graph always goes to lane 0, so an oversized graph cannot
    fail in lane 1 alone; a forward pass that raises on chosen graphs can."""
    result = scenario("evaluate-error", lanes, cpus)
    assert (result["error"], result["message"]) == ("NumericError", raised)
    assert result["worker_note"] is (cpus == "2" and lanes == "1")


@pytest.mark.parametrize("cpus", CPUS)
def test_a_forked_evaluation_builds_operands_here_once(cpus):
    """The first pass builds each graph's wavelet bases once, counted per
    process: with a worker, lane 1's in a builder forked for that, before the
    pass forks its own lane 1. The second pass forks no builder and builds
    nothing."""
    result = scenario("rebuild", cpus)
    graphs, lane_1 = result["graphs"], result["lane_1"]
    if cpus == "2":
        assert result["builds"] == [[graphs - lane_1, lane_1], [0, 0]]
        assert result["build_forks"] == [1, 0]
    else:  # no pass forks, so the forward passes build the operands here
        assert result["builds"] == [[graphs, 0], [0, 0]]
        assert result["build_forks"] == []


@pytest.mark.parametrize("cpus", CPUS)
def test_operand_builds_match_an_in_process_build_and_raise_lane_0_first(cpus):
    """All four variants: every wavelet operand and logit equals an in-process
    build bit for bit and is read-only; only wavelet variants build lane 1
    elsewhere. A lane-1 error arrives with its type, message and the
    builder's traceback; lane 0's wins when both lanes fail."""
    result = scenario("build", cpus)
    lane_1 = result["lane_1"] if cpus == "2" else 0
    for variant, run in result["variants"].items():
        assert run["equal"] is True and run["read_only"] is True, variant
        assert run["forked_builds"] == (lane_1 if variant.startswith("wavelet") else 0)
    assert result["errors"] == {
        "1": {"error": "NumericError", "message": "boom in lane 1", "worker_note": cpus == "2"},
        "0": {"error": "NumericError", "message": "boom in lane 0", "worker_note": False},
        "01": {"error": "NumericError", "message": "boom in lane 0", "worker_note": False},
    }


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("lanes, raised", [("1", "boom in lane 1"), ("0", "boom in lane 0"),
                                           ("01", "boom in lane 0")])
def test_a_lane_error_reaches_the_caller_lane_0_first(cpus, lanes, raised):
    result = scenario("error", lanes, cpus)
    assert (result["error"], result["message"]) == ("NumericError", raised)


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("lane", ["0", "1"])
def test_a_nonfinite_loss_in_either_lane_diverges_without_a_step(cpus, lane):
    result = scenario("diverge", lane, cpus)
    assert result["diverged"] is True and result["epochs"] == 0
    assert result["steps"] == 0 and result["unchanged"] is True


@pytest.mark.parametrize("cpus", CPUS)
def test_a_nonfinite_loss_in_lane_0_diverges_over_an_error_in_lane_1(cpus):
    result = scenario("diverge", "0", "1", cpus)
    assert result["diverged"] is True and result["epochs"] == 0
    assert result["steps"] == 0 and result["unchanged"] is True


@pytest.mark.parametrize("cpus", CPUS)
def test_an_error_in_lane_0_is_raised_over_a_nonfinite_loss_in_lane_1(cpus):
    result = scenario("error", "0", "1", cpus)
    assert (result["error"], result["message"]) == ("NumericError", "boom in lane 0")


@needs_worker
def test_a_worker_that_dies_reaches_the_caller_and_is_reaped():
    """Lane 1's forward pass ends the worker of ``train`` and the process an
    evaluation pass forked; each caller gets a ChildProcessError, and
    ``scenario`` checks that no child is left."""
    died = ["ChildProcessError", "the lane worker exited unexpectedly"]
    assert scenario("die", "2")["errors"] == {"train": died, "evaluate": died}


def _state(pid: int) -> str:
    """The process's state letter, "X" once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return "X"
    return stat.rsplit(")", 1)[1].split()[0]


def _wait_for(pid: int, states: str) -> str:
    deadline = time.monotonic() + 30
    while _state(pid) not in states and time.monotonic() < deadline:
        time.sleep(0.05)
    return _state(pid)


@needs_worker
def test_worker_exits_when_its_parent_is_killed():
    """Once lane 1 is done the worker waits on its pipe; a SIGKILL to the
    parent closes the pipe and the worker exits (a zombie waiting for its
    reaper counts as exited)."""
    proc = subprocess.Popen([sys.executable, "-m", "tests.lane_runs", "orphan"], cwd=ROOT,
                            env=lane_env(), stdout=subprocess.PIPE, text=True)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no worker pid within 60 s"
        worker = int(proc.stdout.readline())
        assert _wait_for(worker, "S") == "S"  # idle, reading its pipe
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert _wait_for(worker, "ZX") in "ZX"
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
