"""Two-lane training and evaluation: the lane rule, when lane 1 runs in a
forked process, that the lanes run OpenBLAS on one thread whatever the
environment says, and that forked and in-process runs give the same
numbers, errors, divergence and process clean-up.

Scenarios run in fresh processes (``tests.lane_runs``) started with every
BLAS thread variable removed, so that they exercise the default start; one
scenario also starts with ``OPENBLAS_NUM_THREADS=1`` and compares. The
in-process runs of the same scenarios pin themselves to one CPU.
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

from wavepool import lanes, training
from wavepool.errors import NumericError
from wavepool.model import CrossScaleModel

from .test_training import toy_model_config, toy_splits

ROOT = Path(__file__).resolve().parents[1]

# the variables OpenBLAS reads its thread count from at load
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

WORKER_POSSIBLE = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                   and len(os.sched_getaffinity(0)) >= 2 and bool(lanes._blas_control()))
needs_worker = pytest.mark.skipif(
    not WORKER_POSSIBLE, reason="needs os.fork, two CPUs and OpenBLAS thread control")

# "2": a worker where the host allows one; "1": pinned to one CPU, in-process
CPUS = [pytest.param("2", marks=needs_worker, id="worker"), pytest.param("1", id="in-process")]


def lane_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def scenario(*args, env: dict | None = None) -> dict:
    proc = subprocess.run([sys.executable, "-m", "tests.lane_runs", *args], cwd=ROOT,
                          env={**lane_env(), **(env or {})}, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["plan"][0] == (args[-1] == "2"), result["plan"]
    assert result["children_left"] is False
    return result


def test_lane_rule_balances_squared_sizes_largest_first():
    # 9 and 9 split, then 5 joins the tied lane 0 and 3 the lighter lane 1
    assert lanes.lanes([5, 9, 9, 3]) == ([0, 1], [2, 3])
    assert lanes.lanes([10, 1, 1, 1, 1]) == ([0], [1, 2, 3, 4])
    assert lanes.lanes([4, 4]) == ([0], [1])
    assert lanes.lanes([7]) == ([0], [])
    assert lanes.lanes([]) == ([], [])


@pytest.fixture
def two_cpus_and_openblas(monkeypatch):
    monkeypatch.setattr(lanes, "_blas_control", lambda: ((lambda: 1, lambda count: None),))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return monkeypatch


def test_worker_needs_two_cpus_a_known_blas_one_thread_and_a_batch_of_two(two_cpus_and_openblas):
    mp = two_cpus_and_openblas
    assert lanes.worker_plan(2) == (
        True, "2 CPUs, one OpenBLAS thread per lane, 2 graphs at a time")
    assert lanes.worker_plan(1) == (False, "1 graph cannot fill two lanes")
    assert lanes.worker_plan(0) == (False, "0 graphs cannot fill two lanes")
    mp.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert lanes.worker_plan(16) == (False, "only 1 CPU is available")
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    waiting = threading.Event()
    thread = threading.Thread(target=waiting.wait)
    thread.start()
    try:
        assert lanes.worker_plan(16) == (False, "2 Python threads are running")
    finally:
        waiting.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_without_openblas_thread_control_lane_1_stays_in_process(two_cpus_and_openblas):
    two_cpus_and_openblas.setattr(lanes, "_blas_control", lambda: ())
    assert lanes.worker_plan(16) == (False, "no OpenBLAS thread control found")
    with lanes._one_blas_thread():  # nothing to set, nothing to restore
        pass


def test_worker_possible_keys_on_the_openblas_lookup():
    """The skip marker says what ``worker_plan`` decides in this process,
    where no other Python thread runs: both rest on ``_blas_control``."""
    assert WORKER_POSSIBLE is lanes.worker_plan(2)[0]


@pytest.mark.skipif(not lanes._blas_control(), reason="needs OpenBLAS thread control")
def test_the_lanes_run_one_blas_thread_and_restore_the_callers_count(monkeypatch):
    """``evaluate_accuracy`` and ``train`` run their forward passes on one
    OpenBLAS thread and give back a count of 2, set through the library,
    when they return and when they raise."""
    get_count, set_count = lanes._blas_control()[0]
    original, seen, fail = get_count(), [], False
    forward = CrossScaleModel.forward

    def reading(self, graph):
        seen.append(get_count())
        if fail:
            raise NumericError("boom")
        return forward(self, graph)

    monkeypatch.setattr(CrossScaleModel, "forward", reading)
    monkeypatch.setattr(lanes, "worker_plan", lambda count: (False, "in-process here"))
    train_set, val_set, _ = toy_splits()
    model = CrossScaleModel(toy_model_config(), seed=0)
    set_count(2)
    try:
        training.evaluate_accuracy(model, val_set)
        assert get_count() == 2
        fail = True
        with pytest.raises(NumericError, match="boom"):
            training.train(model, train_set, val_set, training.TrainConfig(epochs=1))
        assert get_count() == 2
    finally:
        set_count(original)
    assert len(seen) == len(val_set.graphs) + 1 and set(seen) == {1}


@needs_worker
def test_worker_and_in_process_runs_are_byte_identical():
    """Report CSVs, best epochs, best states, final parameters and every
    step's gradient norm, bit for bit, for a GCN and a wavelet variant,
    whose validation passes send lane 1 to the training worker."""
    worker, in_process = scenario("train", "2"), scenario("train", "1")
    assert worker["runs"] == in_process["runs"]
    for run in worker["runs"].values():
        assert len(run["norms"]) == 3 * 3  # 3 epochs of three batches (19 graphs)
    assert worker["validation"] == ["in the model's lane worker"] * 6
    assert in_process["validation"] == ["in-process"] * 6


@needs_worker
def test_unpinned_and_pinned_starts_fork_and_agree_bit_for_bit():
    """A start with no thread variable and one with OPENBLAS_NUM_THREADS=1
    both fork lane 1 and give the same CSVs, best states, final parameters
    and step norms, on a corpus whose largest graphs would round differently
    on two BLAS threads."""
    unpinned = scenario("agree", "2")
    pinned = scenario("agree", "2", env={"OPENBLAS_NUM_THREADS": "1"})
    assert unpinned["largest"] >= 150
    assert unpinned["validation"] == pinned["validation"] == ["in the model's lane worker"] * 6
    assert unpinned["runs"] == pinned["runs"]


@needs_worker
def test_a_thread_variable_set_after_numpy_loads_leaves_each_lane_one_thread():
    """OpenBLAS read its thread count when NumPy loaded, so a variable set
    later changes nothing; the lanes set one thread themselves, in lane 0
    here and in lane 1's worker, and ``train`` restores the count after."""
    result = scenario("late-pin", "2")
    assert result["lanes"] == [1, 1]
    assert result["before"] == result["after"] > 1


@pytest.mark.parametrize("cpus", CPUS)
def test_evaluation_lanes_count_every_hit(cpus):
    """All four variants, on graphs of 1 to 30 nodes: the accuracy is the
    hits of one graph at a time over the corpus, lane 1's included."""
    result = scenario("evaluate", cpus)
    where = "in the model's lane worker" if cpus == "2" else "in-process"
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
    model's worker forks. The second pass reuses that worker, so it runs no
    operand build and builds nothing."""
    result = scenario("rebuild", cpus)
    graphs, lane_1 = result["graphs"], result["lane_1"]
    if cpus == "2":
        assert result["builds"] == [[graphs - lane_1, lane_1], [0, 0]]
        assert result["build_forks"] == [1]
    else:  # no pass forks, so the forward passes build the operands here
        assert result["builds"] == [[graphs, 0], [0, 0]]
        assert result["build_forks"] == []


@pytest.mark.parametrize("cpus", CPUS)
def test_operand_builds_match_an_in_process_build_and_raise_lane_0_first(cpus):
    """All four variants: every wavelet operand and logit equals an in-process
    build bit for bit and is read-only; only wavelet variants build lane 1
    elsewhere. Every DCT matrix is built in this process, by the build, and
    no forward pass after it builds one. A lane-1 error arrives with its
    type, message and the builder's traceback; lane 0's wins when both lanes
    fail."""
    result = scenario("build", cpus)
    lane_1 = result["lane_1"] if cpus == "2" else 0
    for variant, run in result["variants"].items():
        assert run["equal"] is True and run["read_only"] is True, variant
        assert run["forked_builds"] == (lane_1 if variant.startswith("wavelet") else 0)
        here, forked = run["dcts"]
        assert (here > 0) is variant.endswith("spectral") and forked == 0, variant
        assert run["forward_dcts"] == 0, variant
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


@pytest.mark.parametrize("cpus", CPUS)
def test_lane_1_runs_its_jobs_handler_wherever_it_runs(cpus):
    """An operand build, each of an epoch's three batches and its validation
    pass hand lane 1 to the handler of their kind: in this process without
    a worker, else in the builder or the model's worker. With a worker,
    ``train``'s own build has nothing left to build and runs no job."""
    result = scenario("handlers", cpus)
    counts = {kind: result[kind] for kind in ("build", "train", "predict")}
    if cpus == "2":
        assert counts == {"build": [0, 1], "train": [0, 3], "predict": [0, 1]}
    else:
        assert counts == {"build": [1, 0], "train": [3, 0], "predict": [1, 0]}


@needs_worker
def test_a_lane_0_error_retires_the_worker_and_the_next_call_forks_one():
    """Any error from a job retires the model's worker, lane 0's too; the
    next pass forks exactly one worker and gives the accuracy it gave
    before the error."""
    result = scenario("retire", "2")
    assert result["error"] == ["NumericError", "boom in lane 0"]
    assert result["reaped"] is True and result["forks"] == 1 and result["same"] is True


@needs_worker
def test_a_worker_that_dies_reaches_the_caller_and_is_reaped():
    """Lane 1's forward pass ends the worker of ``train`` and the process an
    evaluation pass forked; each caller gets a ChildProcessError, and
    ``scenario`` checks that no child is left."""
    died = ["ChildProcessError", "the lane worker exited unexpectedly"]
    assert scenario("die", "2")["errors"] == {"train": died, "evaluate": died}


@needs_worker
def test_a_worker_that_dies_mid_reply_reaches_the_caller_and_is_reaped():
    """Lane 1's worker dies partway through its reply to an operand build, a
    training batch and an evaluation pass; each caller gets a
    ChildProcessError, and ``scenario`` checks that no child is left."""
    died = ["ChildProcessError", "the lane worker exited unexpectedly"]
    assert scenario("cut", "2")["errors"] == {"build": died, "train": died, "evaluate": died}


@pytest.mark.parametrize("cpus", CPUS)
def test_train_leaves_its_lanes_to_reference_counting(cpus):
    """With the garbage collector off, the model's lane worker and its
    shared mapping outlive ``train`` and are freed, the worker reaped, once
    the model is dropped; in-process lanes are freed once ``train`` returns.
    No reference cycle holds them."""
    result = scenario("collect", cpus)
    assert result["held"] == ([True, True] if cpus == "2" else [False])
    assert result["alive"] == [False] * len(result["held"])


@needs_worker
def test_dropping_a_model_reaps_its_worker_while_another_serves():
    """Two models' workers live; with the garbage collector off, dropping
    the first reaps its worker at once, although the second worker was
    forked while the first lived, and the second model's worker serves its
    next pass without a fork."""
    result = scenario("drop", "2")
    assert result["workers"] == 2
    assert result["reaped"] == [True, False] and result["left"] is True
    assert result["same"] is True and result["forks"] == 0


@needs_worker
def test_a_worker_killed_between_calls_fails_the_next_call_and_is_replaced():
    """A SIGKILL to a worker idle between calls fails the next call with a
    ChildProcessError; the call after that forks one worker afresh and gives
    the same numbers, bit for bit, as a model whose worker lived on."""
    result = scenario("idle-kill", "2")
    assert result["errors"] == [["ChildProcessError", "the lane worker exited unexpectedly"]]
    assert result["same"] is True and result["forks"] == [1, 0]


@pytest.mark.parametrize("cpus", CPUS)
def test_a_benchmark_loop_forks_nothing_after_set_up(cpus):
    """After each model's warm pass over the corpus, training on its splits
    and evaluating its test split and the corpus reuse its worker: no
    process forks, and the numbers equal in-process lanes'."""
    result = scenario("bench-loop", cpus)
    assert result["forks"] == 0
    if cpus == "2":
        assert result["results"] == scenario("bench-loop", "1")["results"]


@needs_worker
def test_a_worker_killed_while_idle_reaches_the_caller_and_is_reaped():
    """A SIGKILL to the idle training worker, between two batches or before
    a validation pass, fails the next request: each caller gets a
    ChildProcessError, and ``scenario`` checks that no child is left."""
    died = ["ChildProcessError", "the lane worker exited unexpectedly"]
    assert scenario("kill", "2")["errors"] == {"batch": died, "validation": died}


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_a_failed_fork_closes_its_pipes(monkeypatch):
    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(lanes, "worker_plan", lambda count: (True, "forced"))
    monkeypatch.setattr(os, "fork", failing_fork, raising=False)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        lanes.Lanes(2, {}).fork()
    assert len(os.listdir("/proc/self/fd")) == before


def _state(pid: int) -> str:
    """The process's state letter, "X" once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return "X"
    return stat.rsplit(")", 1)[1].split()[0]


def _wait_for(pid: int, states: str) -> tuple[str, float]:
    """The process's state once it is one of ``states`` or 30 s have passed,
    and the seconds waited."""
    start = time.monotonic()
    deadline = start + 30
    while _state(pid) not in states and time.monotonic() < deadline:
        time.sleep(0.05)
    return _state(pid), time.monotonic() - start


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
        state, waited = _wait_for(worker, "S")
        assert state == "S", (  # idle, reading its pipe
            f"before the kill: worker {worker} read state {state!r} after {waited:.2f} s")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        state, waited = _wait_for(worker, "ZX")
        assert state in "ZX", (
            f"after the kill: worker {worker} read state {state!r} after {waited:.2f} s")
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
