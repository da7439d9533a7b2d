"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest perfbench -q``.

Shows that every workload prints every metric BENCHMARK.json names, with its
unit, that each correctness check rejects a corrupted output, and that the
benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import ebhess  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_emits_every_metric(name, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert name in {w["name"] for w in spec["workloads"]}
    done = _bench("--workload", name, "--tiny", "--seconds", "0.1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_all_runs_every_workload():
    done = _bench("--workload", "all", "--tiny", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k.split(".", 1)[0] for k in result["metrics"]} == set(workloads.NAMES)


def _ready(name):
    wl = workloads.make(name, tiny=True)
    wl.setup(ebhess, workloads.DEFAULT_SEED)
    wl.prepare_checks()
    return wl


def test_matfun_check_rejects_a_perturbed_column():
    wl = _ready("matfun_rot2")
    errors = {}
    for call in wl.calls():
        out = call.run()
        err, problems = wl.check(call, out)
        assert not problems
        errors[call.key] = err
        bad = out.copy()
        bad[:, 2] *= 1.0 + 1e-4
        assert wl.check(call, bad)[1]
        bad[0, 0] = np.nan
        assert wl.check(call, bad)[1]
    assert not wl.check_pass(errors)
    f = next(iter(workloads.SCALAR))
    swapped = dict(errors)
    swapped[(f, 10)], swapped[(f, 15)] = errors[(f, 15)], errors[(f, 10)]
    assert wl.check_pass(swapped)


@pytest.mark.parametrize("name", ["shifted_paper", "shifted_restart"])
def test_shifted_check_rejects_corrupted_states(name):
    wl = _ready(name)
    call = wl.calls()[0]
    state = call.run()
    assert not wl.check(call, state)[1]

    X = state.X.copy()
    state.X[len(wl.shifts) // 2] = 0.0
    assert wl.check(call, state)[1]
    state.X = X

    state.converged[0] = False
    assert wl.check(call, state)[1]
    state.converged[0] = True

    cycles = state.restart_count
    state.restart_count = 3 if name == "shifted_paper" else 1
    assert wl.check(call, state)[1]
    state.restart_count = cycles
    assert not wl.check(call, state)[1]


def test_self_times_and_remainder_add_up():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    stats, remainder = tracing.summarize(tracer.spans, 10.0)
    assert stats["outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert stats["inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert remainder == 5.0


def test_tracer_restores_the_package():
    original = ebhess.ebh.pivot_block_solve, ebhess.FactorizedOperator.apply
    with tracing.Tracer().installed(ebhess):
        assert ebhess.ebh.pivot_block_solve is not original[0]
    assert (ebhess.ebh.pivot_block_solve, ebhess.FactorizedOperator.apply) == original


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "matfun_rot2", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
