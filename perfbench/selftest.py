"""Self-tests of the benchmark harness, at smoke problem sizes.

    python3 -m pytest -q perfbench/selftest.py

They check that every workload runs and passes its checks, that corrupted
outputs are counted as failed operations, that traced runs repeat their
counts exactly, and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

SCRATCH = run.WORK / "selftest"


def bench(workload, seed=1, trace=0, cwd=run.ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def scratch():
    path = SCRATCH / f"{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_checks(name):
    result = last_json(bench(name))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[name](1, smoke=True).ops
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def smoke_outputs(job, scratch):
    runner = run.Run(job, scratch, time.monotonic() + 120)
    out = scratch / "out"
    result = runner.launch(job.argv_for(out, runner.config_path))
    assert result is not None
    assert job.check(out, result["exit_code"]).failed == 0
    return out, result["exit_code"]


def test_truncated_spectrum_fails_its_mu(scratch):
    job = workloads.spectrum_algebraic(1, smoke=True)
    out, code = smoke_outputs(job, scratch)
    path = out / "spectrum.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-5]))
    outcome = job.check(out, code)
    assert outcome.attempted == job.ops
    assert outcome.failed >= 1


def test_flipped_map_verdict_fails_one_point(scratch):
    job = workloads.map_gauss(1, smoke=True)
    out, code = smoke_outputs(job, scratch)
    path = out / "stability_map.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")  # lowest B: unstable
    fields[3] = "0.0"
    lines[1] = ",".join(fields)
    path.write_text("".join(lines))
    outcome = job.check(out, code)
    assert (outcome.attempted, outcome.failed) == (job.ops, 1)


def test_invocation_past_the_deadline_is_not_checked(scratch):
    job = workloads.aes_sweep(1, smoke=True)
    runner = run.Run(job, scratch, time.monotonic() + 0.5)
    with pytest.raises(run.Abandoned):
        runner.invoke()


def test_failure_exit_fails_every_operation(scratch):
    job = workloads.aes_sweep(1, smoke=True)
    outcome = job.check(scratch / "missing", 3)
    assert (outcome.attempted, outcome.failed) == (job.ops, job.ops)


@pytest.mark.parametrize("name", ["figure-1a", "spectrum-algebraic"])
def test_traced_counts_repeat(name):
    first, second = (last_json(bench(name, trace=1)) for _ in range(2))
    assert set(first["metrics"]) == set(LAYER_UNITS)
    for key in ("evolution.rhs_evals", "kernels.quad_calls", "bloch.spectra"):
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
    assert first["metrics"]["bloch.spectra"]["value"] == 4
    assert first["metrics"]["trace.overhead_s"]["value"] > 0


def test_refuses_to_run_without_the_program(scratch):
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    proc = bench("aes-sweep", cwd=scratch, script=scratch / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
