"""Benchmark of the nlgp toolkit, run through its command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` tree.  Each CLI invocation runs in a fresh Python process with BLAS
pinned to one thread and ``--threads 1``.  After one untimed warm-up process
(bytecode compilation, page cache), invocations repeat while one more, at
the pace so far, would end within ``--seconds`` (there is always at least
one); every invocation's outputs are checked after it ends, outside the
timed interval.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics, each the median over the invocations
  of the run (wall_s, cpu_s, peak_rss_mb) or over their imports, topped up
  after the timed invocations by import-only processes to at least
  MIN_SETUP_SAMPLES (setup_s).
* ``--trace 1``: every invocation runs with spans recorded around each
  layer's entry points (see tracing.py); the metrics are the per-layer ones,
  each the median over the invocations.

An invocation still running ``RUN_SLACK_S`` seconds after ``--seconds`` is
killed, left unchecked and reported on standard error and in the record; it
is neither an attempted nor a failed operation.  The line before the result
records the environment and the per-invocation samples.  Workloads and their
checks are in workloads.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SETUP_SAMPLES = 7
# Time after --seconds for the last invocation to end: a run whose first
# invocation is slower than --seconds ends within --seconds + RUN_SLACK_S
# (165 s with the 45 s of BENCHMARK.json).
RUN_SLACK_S = 120.0


class Abandoned(Exception):
    """A worker process was killed at the run's deadline."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **source_identity(),
    }


class Run:
    """Launches worker processes for one workload run and checks their outputs."""

    def __init__(self, job: workloads.Job, run_dir: Path, deadline: float):
        self.job = job
        self.dir = run_dir
        self.deadline = deadline
        self.config_path = run_dir / "run.cfg"
        self.launches = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        run_dir.mkdir(parents=True, exist_ok=True)
        workloads.write_config(self.config_path, job.config)

    def launch(self, argv, trace=False) -> dict | None:
        """Run one worker process; None if it failed.

        Raises Abandoned if the run's deadline passes first.
        """
        self.launches += 1
        tag = f"p{self.launches}"
        spec = {"argv": argv, "src": str(SRC), "trace": trace,
                "run_id": f"{self.dir.name}-{tag}",
                "result": str(self.dir / f"{tag}.result.json"),
                "spans": str(self.dir.parent / f"{self.dir.name}.spans.json"),
                "b_star_samples": self.job.b_star_samples}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Abandoned
        spec_path = self.dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(self.dir / f"{tag}.log", "w") as log:
            try:
                subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                               stdout=log, stderr=log, env=self.env, cwd=ROOT,
                               timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                raise Abandoned from None  # subprocess.run killed and reaped it
        result_path = Path(spec["result"])
        return json.loads(result_path.read_text()) if result_path.is_file() else None

    def invoke(self, trace=False):
        """One CLI invocation, checked: (worker result or None, Outcome).

        Raises Abandoned, without checking, if the run's deadline passes.
        """
        out = self.dir / f"out{self.launches + 1}"
        result = self.launch(self.job.argv_for(out, self.config_path), trace=trace)
        outcome = self.job.check(out, None if result is None else result["exit_code"])
        for failure in outcome.failures:
            print(f"check failed: {self.job.workload}: {failure}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return result, outcome


def median_over(samples, key):
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small problem sizes, for the harness self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "nlgp" / "cli.py").is_file():
        print(f"no nlgp source tree at {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    job = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(job, run_dir, started + args.seconds + RUN_SLACK_S)
    load_start = os.getloadavg()

    try:
        warm = run.launch(None)
    except Abandoned:
        warm = None
    if warm is None:
        print(f"warm-up import failed; see {run_dir}", file=sys.stderr)
        return 2
    samples = []
    attempted = failed = abandoned = 0
    t0 = time.monotonic()
    try:
        # start another invocation only if one more, at the mean pace so
        # far (process start and checks included), ends within --seconds
        while not samples or (time.monotonic() - t0) * (len(samples) + 1) / len(samples) \
                <= args.seconds:
            result, outcome = run.invoke(trace=bool(args.trace))
            attempted += outcome.attempted
            failed += outcome.failed
            if result is None:
                break
            samples.append(result)
        setup = [s["setup_s"] for s in samples]
        while samples and len(setup) < MIN_SETUP_SAMPLES:
            probe = run.launch(None)
            if probe is None:
                break
            setup.append(probe["setup_s"])
    except Abandoned:
        abandoned = 1
        setup = [s["setup_s"] for s in samples]
        print(f"{args.workload}: deadline of {args.seconds:g} + {RUN_SLACK_S:g} s passed; "
              "the running process was killed and left unchecked", file=sys.stderr)

    complete = bool(samples)
    if complete:
        e2e = {"wall_s": median_over(samples, "wall_s"),
               "cpu_s": median_over(samples, "cpu_s"),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": median_over(samples, "peak_rss_mb")}
        print(f"{args.workload} seed {args.seed}: fail_ratio {failed}/{attempted} = "
              f"{failed / max(attempted, 1):g}; medians "
              + ", ".join(f"{k} {v:.4g} {E2E_UNITS[k]}" for k, v in e2e.items())
              + f" (n = {len(samples)} invocations, {len(setup)} imports; "
              f"wall_s min {min(s['wall_s'] for s in samples):.4g} s, "
              f"max {max(s['wall_s'] for s in samples):.4g} s)")
        if args.trace:
            layers = {k: statistics.median(s["layers"][k] for s in samples)
                      for k in LAYER_UNITS}
            print("layers: " + ", ".join(f"{k} {v:.6g} {LAYER_UNITS[k]}"
                                         for k, v in layers.items()))
            missing = sorted({h for s in samples for h in s["missing_hooks"]})
            if missing:
                print("trace: entry points not found, their metrics read 0: "
                      + ", ".join(missing), file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "config": job.config,
              "load_avg_start": load_start, "load_avg_end": os.getloadavg(),
              "environment": environment(),
              "blas_threads": sorted({s["blas_threads"] for s in samples}, key=str),
              "setup_samples": setup, "abandoned": abandoned,
              "samples": samples, "fail_ratio": failed / max(attempted, 1)}
    print(json.dumps({"record": record}))
    shutil.rmtree(run_dir, ignore_errors=True)
    if not complete:
        print(f"{args.workload}: no invocation completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
