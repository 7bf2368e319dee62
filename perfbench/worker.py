"""One benchmark run process: import nlgp, run one CLI invocation, report.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``argv`` (None: import only), ``src`` (the nlgp source tree that
must be the one imported), ``trace``, ``run_id``, ``result`` and ``spans``
paths, and ``b_star_samples`` (smoke size only).  The result JSON holds
setup_s (import of nlgp.cli, numpy and scipy included), wall_s and cpu_s of
``cli.main(argv)``, its exit code, the process's peak RSS, the OpenBLAS
thread count in effect, and in a traced run the per-layer metrics.
"""

import os

# Pinned before numpy loads so that the timing is steady; one BLAS thread also
# means the known dependence of spectrum.csv on the thread count is not
# exercised here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def openblas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    start = time.perf_counter()
    from nlgp import cli
    setup_s = time.perf_counter() - start

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"imported nlgp from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if spec["argv"] is not None:
        tracer = None
        if spec.get("b_star_samples"):
            from functools import partial

            from nlgp import bloch
            bloch.b_star = partial(bloch.b_star, samples=spec["b_star_samples"])
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer(spec["run_id"])
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        exit_code = cli.main(spec["argv"])
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["missing_hooks"] = tracer.missing
            tracer.write_spans(spec["spans"])
        result.update(wall_s=wall_s, cpu_s=cpu_s, exit_code=exit_code,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      blas_threads=openblas_threads())
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
