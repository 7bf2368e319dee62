"""Span tracing around the entry points each nlgp layer exposes.

Installed only in a traced run: the timing runs execute unpatched code.  The
wrappers replace module attributes, so they see every call that goes through
the module (``evolution.evolve(...)``, ``bloch.spectrum(...)``, and calls by
global name inside that module).  Spans stay in memory and are written once,
when the run ends.  Hot inner calls (one right-hand side, one FFT) are counted
rather than given spans of their own, because there are hundreds of
thousands of them.  The tracer's own cost is estimated in the same process:
the number of wrapper calls times the measured cost of one call of each
wrapper around a function that does nothing.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute) as the nlgp modules bind it
SPAN_TARGETS = {
    "cli.resolve_config": ("nlgp.cli", "resolve_config"),
    "evolution.evolve": ("nlgp.evolution", "evolve"),
    "evolution.solve_ivp": ("nlgp.evolution", "solve_ivp"),
    "bloch.full_period_spectrum": ("nlgp.bloch", "full_period_spectrum"),
    "bloch.assemble": ("nlgp.bloch", "assemble"),
    "bloch.spectrum": ("nlgp.bloch", "spectrum"),
    "bloch.b_star": ("nlgp.bloch", "b_star"),
    # nlgp.bloch calls scipy.linalg.eig / eigvalsh through the module
    "bloch.eig": ("scipy.linalg", "eig"),
    "bloch.eigvalsh": ("scipy.linalg", "eigvalsh"),
    "kernels.quad": ("nlgp.kernels", "quad"),
    "io.write_trajectory_csv": ("nlgp.evolution", "write_trajectory_csv"),
    "io.write_summary_csv": ("nlgp.evolution", "write_summary_csv"),
    "io.write_eigen_csv": ("nlgp.bloch", "write_eigen_csv"),
    "io.write_aes_csv": ("nlgp.experiments", "_write_aes_csv"),
    "io.write_map_csv": ("nlgp.experiments", "_write_map_csv"),
    "io.write_regime_json": ("nlgp.experiments", "_write_regime_json"),
}
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")

# metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "evolution.rhs_evals": "count",
    "evolution.evolve_calls": "count",
    "evolution.evolve_s": "s",
    "evolution.us_per_rhs": "us",
    "evolution.sim_t_per_s": "t/s",
    "evolution.ffts_per_rhs": "count",
    "bloch.spectra": "count",
    "bloch.assemble_ms": "ms",
    "bloch.eig_ms": "ms",
    "bloch.eigvalsh_ms": "ms",
    "bloch.spectrum_ms": "ms",
    "bloch.krein_ms": "ms",
    "bloch.b_star_s": "s",
    "kernels.quad_calls": "count",
    "kernels.quad_s": "s",
    "kernels.quad_distinct_ratio": "ratio",
    "io.write_s": "s",
    "io.bytes": "bytes",
    "cli.config_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder for one single-threaded run.

    A span is (name, start, end, parent index); the run id is stored once and
    attached to every span when they are written.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.quad_args = set()
        self.missing = []
        self._restore = []
        self._in_rhs = False

    # -- installation -----------------------------------------------------

    def install(self):
        import importlib

        import numpy.fft

        for name, (module, attr) in SPAN_TARGETS.items():
            owner = importlib.import_module(module)
            if not hasattr(owner, attr):
                self.missing.append(f"{module}.{attr}")
                continue
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for attr in FFT_NAMES:
            self._patch(numpy.fft, attr, self._fft_wrapper(getattr(numpy.fft, attr)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        before = {"evolution.solve_ivp": self._wrap_rhs,
                  "kernels.quad": self._note_quad_args}.get(name)
        after = self._count_bytes if name.startswith("io.") else {
            "evolution.solve_ivp": self._count_nfev,
            "evolution.evolve": self._count_sim_time}.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _fft_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["ffts"] += 1
            if self._in_rhs:
                self.counts["rhs_ffts"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_rhs(self, args, kwargs):
        fun = args[0]

        def timed_rhs(t, y):
            self._in_rhs = True
            start = perf_counter()
            try:
                return fun(t, y)
            finally:
                self.counts["rhs_s"] += perf_counter() - start
                self.counts["rhs_calls"] += 1
                self._in_rhs = False

        return (timed_rhs,) + tuple(args[1:]), kwargs

    def _note_quad_args(self, args, kwargs):
        # the integrand is the same object for every call on one kernel
        self.quad_args.add((id(args[0]), args[1:], tuple(sorted(kwargs.items()))))
        return args, kwargs

    def _count_nfev(self, args, result):
        self.counts["nfev"] += int(result.nfev)

    def _count_sim_time(self, args, result):
        self.counts["sim_t"] += float(result.times[-1] - result.times[0])

    def _count_bytes(self, args, result):
        self.counts["io_bytes"] += os.path.getsize(args[1])

    # -- results ----------------------------------------------------------

    def durations(self, name) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self, name) -> list:
        """Span duration minus the time its direct children cover."""
        child_time = Counter()
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (n, start, end, _) in enumerate(self.spans) if n == name]

    def layer_metrics(self) -> dict:
        """Every per-layer metric of this run."""
        ms = lambda xs: 1e3 * statistics.median(xs) if xs else 0.0
        ratio = lambda a, b: a / b if b else 0.0
        evolve = self.durations("evolution.evolve")
        evolve_s = sum(evolve)
        nfev = self.counts["nfev"]
        quad = self.durations("kernels.quad")
        io_s = sum(end - start for n, start, end, _ in self.spans if n.startswith("io."))
        return {
            "evolution.rhs_evals": nfev,
            "evolution.evolve_calls": len(evolve),
            "evolution.evolve_s": evolve_s,
            "evolution.us_per_rhs": 1e6 * ratio(self.counts["rhs_s"],
                                                self.counts["rhs_calls"]),
            "evolution.sim_t_per_s": ratio(self.counts["sim_t"], evolve_s),
            "evolution.ffts_per_rhs": ratio(self.counts["rhs_ffts"],
                                            self.counts["rhs_calls"]),
            "bloch.spectra": len(self.durations("bloch.spectrum")),
            "bloch.assemble_ms": ms(self.durations("bloch.assemble")),
            "bloch.eig_ms": ms(self.durations("bloch.eig")),
            "bloch.eigvalsh_ms": ms(self.durations("bloch.eigvalsh")),
            "bloch.spectrum_ms": ms(self.durations("bloch.spectrum")),
            "bloch.krein_ms": ms(self.self_times("bloch.spectrum")),
            "bloch.b_star_s": sum(self.durations("bloch.b_star")),
            "kernels.quad_calls": len(quad),
            "kernels.quad_s": sum(quad),
            "kernels.quad_distinct_ratio": ratio(len(self.quad_args), len(quad)),
            "io.write_s": io_s,
            "io.bytes": self.counts["io_bytes"],
            "cli.config_s": sum(self.durations("cli.resolve_config")),
            "trace.overhead_s": self.overhead_s(),
        }

    def overhead_s(self, reps: int = 20000) -> float:
        """Estimated time the wrappers added to the traced run.

        Each wrapper kind is timed around a function that does nothing, in a
        scratch tracer, and its cost per call (minus that of the bare call)
        is multiplied by the number of calls it made in this run.
        """
        probe = Tracer("calibration")
        noop = lambda *args, **kwargs: None

        def per_call(fn, *args):
            start = perf_counter()
            for _ in range(reps):
                fn(*args)
            return (perf_counter() - start) / reps

        bare = per_call(noop, 0.0, None)
        quad = probe._span_wrapper("kernels.quad", noop)
        span = probe._span_wrapper("calibration", noop)
        (rhs,), _ = probe._wrap_rhs((noop,), {})
        probe._in_rhs = True
        fft = probe._fft_wrapper(noop)
        quad_calls = len(self.durations("kernels.quad"))
        cost = {
            "span": (len(self.spans) - quad_calls, per_call(span, 0.0, None)),
            "quad": (quad_calls, per_call(quad, noop, 0.0, None)),
            "rhs": (self.counts["rhs_calls"], per_call(rhs, 0.0, None)),
            "fft": (self.counts["ffts"], per_call(fft, 0.0, None)),
        }
        return sum(n * max(0.0, each - bare) for n, each in cost.values())

    def write_spans(self, path: Path):
        records = [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                    "run": self.run_id}
                   for i, (n, s, e, p) in enumerate(self.spans)]
        Path(path).write_text(json.dumps({"run": self.run_id, "spans": records,
                                          "counts": dict(self.counts),
                                          "missing": self.missing}))
