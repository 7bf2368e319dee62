"""The plumbing of a run, which every command needs and none computes: the
two errors that set an exit code, the guard around objects built from run
settings, the output and table writers, and the published figure regimes.

Nothing here imports the rest of the package, so a command loads only the
engines it runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

# Parameter sets of the four published stability figures (k = 1, alpha = 1,
# 128 modes on [0, 8*pi], perturbations with 16 modes).
FIGURE_REGIMES = {
    "1a": {"B": 0.01, "V0": -2.46, "eps": 0.0, "nu": 0.01},
    "1b": {"B": 1.0, "V0": -0.01, "eps": 0.01, "nu": 0.01},
    "2a": {"B": 1.0, "V0": -1.0, "eps": 0.01, "nu": 0.01},
    "2b": {"B": 1.0, "V0": -1.0, "eps": 0.01, "nu": 0.1},
}

DEFAULT_SEED = 1234


class ConfigError(ValueError):
    """Invalid run settings: the command line exits 2 on it, and on no other
    error."""


class BlowUpError(RuntimeError):
    """The evolution stopped short of its horizon: the command line exits 3.
    Carries the trajectory accumulated before the failure."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@contextmanager
def from_settings():
    """Objects built from run settings: a ValueError of their input checks,
    or an OSError reading an input file, is a ConfigError.  Computations stay
    outside, so their defects are not."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def write_outputs(out_dir, writers: dict):
    """Create out_dir if needed and call each writer with its file path;
    no-op when out_dir is None."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, writer in writers.items():
        writer(out / fname)


def write_csv(path, header, blocks):
    """Write a header row, then each block of equal-length columns with one
    ``write``: every cell as its ``str`` (a float as its repr), joined by
    commas, rows ended by CR LF.  These are csv.writer's bytes for cells
    that need no quoting, which is all the tables hold."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fh.write("".join([",".join(map(str, row)) + "\r\n"
                              for row in zip(*columns)]))
