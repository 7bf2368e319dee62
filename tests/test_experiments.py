import csv

import numpy as np
import pytest

from nlgp.experiments import (
    FIGURE_REGIMES,
    fit_growth_rate,
    run_aes_sweep,
    run_figure_regime,
    stability_map,
)


def test_figure_regime_table_is_complete():
    assert set(FIGURE_REGIMES) == {"1a", "1b", "2a", "2b"}
    assert FIGURE_REGIMES["1a"] == {"B": 0.01, "V0": -2.46, "eps": 0.0,
                                    "nu": 0.01}
    assert FIGURE_REGIMES["2b"]["nu"] == 0.1


def test_fit_growth_rate_recovers_exponential():
    t = np.linspace(0, 10, 41)
    sigma = 0.42
    dev = 1e-3 * np.exp(sigma * t)
    fitted = fit_growth_rate(t, dev, nu=1e-3, phi_sup=1.0)
    assert fitted == pytest.approx(sigma, rel=1e-6)


def test_fit_growth_rate_needs_enough_window_points():
    t = np.array([0.0, 1.0, 2.0])
    dev = np.array([1e-5, 1.1e-5, 0.9e-5])  # never leaves the noise floor
    assert fit_growth_rate(t, dev, nu=1e-2, phi_sup=1.0) is None


def test_aes_sweep_small_case(tmp_path):
    table = run_aes_sweep((0.2, 0.1), horizon=0.5, num_modes=32,
                          rtol=1e-8, atol=1e-8, record_every=0.25,
                          out_dir=tmp_path)
    assert [r.epsilon for r in table.rows] == [0.2, 0.1]
    assert table.strictly_decreasing()
    orders = table.orders()
    assert len(orders) == 1 and orders[0] > 0.8
    for r in table.rows:
        assert r.err_h1 >= r.err_linf * 0.1  # sanity: both norms populated
    with open(tmp_path / "aes.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["epsilon"]) == 0.2
    assert (tmp_path / "plot_aes.py").exists()
    compile((tmp_path / "plot_aes.py").read_text(), "plot_aes.py", "exec")


def test_aes_sweep_epsilon_zero_row_is_exact():
    table = run_aes_sweep((0.0,), horizon=0.3, num_modes=32,
                          rtol=1e-9, atol=1e-9, record_every=0.3)
    # the delta-limit kernel runs the same dynamics as the local reference
    assert table.rows[0].err_linf == 0.0


def test_aes_sweep_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        run_aes_sweep((-0.1, 0.2), horizon=0.2, num_modes=32)


def test_figure_regime_small_run(tmp_path):
    result = run_figure_regime("2a", horizon=1.0, num_modes=64, n_periods=2,
                               truncation=16, rtol=1e-8, atol=1e-8,
                               record_every=0.5, out_dir=tmp_path)
    assert result.regime == "2a"
    assert result.params.B == 1.0
    assert result.abscissa < 1e-8
    assert len(result.reports) == 2
    assert result.deviations.shape == (len(result.trajectory.times),)
    assert np.max(result.deviations) < 0.1
    for fname in ("trajectory.csv", "summary.csv", "spectrum.csv",
                  "report.json", "plot_regime.py"):
        assert (tmp_path / fname).exists(), fname
    compile((tmp_path / "plot_regime.py").read_text(), "plot_regime.py", "exec")


def test_figure_regime_unstable_has_growth(tmp_path):
    result = run_figure_regime("1a", horizon=8.0, num_modes=64, n_periods=2,
                               truncation=24, rtol=1e-8, atol=1e-8,
                               record_every=0.25)
    assert result.abscissa > 1e-3
    assert np.max(result.deviations) > 3 * result.nu
    if result.growth_rate is not None:
        assert result.growth_rate > 0
    assert result.warnings == ()


def test_figure_regime_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_figure_regime("3c")


def test_figure_regime_seed_reproducibility(tmp_path):
    kwargs = dict(horizon=0.5, num_modes=64, n_periods=1, truncation=16,
                  rtol=1e-8, atol=1e-8, record_every=0.5)
    a = run_figure_regime("1b", seed=77, **kwargs)
    b = run_figure_regime("1b", seed=77, **kwargs)
    c = run_figure_regime("1b", seed=78, **kwargs)
    assert np.array_equal(a.trajectory.samples[-1], b.trajectory.samples[-1])
    assert not np.array_equal(a.trajectory.samples[-1], c.trajectory.samples[-1])


def test_stability_map_grid_and_csv(tmp_path):
    result = stability_map([0.5, 2.0], [-1.0, -0.1], truncation=16,
                           n_periods=1, out_dir=tmp_path)
    assert result.abscissa.shape == (2, 2)
    # A = 1 at V0 = -1: B = 0.5 lies below B* = 1 and is unstable there
    assert result.abscissa[0, 0] > 1e-2
    assert result.abscissa[1, 0] < 1e-8  # B = 2 > B*
    assert result.b_star == pytest.approx(1.0, rel=1e-10)
    with open(tmp_path / "stability_map.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    by_key = {(float(r["B"]), float(r["V0"])): r for r in rows}
    assert by_key[(2.0, -1.0)]["above_b_star"] == "1"
    assert by_key[(0.5, -1.0)]["above_b_star"] == "0"
    assert all(r["above_a_crit"] == "0" for r in rows)


def test_stability_map_marks_invalid_points_nan():
    # V0 > 0 with alpha = +1 forces A < 0 and B below the offset floor
    result = stability_map([0.1], [0.5, -0.5], truncation=16, n_periods=1)
    assert np.isnan(result.abscissa[0, list(result.V0_values).index(0.5)])
    assert np.isfinite(result.abscissa[0, list(result.V0_values).index(-0.5)])


def test_stability_map_rejects_empty_axes():
    with pytest.raises(ValueError):
        stability_map([], [-1.0])
