"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test appends a PASS/FAIL line to the terminal summary (and prints it,
for ``pytest -s``).  The exact criteria compare Fractions, so a failure here
is a genuine counterexample, not float noise.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import mpmath as mp
import pytest

import sumtails as st
from conftest import ACCEPTANCE_LINES

mp.mp.dps = 40

SEED = 1
Z_GRID = tuple(F(i, 4) for i in range(33))  # 0, 0.25, ..., 8
W_GRID = (F(1, 4), F(1, 2), F(1))
Y_GRID = (F(1, 4), F(1, 2), F(1))  # plus z/(1 + p/2) with p = 2, added per z


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        line = f"criterion {number} [{description}]: FAIL"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    else:
        line = f"criterion {number} [{description}]: PASS"
        ACCEPTANCE_LINES.append(line)
        print(line)


@pytest.fixture(scope="module")
def corpus():
    return st.gen_corpus(st.CorpusSpec(seed=SEED, count=200))


def test_criterion_1_exact_tail_difference_suite(corpus):
    with criterion(1, "exact 0 <= Delta <= min(P1,P2,P3) over the corpus"):
        start = time.perf_counter()
        result = st.verify_corpus(
            corpus,
            z_grid=Z_GRID,
            w_grid=W_GRID,
            y_grid=Y_GRID,
            modes=("winsorize", "truncate"),
            p=2,
        )
        elapsed = time.perf_counter() - start
        assert len(corpus) >= 200
        assert result.violations == []
        assert result.skipped == 0
        # (mode, z, w, y) cells with distinct y: the scaled y = z/2 is already
        # on the y grid at z = 1/2, 1 and 2, so 3 of the 33 z have 3 y values
        assert result.cells == 200 * 2 * 3 * (33 * 4 - 3) == 154_800
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_young_inequality():
    with criterion(2, "Young-type inequality and closed forms"):
        violations, gap = st.young_grid_scan()
        assert violations == []
        assert gap < 1e-6
        assert abs(st.young_delta(8 / 9, 32 / 27).delta) <= 1e-14
        assert st.young_delta(0.9, 1.215).delta == pytest.approx(-0.0075, abs=1e-9)


def test_criterion_3_pointwise_lemmas():
    with criterion(3, "pointwise lemma scans, 27-cell parameter grid"):
        grid = st.LemmaGrid(
            x_min=-10.0,
            x_max=10.0,
            x_step=1e-3,
            v_values=(0.5, 1.0, 2.0),
            w_values=(0.5, 1.0, 2.0),
            d_over_v=(1 / 16, 1 / 8, 1 / 4),
            tol=-1e-12,
        )
        assert st.check_pointwise_lemmas(grid) == []


def test_criterion_4_mean_abs_bound_and_sharpness(corpus):
    with criterion(4, "mean-absolute bound and extremal sharpness"):
        for v in (1.0, 2.0):
            report = st.mean_abs_sharpness(corpus, v=v)
            assert report.violations == ()
        # v = 2 keeps every unit-variance system inside the regime
        assert st.mean_abs_sharpness(corpus, v=2.0).n_checked > 0

        for m in (1, 10**2, 10**4, 10**8):
            rep = st.extremal_report(m + 1)
            closed = (1.0 + m ** (-0.25)) ** (-1.0 / 3.0)
            assert abs(rep.ratio - closed) < 1e-12
        assert st.extremal_report(10**8 + 1).ratio > 0.99
        # materialized cross-check at moderate sizes
        for n in (2, 101):
            system, rep = st.extremal_system(n)
            assert float(st.beta_v(system, 1.0)) == pytest.approx(rep.beta, rel=1e-12)


def test_criterion_5_bennett_hoeffding_domination(corpus):
    with criterion(5, "Q* dominated by the exponential bound"):
        checked = 0
        for system in corpus:
            oracle = st.SystemOracle(system)
            for z in Z_GRID:
                for y in Y_GRID + (z / 2,):
                    if not z > y > 0:
                        continue
                    checked += 1
                    assert float(oracle.qstar(z, y)) <= st.bh_bound(z, y) + 1e-12
        assert checked > 10_000


def test_criterion_6_gaussian_numerics():
    with criterion(6, "normal CDF, Mills ratio, Stein continuity"):
        for i in range(-320, 321):
            s = i / 40
            assert abs(st.norm_cdf(s) + st.norm_cdf(-s) - 1.0) <= 1e-14
        for i in range(0, 1601):
            s = i / 40
            ref = mp.ncdf(-mp.mpf(s)) / mp.npdf(mp.mpf(s))
            assert abs(mp.mpf(st.mills(s)) - ref) / ref < 1e-10
        for z in (0.0, 1.0, 3.0):
            left = st.stein_f(z, z)
            right = st.stein_f(z, math.nextafter(z, math.inf))
            assert abs(left - right) <= 1e-13 * left


def test_criterion_7_bikelis_consistency(corpus):
    with criterion(7, "z-damped moment sum: exact beta at z=0, monotone"):
        for system in corpus:
            assert st.bikelis_sum(system, 0, 1) == st.beta_v(system, 1)
        for system in corpus[:20]:
            vals = [st.bikelis_sum(system, z, 1) for z in Z_GRID]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_criterion_8_calibration_determinism(corpus):
    with criterion(8, "calibration: finite, bit-stable, grid-monotone"):
        params = st.BoundParams(v=1, w=1, lam=0.5)
        first = st.calibrate(corpus, "theorem", params=params, mode="winsorize")
        second = st.calibrate(corpus, "theorem", params=params, mode="winsorize")
        assert math.isfinite(first.a_min)
        assert first.a_min == second.a_min
        assert first.witness == second.witness
        coarse = st.calibrate(
            corpus, "theorem", params=params, z_grid=[F(i, 2) for i in range(17)]
        )
        assert first.a_min >= coarse.a_min  # the coarse grid is a subset


def test_criterion_9_monte_carlo_cross_check(corpus):
    with criterion(9, "Monte Carlo coverage and negative control"):
        start = time.perf_counter()
        z_grid = [float(z) for z in Z_GRID]
        inside = total = 0
        for i, system in enumerate(corpus[:5]):
            oracle = st.SystemOracle(system)
            law = oracle.law_sum()
            exact = {z: float(law.tail(z)) for z in z_grid}
            spec = st.SamplerSpec(family="discrete-system", system=system)
            for est in st.mc_tails(spec, z_grid, 1_000_000, seed=SEED + i):
                total += 1
                inside += est.ci_lo <= exact[est.z] <= est.ci_hi
        assert total == 5 * len(z_grid)
        assert inside / total >= 0.95

        spec = st.SamplerSpec(family="discrete-system", system=corpus[0])
        corrupted = st.mc_check_bounds(
            spec,
            st.BoundParams(w=F(1, 4)),
            z_grid[:9],
            200_000,
            seed=SEED,
            bound_scale=0.01,
        )
        assert corrupted.n_flags > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"MC cross-check took {elapsed:.1f}s"
