"""Corpus generation, exact sweeps, calibration determinism, sharpness."""

import functools
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import sumtails as st
from conftest import enumerate_outcomes


class TestGenCorpus:
    def test_deterministic(self):
        spec = st.CorpusSpec(seed=7, count=25)
        assert st.gen_corpus(spec) == st.gen_corpus(spec)

    def test_different_seeds_differ(self):
        a = st.gen_corpus(st.CorpusSpec(seed=1, count=10))
        b = st.gen_corpus(st.CorpusSpec(seed=2, count=10))
        assert a != b

    def test_invariants_hold_exactly(self, small_corpus):
        for system in small_corpus:
            assert system.exact
            assert system.total_variance() == 1
            assert all(rv.mean() == 0 for rv in system.rvs)
            assert all(2 <= len(rv.values) <= 4 for rv in system.rvs)
            assert 1 <= system.n <= 4

    def test_forced_shape_single_two_point(self):
        corpus = st.gen_corpus(st.CorpusSpec(seed=1, count=1, n_max=1, atoms_max=2))
        (system,) = corpus
        assert system.n == 1
        rv = system.rvs[0]
        assert len(rv.values) == 2
        assert rv.variance() == 1

    def test_larger_run_all_valid(self):
        corpus = st.gen_corpus(st.CorpusSpec(seed=2, count=200))
        assert len(corpus) == 200
        assert all(system.total_variance() == 1 for system in corpus)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            st.CorpusSpec(seed=1, count=0)
        with pytest.raises(ValueError):
            st.CorpusSpec(seed=1, atoms_max=1)


class TestVerifySweep:
    def test_two_coins_clean(self, two_coins):
        for mode in ("winsorize", "truncate"):
            assert (
                st.verify_osipov(
                    two_coins,
                    z_grid=[F(n, 4) for n in range(-4, 9)],
                    w_grid=(F(1, 4), F(3, 10), F(1, 2)),
                    y_grid=(F(1, 4), F(1, 2), F(1)),
                    mode=mode,
                )
                == []
            )

    def test_cap_above_support_trivial(self, four_coins):
        violations = st.verify_osipov(four_coins, w_grid=(F(3),), mode="winsorize")
        assert violations == []
        oracle = st.SystemOracle(four_coins)
        assert all(oracle.delta(z, F(3), "winsorize") == 0 for z in (F(0), F(1), F(2)))

    def test_adversarial_grid_at_atom_locations(self, small_corpus):
        # z exactly on the atoms of the sum: boundary conventions must hold
        for system in small_corpus[:6]:
            law = st.convolve(system.rvs)
            z_grid = list(law.values)
            for mode in ("winsorize", "truncate"):
                assert st.verify_osipov(system, z_grid=z_grid, mode=mode) == []

    def test_corpus_clean_both_modes(self, small_corpus):
        result = st.verify_corpus(small_corpus)
        assert result.ok
        assert result.skipped == 0
        # z / 2 is on the default y grid at z = 1/2, 1 and 2
        assert result.cells == len(small_corpus) * 2 * 3 * (33 * 4 - 3)

    def test_cells_count_distinct_y(self, small_corpus):
        # z = 1: the scaled y 1/2 is on the grid; z = 3: 3/2 is added
        result = st.verify_corpus(
            small_corpus[:2], z_grid=[F(1), F(3)], w_grid=[F(1)], y_grid=[F(1, 2)]
        )
        assert result.cells == 2 * 2 * 1 * (1 + 2)

    def test_forced_cap_counts_cells(self, monkeypatch):
        # a capped-sum entry stands for |Y_z| cells and a restriction entry for |W|
        from sumtails import verify

        systems = [s for s in st.gen_corpus(st.CorpusSpec(seed=1, count=40)) if s.n == 4][:2]
        z_grid = [F(0), F(1), F(2)]
        oracle_at_cap = functools.partial(st.SystemOracle, cap=40)
        log = []
        for system in systems:
            oracle = oracle_at_cap(system)
            for mode in MODES:
                found = st.verify_osipov(system, z_grid, mode=mode, oracle=oracle, skip_log=log)
                assert found == []
        stages = [entry["stage"] for entry in log]
        assert (stages.count("restricted"), stages.count("capped-sum")) == (30, 36)

        monkeypatch.setattr(verify, "SystemOracle", oracle_at_cap)
        result = st.verify_corpus(systems, z_grid=z_grid)
        # |Y_z| is 4 at z = 0 and 3 at z = 1 and 2 (z / 2 is on the grid there)
        assert result.cells + result.skipped == 2 * 2 * 3 * (4 + 3 + 3)
        expected = 0
        for system in systems:
            oracle = oracle_at_cap(system)
            for mode, z in itertools.product(MODES, z_grid):
                ys = verify._sweep_ys(z, verify.DEFAULT_Y_GRID, 2)
                for w, y in itertools.product(verify.DEFAULT_W_GRID, ys):
                    try:
                        oracle.delta(z, w, mode)
                        oracle.q(z, y)
                    except st.ConvolutionCapError:
                        expected += 1
        assert result.skipped == expected

    def test_skipped_rows_overlap_once(self, small_corpus, monkeypatch):
        # restriction at y = 1/2 skips 3 z x 3 w cells, the capped sum at
        # (z, w) = (1, 1) skips the 3 y at z = 1, and the two share one cell
        from sumtails import verify

        class Budget(st.SystemOracle):
            def concentration(self, z, y):
                if y == F(1, 2):
                    raise st.ConvolutionCapError("restriction over budget")
                return super().concentration(z, y)

            def delta(self, z, w, mode):
                if (z, w) == (1, 1):
                    raise st.ConvolutionCapError("capped sum over budget")
                return super().delta(z, w, mode)

        monkeypatch.setattr(verify, "SystemOracle", Budget)
        z_grid = [F(0), F(1), F(2)]
        result = st.verify_corpus(small_corpus[:1], z_grid=z_grid, modes=("winsorize",))
        assert (result.cells, result.skipped) == (30 - 11, 11)

    def test_delta_matches_enumeration(self, small_corpus):
        for system in small_corpus[:6]:
            oracle = st.SystemOracle(system)
            for w in (F(1, 4), F(1)):
                capped = [st.winsorize(rv, w) for rv in system.rvs]
                for z in (F(0), F(1, 2), F(1)):
                    raw = sum(
                        (p for p, xs in enumerate_outcomes(system) if sum(xs) > z), F(0)
                    )
                    bar = sum(
                        (p for p, xs in enumerate_outcomes(capped) if sum(xs) > z), F(0)
                    )
                    assert oracle.delta(z, w, "winsorize") == raw - bar


MODES = ("winsorize", "truncate")
DEFAULT_Z = [F(i, 4) for i in range(33)]


class ScaledConcentration(st.SystemOracle):
    """Q and Q* times ``factor``: 0 gives P2 = P3 = P(max X_i > y), which Delta can exceed."""

    def __init__(self, system, factor):
        super().__init__(system)
        self.factor = factor

    def concentration(self, z, y):
        q, qstar = super().concentration(z, y)
        return self.factor * q, self.factor * qstar


def reference_violations(system, oracle, z_grid, mode):
    """The sweep's verdicts on the default w and y grids with p = 2, in plain number arithmetic."""
    grid = [F(1, 4), F(1, 2), F(1)]  # the default w grid and y grid
    out = []
    for z in z_grid:
        ys = grid + ([] if z / 2 in grid else [z / 2])
        for w in grid:
            delta = oracle.delta(z, w, mode)
            p1 = st.max_tail(system, w)
            sum_exc = sum(rv.tail(w) for rv in system.rvs)
            if delta < 0:
                out.append(st.OsipovViolation(float(z), float(w), None, "nonneg", delta, 0))
            if delta > p1:
                out.append(st.OsipovViolation(float(z), float(w), None, "p1", delta, p1))
            for y in ys:
                p2 = st.max_tail(system, y) + oracle.q(z, y) * sum_exc
                if delta > p2:
                    out.append(st.OsipovViolation(float(z), float(w), float(y), "p2", delta, p2))
                p3 = st.max_tail(system, y) + 2 * oracle.qstar(z, y) * p1
                if delta > p3:
                    out.append(st.OsipovViolation(float(z), float(w), float(y), "p3", delta, p3))
    return out


class TestSweepVerdicts:
    """verify_osipov's cross-multiplied checks against a plain-arithmetic loop."""

    def test_forced_violations_exact(self, small_corpus):
        found = []
        for system in small_corpus[:6]:
            for mode in MODES:
                oracle = ScaledConcentration(system, F(0))
                violations = st.verify_osipov(system, mode=mode, oracle=oracle)
                assert violations == reference_violations(system, oracle, DEFAULT_Z, mode)
                found += violations
        assert {v.bound for v in found} == {"p2", "p3"}
        assert all(type(v.bound_value) is F for v in found)

    def test_forced_violations_float(self):
        system, _ = st.extremal_system(5)
        z_grid = [F(n, 4) for n in range(13)]
        for mode in MODES:
            oracle = ScaledConcentration(system, 0.0)
            found = st.verify_osipov(system, z_grid, mode=mode, oracle=oracle)
            assert found == reference_violations(system, oracle, z_grid, mode)
            assert found
            assert all(type(v.bound_value) is float for v in found)

    def test_nonneg_and_p1_verdicts_exact(self, small_corpus):
        found = []
        for system in small_corpus[:6]:
            for mode in MODES:
                oracle = ShiftedDelta(system)
                violations = st.verify_osipov(system, mode=mode, oracle=oracle)
                assert violations == reference_violations(system, oracle, DEFAULT_Z, mode)
                found += violations
        assert {"nonneg", "p1"} <= {v.bound for v in found}
        assert all(type(v.delta) is F for v in found)

    def test_nonneg_and_p1_verdicts_float(self):
        system, _ = st.extremal_system(5)
        z_grid = [F(n, 4) for n in range(13)]
        found = []
        for mode in MODES:
            oracle = ShiftedDelta(system)
            violations = st.verify_osipov(system, z_grid, mode=mode, oracle=oracle)
            assert violations == reference_violations(system, oracle, z_grid, mode)
            found += violations
        assert {"nonneg", "p1"} <= {v.bound for v in found}
        assert all(type(v.delta) is float for v in found)

    @given(
        seed=hyp.integers(min_value=0, max_value=10**6),
        factor=hyp.sampled_from([F(0), F(1, 16), F(1, 4), F(1, 2), F(1)]),
        mode=hyp.sampled_from(MODES),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_on_corpus_systems(self, seed, factor, mode):
        (system,) = st.gen_corpus(st.CorpusSpec(seed=seed, count=1, n_max=3))
        z_grid = [F(n, 4) for n in range(-2, 17)]
        oracle = ScaledConcentration(system, factor)
        found = st.verify_osipov(system, z_grid, mode=mode, oracle=oracle)
        assert found == reference_violations(system, oracle, z_grid, mode)


class CountingOracle(st.SystemOracle):
    """Counts the max tail and (Q, Q*) lookups a sweep makes."""

    def __init__(self, system):
        super().__init__(system)
        self.lookups = 0

    def max_tail_at(self, t):
        self.lookups += 1
        return super().max_tail_at(t)

    def concentration(self, z, y):
        self.lookups += 1
        return super().concentration(z, y)


def sweeps(system, oracles, z_grid=DEFAULT_Z, ps=(2, 2)):
    """(violations, skip log) of a sweep in each mode, on ``oracles[i]`` with p = ``ps[i]``."""
    out = []
    for mode, oracle, p in zip(MODES, oracles, ps):
        log = []
        found = st.verify_osipov(system, z_grid, mode=mode, p=p, oracle=oracle, skip_log=log)
        out.append((found, log))
    return out


class TestSweepMemo:
    """The second mode of a sweep on one oracle reuses the y terms, P1 and P2/P3 pairs."""

    @pytest.mark.parametrize("factor", [F(0), F(1, 4)])
    def test_shared_oracle_matches_fresh_oracles(self, small_corpus, factor):
        found = []
        for system in small_corpus[:6]:
            shared = ScaledConcentration(system, factor)
            fresh = [ScaledConcentration(system, factor) for _ in MODES]
            assert sweeps(system, [shared, shared]) == sweeps(system, fresh)
            found += sweeps(system, fresh)
        if factor == 0:
            assert any(violations for violations, _ in found)

    def test_shared_oracle_matches_fresh_oracles_at_cap(self):
        systems = [s for s in st.gen_corpus(st.CorpusSpec(seed=1, count=40)) if s.n == 4][:2]
        z_grid = [F(0), F(1), F(2)]
        logs = []
        for system in systems:
            shared = st.SystemOracle(system, cap=40)
            fresh = [st.SystemOracle(system, cap=40) for _ in MODES]
            got = sweeps(system, [shared, shared], z_grid)
            assert got == sweeps(system, fresh, z_grid)
            logs += [log for _, log in got]
        stages = [entry["stage"] for log in logs for entry in log]
        assert (stages.count("restricted"), stages.count("capped-sum")) == (30, 36)

    def test_other_grid_is_not_reused(self, small_corpus):
        # p = 4 moves the scaled y, so the second sweep must not read the first's terms
        for system in small_corpus[:3]:
            oracle = ScaledConcentration(system, F(0))
            fresh = [ScaledConcentration(system, F(0)) for _ in MODES]
            assert sweeps(system, [oracle, oracle], ps=(2, 4)) == sweeps(system, fresh, ps=(2, 4))

    def test_second_mode_asks_no_lookup(self, small_corpus):
        for system in small_corpus[:6]:
            oracle = CountingOracle(system)
            st.verify_osipov(system, mode="winsorize", oracle=oracle)
            assert oracle.lookups > 0
            oracle.lookups = 0
            st.verify_osipov(system, mode="truncate", oracle=oracle)
            assert oracle.lookups == 0


class ShiftedDelta(st.SystemOracle):
    """Delta_w(z) moved onto P1, above P1, below 0 or onto 0, by the position of z.

    Delta <= P1 is a theorem, so no true oracle reaches a nonneg or P1
    violation; these four cases hit both verdicts and their boundaries.
    """

    def delta(self, z, w, mode):
        delta = super().delta(z, w, mode)
        p1 = self.max_tail_at(w)
        case = int(4 * z) % 5
        if case == 1:
            return p1
        if case == 2:
            return p1 + (p1 + 1) / 64
        if case == 3:
            return delta - delta - (p1 + 1) / 64
        if case == 4:
            return delta - delta
        return delta


class TestPBoundsAgreesWithSweep:
    """verify_osipov reports P2 and P3 with the values p_bounds gives at the same (z, w, y)."""

    def checked_bounds(self, system, factor, z_grid):
        """Compare every P2/P3 violation in both modes; return the bounds compared."""
        checked = []
        for mode in MODES:
            oracle = ScaledConcentration(system, factor)
            for v in st.verify_osipov(system, z_grid, mode=mode, oracle=oracle):
                if v.bound not in ("p2", "p3"):
                    continue
                # the grids are dyadic, so the reported floats are the exact grid points
                params = st.BoundParams(w=F(v.w), y=F(v.y))
                report = st.p_bounds(system, F(v.z), params, mode, oracle=oracle)
                value = report.p2 if v.bound == "p2" else report.p3
                assert value == v.bound_value
                assert type(value) is type(v.bound_value)
                checked.append(v.bound)
        return checked

    def test_exact_corpus_systems(self, small_corpus):
        checked = []
        for system in small_corpus[:6]:
            checked += self.checked_bounds(system, F(0), DEFAULT_Z[1:])
        assert set(checked) == {"p2", "p3"}

    def test_float_extremal_system(self):
        system, _ = st.extremal_system(5)
        checked = self.checked_bounds(system, 0.0, [F(n, 4) for n in range(1, 13)])
        assert set(checked) == {"p2", "p3"}


class TestCalibrate:
    def test_theorem_finite_and_deterministic(self, small_corpus):
        params = st.BoundParams(v=1, w=1, lam=0.5)
        first = st.calibrate(small_corpus, "theorem", params=params)
        second = st.calibrate(small_corpus, "theorem", params=params)
        assert math.isfinite(first.a_min)
        assert first.a_min > 0
        assert first == second

    def test_witness_reproduces_a_min(self, small_corpus):
        for bound in ("theorem", "concentration", "p4", "p5"):
            result = st.calibrate(small_corpus, bound)
            again = st.calibration_ratio(small_corpus, bound, result.witness)
            assert abs(again - result.a_min) <= 1e-12 * max(1.0, abs(result.a_min))

    def test_enlarging_z_grid_never_decreases(self, small_corpus):
        params = st.BoundParams(v=1, w=1, lam=0.5)
        coarse = st.calibrate(
            small_corpus, "theorem", params=params, z_grid=[F(n, 2) for n in range(0, 9)]
        )
        fine = st.calibrate(
            small_corpus, "theorem", params=params, z_grid=[F(n, 4) for n in range(0, 33)]
        )
        assert fine.a_min >= coarse.a_min

    def test_concentration_single_coin(self, unit_coin):
        # leave-one-out sum is 0, so the interval [-1/2, 1/2] has mass 1 and
        # the structural side is (1 + beta_1) e^{1/8}... with a = -1/2:
        # ratio = 1 / (2 e^{0.25})
        result = st.calibrate(
            [unit_coin],
            "concentration",
            params=st.BoundParams(v=1, w=1, lam=0.5),
            a_grid=[F(-1, 2)],
            gaps=[F(1)],
        )
        assert result.a_min == pytest.approx(0.38940039153570244, rel=1e-14)
        assert result.witness == {"system": 0, "i": 0, "a": -0.5, "b": 0.5}

    def test_modes_calibrate_separately(self, small_corpus):
        params = st.BoundParams(v=1, w=F(1, 2), lam=0.5)
        wins = st.calibrate(small_corpus, "theorem", params=params, mode="winsorize")
        trunc = st.calibrate(small_corpus, "theorem", params=params, mode="truncate")
        assert wins.a_min != trunc.a_min  # different capped laws

    def test_rejects_bad_inputs(self, small_corpus):
        with pytest.raises(ValueError, match="unknown bound"):
            st.calibrate(small_corpus, "p6")
        with pytest.raises(ValueError, match="nonempty corpus"):
            st.calibrate([], "theorem")

    def test_each_bound_has_its_own_ratio(self, small_corpus):
        system = small_corpus[32]  # four summands; P1 and Delta are positive at this cell
        params = st.BoundParams(w=F(1, 2), lam=0.5, p=2.0, c=1.0)
        oracle = st.SystemOracle(system)
        z, i, a, b = 1.5, 0, -0.5, 1.0
        beta = float(st.beta_v(system, 1))
        delta = float(oracle.delta(z, params.w, "winsorize"))
        p1 = float(st.max_tail(system, params.w))
        lead = float(st.max_tail(system, z / 2))
        mass = float(oracle.loo_capped(params.w, "winsorize")[i].interval_mass(a, b))
        capped_tail = float(oracle.law_capped(params.w, "winsorize").tail(z))
        expected = {
            "theorem": abs(capped_tail - st.normal_tail(z)) * math.exp(0.5 * z) / beta,
            "concentration": mass / ((b - a + beta) * math.exp(-0.5 * a)),
            "p4": max(delta - lead, 0.0) / (p1 / (1.0 + z) ** 2),
            "p5": delta / (float(st.mu_p(system, 2.0)) / (1.0 + z) ** 2),
        }
        assert len(set(expected.values())) == 4
        for bound, value in expected.items():
            cell = {"system": 32, "z": z}
            if bound == "concentration":
                cell = {"system": 32, "i": i, "a": a, "b": b}
            ratio = st.calibration_ratio(small_corpus, bound, cell, params)
            assert ratio == pytest.approx(value, rel=1e-12), bound

    def test_unknown_bound_message_is_shared(self, small_corpus):
        with pytest.raises(ValueError) as by_calibrate:
            st.calibrate(small_corpus, "p6")
        with pytest.raises(ValueError) as by_ratio:
            st.calibration_ratio(small_corpus, "p6", {"system": 0, "z": 1.0})
        assert str(by_ratio.value) == str(by_calibrate.value)
        assert str(by_ratio.value).startswith("unknown bound 'p6'; expected one of")


class TestExtremalFamily:
    def test_n_two_coincides(self):
        system, report = st.extremal_system(2)
        assert report.x == pytest.approx(2 ** -0.5, rel=1e-15)
        assert report.y == report.x
        assert report.sum_var == pytest.approx(1.0, abs=1e-12)
        assert system.n == 2

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError, match="n >= 2"):
            st.extremal_report(1)

    @pytest.mark.parametrize("m", [1, 100, 10**4, 10**8])
    def test_ratio_matches_closed_form(self, m):
        report = st.extremal_report(m + 1)
        closed = (1.0 + m ** -0.25) ** (-1.0 / 3.0)
        assert report.ratio_closed_form == pytest.approx(closed, rel=1e-15)
        assert abs(report.ratio - report.ratio_closed_form) < 1e-12

    def test_ratio_approaches_one(self):
        ratios = [st.extremal_report(m + 1).ratio for m in (1, 10**2, 10**4, 10**8)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.99

    def test_materialized_system_agrees_with_report(self):
        for n in (2, 11, 101):
            system, report = st.extremal_system(n)
            direct_beta = float(st.beta_v(system, 1.0))
            assert direct_beta == pytest.approx(report.beta, rel=1e-12)
            assert float(system.rvs[0].abs_moment(1)) == pytest.approx(
                report.mean_abs_first, rel=1e-15
            )

    def test_materialization_limit(self):
        with pytest.raises(ValueError, match="materialization limit"):
            st.extremal_system(10**8 + 1)


class TestMeanAbsSharpness:
    def test_corpus_clean_at_v_two(self, small_corpus):
        report = st.mean_abs_sharpness(small_corpus, v=2.0)
        assert report.violations == ()
        assert report.n_checked > 0
        assert report.max_ratio <= 1.0 + 1e-12

    def test_four_coins_value(self, four_coins):
        # E|X_i| = 1/2 <= (1/2)^(1/3)
        report = st.mean_abs_sharpness([four_coins], v=1.0)
        assert report.n_checked == 4
        assert report.max_ratio == pytest.approx(0.5 / 0.5 ** (1 / 3), rel=1e-12)

    def test_out_of_regime_systems_skipped(self, unit_coin):
        # beta_1 = 1 > (8/9)^3 for the +-1 coin
        report = st.mean_abs_sharpness([unit_coin], v=1.0)
        assert report.n_skipped == 1
        assert report.n_checked == 0

    def test_mu3_cube_root_dominates(self, small_corpus):
        # E|X_i| <= mu_3^(1/3), and v beta_v^(1/3) <= mu_3^(1/3) at v = 1
        for system in small_corpus:
            mu3 = float(st.mu_p(system, 3))
            for rv in system.rvs:
                assert float(rv.abs_moment(1)) <= mu3 ** (1 / 3) + 1e-12
            beta1 = float(st.beta_v(system, 1))
            assert beta1 ** (1 / 3) <= mu3 ** (1 / 3) + 1e-12
