"""Corpus generation, exact sweeps, calibration determinism, sharpness."""

import functools
import itertools
import json
import math
from bisect import bisect_right
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hyp

import sumtails as st
from conftest import enumerate_outcomes
from sumtails import verify
from sumtails.bounds import _auto_y_candidates


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
        # a real oracle fails a restriction by the signature of y and a
        # capped sum by (w, mode), so the budget fails whole rows: on
        # z in {0, 1, 2} the restriction at y = 1/2 skips 3 z x 3 w = 9
        # cells, the capped sum at w = 1 skips the 4 + 3 + 3 = 10 y cells
        # of its row, and the two share the 3 cells (z, 1, 1/2)
        from sumtails import verify

        class Budget(st.SystemOracle):
            def concentration_row(self, zs, y):
                if y == F(1, 2):
                    raise st.ConvolutionCapError("restriction over budget")
                return super().concentration_row(zs, y)

            def delta_row(self, zs, w, mode):
                if w == 1:
                    raise st.ConvolutionCapError("capped sum over budget")
                return super().delta_row(zs, w, mode)

        monkeypatch.setattr(verify, "SystemOracle", Budget)
        z_grid = [F(0), F(1), F(2)]
        result = st.verify_corpus(small_corpus[:1], z_grid=z_grid, modes=("winsorize",))
        assert (result.cells, result.skipped) == (30 - 16, 9 + 10 - 3)

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

    def concentration_row(self, zs, y):
        row = super().concentration_row(zs, y)
        return [(self.factor * q, self.factor * qstar) for q, qstar in row]


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

    def test_equal_y_of_two_types_is_swept_once(self, small_corpus):
        # at z = 1 and p = 2 the scaled y is Fraction(1, 2), equal to the grid's 0.5
        system = small_corpus[37]
        found = [
            st.verify_osipov(system, [F(1)], y_grid=[y], oracle=ScaledConcentration(system, F(0)))
            for y in (0.5, F(1, 2))
        ]
        assert len(found[0]) == 2 and found[0] == found[1]

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
    """Counts the max tail and (Q, Q*) lookups a sweep makes, and the (Q, Q*) ones alone."""

    def __init__(self, system):
        super().__init__(system)
        self.lookups = 0
        self.concentrations = 0

    def max_tail_at(self, t):
        self.lookups += 1
        return super().max_tail_at(t)

    def concentration_row(self, zs, y):
        self.lookups += 1
        self.concentrations += 1
        return super().concentration_row(zs, y)


def sweeps(system, oracles, z_grid=DEFAULT_Z, ps=(2, 2), modes=MODES):
    """(violations, skip log) of a sweep in each of ``modes``, on ``oracles[i]``, p = ``ps[i]``."""
    out = []
    for mode, oracle, p in zip(modes, oracles, ps):
        log = []
        found = st.verify_osipov(system, z_grid, mode=mode, p=p, oracle=oracle, skip_log=log)
        out.append((found, log))
    return out


GOLDEN = Path(__file__).parent / "golden"


def json_text(rows):
    """A JSON list with one row per line."""
    return "[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n"


def capped_sweep_logs():
    """The skip-log entries of both modes on one oracle at a budget of 40 pairs.

    On the two four-summand systems of the seed-1 corpus, each row tagged
    with its system and mode.
    """
    systems = [s for s in st.gen_corpus(st.CorpusSpec(seed=1, count=40)) if s.n == 4][:2]
    out = []
    for idx, system in enumerate(systems):
        oracle = st.SystemOracle(system, cap=40)
        for mode, (_, log) in zip(MODES, sweeps(system, [oracle, oracle], [F(0), F(1), F(2)])):
            out += [{"system": idx, "mode": mode, **entry} for entry in log]
    return out


def scaled_violations(corpus):
    """Every violation of the default sweep with Q = Q* = 0, in the order the sweep reports them."""
    out = []
    for idx, system in enumerate(corpus[:6]):
        oracle = ScaledConcentration(system, F(0))
        for mode in MODES:
            for v in st.verify_osipov(system, mode=mode, oracle=oracle):
                out.append([idx, mode, v.z, v.w, v.y, v.bound, str(v.delta), str(v.bound_value)])
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

    def test_skip_log_order_matches_golden(self):
        # the stage counts above say nothing of the order of the entries
        assert json_text(capped_sweep_logs()) == (GOLDEN / "sweep_skip_log_cap40.json").read_text()

    def test_forced_violations_order_matches_golden(self, small_corpus):
        golden = GOLDEN / "sweep_violations_scaled0.json"
        assert json_text(scaled_violations(small_corpus)) == golden.read_text()

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


class TestAutoYClasses:
    def test_one_concentration_per_signature_class(self, small_corpus):
        # the least y of a class gives its least Q and Q*, so an auto-y
        # p_bounds asks (Q, Q*) once per class, not once per candidate
        classes = candidates = 0
        for system in small_corpus[:8]:
            oracle = CountingOracle(system)
            for z, p in itertools.product((F(1, 2), F(9, 4), 3, 0.7), (1, 2.0, 2.5, 6.0)):
                ys = _auto_y_candidates(z, p, F(1))
                sigs = {tuple(bisect_right(rv.values, y) for rv in system.rvs) for y in ys}
                oracle.concentrations = 0
                st.p_bounds(system, z, st.BoundParams(p=p), oracle=oracle)
                assert oracle.concentrations == len(sigs)
                classes, candidates = classes + len(sigs), candidates + len(ys)
        assert 2 * classes < candidates


class ShiftedDelta(st.SystemOracle):
    """Delta_w(z) moved onto P1, above P1, below 0 or onto 0, by the position of z.

    Delta <= P1 is a theorem, so no true oracle reaches a nonneg or P1
    violation; these four cases hit both verdicts and their boundaries.
    """

    def delta_row(self, zs, w, mode):
        p1 = self.max_tail_at(w)
        row = super().delta_row(zs, w, mode)
        return [self.shifted(z, delta, p1) for z, delta in zip(zs, row)]

    @staticmethod
    def shifted(z, delta, p1):
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


class RecordingOracle(st.SystemOracle):
    """Records the (y, zs) of every (Q, Q*) row it is asked."""

    def __init__(self, system):
        super().__init__(system)
        self.rows = []

    def concentration_row(self, zs, y):
        self.rows.append((y, list(zs)))
        return super().concentration_row(zs, y)


def undecided_rows(system, z_grid):
    """Per distinct y of the sweep, in order, the z where some Delta exceeds P(max X_i > y).

    Delta is taken at every w of the default grid in both modes; at any
    other (z, y) the cell is decided by the max tail alone.
    """
    oracle = st.SystemOracle(system)
    ys_at = {z: verify._sweep_ys(z, verify.DEFAULT_Y_GRID, 2) for z in z_grid}
    largest = {
        z: max(oracle.delta(z, w, mode) for w in verify.DEFAULT_W_GRID for mode in MODES)
        for z in z_grid
    }
    ys = dict.fromkeys(y for z in z_grid for y in ys_at[z])
    return [
        (y, [z for z in z_grid if y in ys_at[z] and largest[z] > st.max_tail(system, y)])
        for y in ys
    ]


class TestSweepSkipsDecidedCells:
    """A sweep asks (Q, Q*) only at the z where some Delta exceeds P(max_i X_i > y)."""

    def test_one_row_per_y_over_the_undecided_z(self, small_corpus):
        extremal, _ = st.extremal_system(5)
        cases = [(system, DEFAULT_Z) for system in small_corpus[:8]]
        cases.append((extremal, [F(n, 4) for n in range(-2, 13)]))
        asked = cells = empty = 0
        for system, z_grid in cases:
            oracle = RecordingOracle(system)
            for mode in MODES:
                assert st.verify_osipov(system, z_grid, mode=mode, oracle=oracle) == []
            want = undecided_rows(system, z_grid)
            assert oracle.rows == want
            asked += sum(len(zs) for _, zs in want)
            empty += sum(not zs for _, zs in want)
            cells += sum(len(verify._sweep_ys(z, verify.DEFAULT_Y_GRID, 2)) for z in z_grid)
        # some (z, y) are asked and most are not; a y with no such z asks an empty row
        assert 0 < asked < cells / 2
        assert empty

    @pytest.mark.parametrize(
        "make",
        [
            functools.partial(ScaledConcentration, factor=F(0)),
            functools.partial(ScaledConcentration, factor=F(1, 8)),
            ShiftedDelta,
        ],
        ids=["scaled-0", "scaled-1/8", "shifted-delta"],
    )
    def test_truncate_first_matches_fresh_oracles(self, small_corpus, make):
        found = []
        for system in small_corpus[:6]:
            shared = make(system)
            got = sweeps(system, [shared, shared], modes=MODES[::-1])
            assert got == sweeps(system, [make(system), make(system)], modes=MODES[::-1])
            found += [v for violations, _ in got for v in violations]
        assert found

    def test_nan_delta_does_not_hide_a_larger_one(self):
        # a NaN Delta at the first w exceeds no bound; the raised Delta of
        # the later w must still be compared with P2 and P3
        class NaNFirst(st.SystemOracle):
            def delta_row(self, zs, w, mode):
                if w == verify.DEFAULT_W_GRID[0]:
                    return [math.nan] * len(zs)
                return [delta + 0.5 for delta in super().delta_row(zs, w, mode)]

        system, _ = st.extremal_system(5)
        z_grid = [F(n, 4) for n in range(13)]
        for mode in MODES:
            oracle = NaNFirst(system)
            found = st.verify_osipov(system, z_grid, mode=mode, oracle=oracle)
            assert found == reference_violations(system, oracle, z_grid, mode)
            assert {"p2", "p3"} <= {v.bound for v in found}

    def test_truncate_first_matches_fresh_oracles_at_cap(self):
        systems = [s for s in st.gen_corpus(st.CorpusSpec(seed=1, count=40)) if s.n == 4][:2]
        z_grid = [F(0), F(1), F(2)]
        logs = []
        for system in systems:
            shared = st.SystemOracle(system, cap=40)
            fresh = [st.SystemOracle(system, cap=40) for _ in MODES]
            got = sweeps(system, [shared, shared], z_grid, modes=MODES[::-1])
            assert got == sweeps(system, fresh, z_grid, modes=MODES[::-1])
            logs += [entry for _, log in got for entry in log]
        assert {entry["stage"] for entry in logs} == {"restricted", "capped-sum"}


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

    @pytest.mark.parametrize("factor", [F(0), F(1, 16)])
    def test_one_evaluator_with_a_capped_y(self, small_corpus, factor):
        # a small Q and Q* make the sweep report P2/P3 violations (at 1/16
        # they depend on w), and y = 1/2 is past the atom budget; p_bounds
        # on a fresh oracle of the same class gives every reported value,
        # and falls back to Bennett-Hoeffding exactly at the (z, y) cells
        # the sweep logs as "restricted"
        class CappedScaled(ScaledConcentration):
            def concentration_row(self, zs, y):
                if y == F(1, 2):
                    raise st.ConvolutionCapError("restriction over budget")
                return super().concentration_row(zs, y)

        system = small_corpus[4]  # unit variance, so a capped y offers a P3
        z_grid = DEFAULT_Z[1:]
        compared = fallbacks = 0
        for mode in MODES:
            log = []
            found = st.verify_osipov(
                system, z_grid, mode=mode, oracle=CappedScaled(system, factor), skip_log=log
            )
            reported = {(v.z, v.w, v.y, v.bound): v.bound_value for v in found}
            restricted = {(e["z"], e["y"]) for e in log if e["stage"] == "restricted"}
            oracle = CappedScaled(system, factor)
            for z in z_grid:
                for w in verify.DEFAULT_W_GRID:
                    for y in verify._sweep_ys(z, verify.DEFAULT_Y_GRID, 2):
                        params = st.BoundParams(w=w, y=y)
                        report = st.p_bounds(system, z, params, mode, oracle=oracle)
                        fell_back = any("Bennett-Hoeffding" in text for text in report.warnings)
                        assert fell_back == ((float(z), float(y)) in restricted)
                        if fell_back:
                            assert report.p2 is None
                            bh = st.max_tail(system, y) + 2 * st.bh_bound(z, y) * report.p1
                            assert report.p3 == bh
                            fallbacks += 1
                        for name, value in (("p2", report.p2), ("p3", report.p3)):
                            key = (float(z), float(w), float(y), name)
                            if key in reported:
                                assert not fell_back
                                assert value == reported[key]
                                assert type(value) is type(reported[key])
                                compared += 1
        assert compared and fallbacks


GAPS_MUST = "gaps must be finite and nonnegative"


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

    @pytest.mark.parametrize("bound", ["theorem", "concentration", "p4", "p5"])
    def test_cells_past_the_atom_budget_are_skipped(self, small_corpus, monkeypatch, bound):
        # at a budget of 3 pairs only the systems whose laws need no
        # convolution fit: one summand, or two for the leave-one-out laws
        most = 2 if bound == "concentration" else 1
        # two z values, or two intervals per summand
        grids = dict(z_grid=[F(1, 2), F(2)], a_grid=[F(-1, 2), F(1)], gaps=[F(1)])
        fits = [s for s in small_corpus if s.n <= most]
        assert 0 < len(fits) < len(small_corpus)

        def cells(systems):
            return sum(2 * s.n if bound == "concentration" else 2 for s in systems)

        want = st.calibrate(fits, bound, **grids)
        monkeypatch.setattr(verify, "SystemOracle", functools.partial(st.SystemOracle, cap=3))
        result = st.calibrate(small_corpus, bound, **grids)
        assert (result.a_min, result.n_cells) == (want.a_min, want.n_cells)
        assert result.grid["skipped"] == cells(s for s in small_corpus if s.n > most)
        assert "skipped" not in want.grid
        assert small_corpus[result.witness["system"]].n <= most
        capped = [s for s in small_corpus if s.n > most][:3]
        message = f"no calibration cell fits the atom budget \\({cells(capped)} skipped\\)"
        with pytest.raises(ValueError, match=message):
            st.calibrate(capped, bound, **grids)

    @pytest.mark.parametrize(
        "bound, grids, message",
        [
            ("theorem", dict(z_grid=[F(1), math.nan]), "z values must be finite, got nan"),
            ("p4", dict(z_grid=[math.nan, 0.5]), "z values must be finite, got nan"),
            ("p5", dict(z_grid=[0.5, math.nan]), "z values must be finite, got nan"),
            ("theorem", dict(z_grid=[math.inf]), "z values must be finite, got inf"),
            ("p4", dict(z_grid=[F(1), -math.inf]), "z values must be finite, got -inf"),
            ("concentration", dict(a_grid=[F(0), math.nan]), "a values must be finite, got nan"),
            ("concentration", dict(a_grid=[math.inf]), "a values must be finite, got inf"),
            ("concentration", dict(gaps=[F(1), F(-1)]), f"{GAPS_MUST}, got -1"),
            ("concentration", dict(gaps=[math.inf]), f"{GAPS_MUST}, got inf"),
            ("concentration", dict(gaps=[math.nan]), f"{GAPS_MUST}, got nan"),
            # exact values past the float range are named exactly
            ("theorem", dict(z_grid=[F(1), F(10**400)]), f"z values must be finite, got {10**400}"),
            ("concentration", dict(a_grid=[-(10**400)]), f"a values must be finite, got {-(10**400)}"),
            (
                "concentration",
                dict(a_grid=[F(1)], gaps=[F(10**400)]),
                f"b = a + gap values must be finite, got {10**400 + 1}",
            ),
        ],
        ids=[
            "theorem-z-nan",
            "p4-z-nan",
            "p5-z-nan",
            "theorem-z-inf",
            "p4-z-minus-inf",
            "concentration-a-nan",
            "concentration-a-inf",
            "concentration-gap-negative",
            "concentration-gap-inf",
            "concentration-gap-nan",
            "theorem-z-10^400",
            "concentration-a-minus-10^400",
            "concentration-b-10^400",
        ],
    )
    def test_grids_are_checked_before_any_work(
        self, small_corpus, monkeypatch, bound, grids, message
    ):
        from sumtails import verify

        def no_oracle(system):
            raise AssertionError("an oracle was built before the grids were checked")

        monkeypatch.setattr(verify, "SystemOracle", no_oracle)
        with pytest.raises(ValueError) as err:
            st.calibrate(small_corpus[:3], bound, **grids)
        assert str(err.value) == f"calibration {message}"

    @pytest.mark.parametrize(
        "bound, grids, cell, message",
        [
            ("theorem", {"z_grid": [1, 2000]}, {"z": 2000.0}, "z value 2000.0 overflows e^(lam z)"),
            ("p5", {"z_grid": [1e200]}, {"z": 1e200}, "z value 1e+200 overflows (c + z)^p"),
            (
                "concentration",
                {"a_grid": [0, -1e308]},
                {"i": 0, "a": -1e308, "b": -1e308},
                "a value -1e+308 overflows e^(-lam a)",
            ),
        ],
        ids=["theorem-z-2000", "p5-z-1e200", "concentration-a-minus-1e308"],
    )
    def test_values_that_overflow_are_checked_before_any_work(
        self, small_corpus, monkeypatch, bound, grids, cell, message
    ):
        from sumtails import verify

        def no_oracle(system):
            raise AssertionError("an oracle was built before the grids were checked")

        monkeypatch.setattr(verify, "SystemOracle", no_oracle)
        expected = f"calibration {message} as a float"
        with pytest.raises(ValueError) as err:
            st.calibrate(small_corpus[:3], bound, **grids)
        assert str(err.value) == expected
        monkeypatch.undo()
        with pytest.raises(ValueError) as err:
            st.calibration_ratio(small_corpus, bound, {"system": 0, **cell})
        assert str(err.value) == expected

    @pytest.mark.parametrize("bound", ["p4", "p5"])
    def test_least_z_that_underflows_is_checked_before_any_work(
        self, small_corpus, monkeypatch, bound
    ):
        # (c + z)^p = (1e-300 + 1e-200)^2 is 0.0 as a float at the least z only
        from sumtails import verify

        def no_oracle(system):
            raise AssertionError("an oracle was built before the grids were checked")

        monkeypatch.setattr(verify, "SystemOracle", no_oracle)
        params = st.BoundParams(c=1e-300)
        expected = "calibration z value 1e-200 underflows (c + z)^p to 0.0 as a float"
        with pytest.raises(ValueError) as err:
            st.calibrate(small_corpus[:3], bound, params=params, z_grid=[1, 1e-200, 2])
        assert str(err.value) == expected
        monkeypatch.undo()
        with pytest.raises(ValueError) as err:
            st.calibration_ratio(small_corpus, bound, {"system": 0, "z": 1e-200}, params)
        assert str(err.value) == expected

    def test_mu_p_past_the_float_range(self):
        # the seed-1 corpus has an atom at -2, so mu_5000 is about 2^5000
        corpus = st.gen_corpus(st.CorpusSpec(seed=1, count=3))
        params = st.BoundParams(p=5000.0, c=0.9)
        with pytest.raises(ValueError) as err:
            st.calibrate(corpus, "p5", params=params, z_grid=[0.1])
        assert str(err.value) == "mu_p at p = 5000.0 overflows a float"

    def test_infinite_interval_end_is_checked_before_any_work(self, small_corpus, monkeypatch):
        # a = 1e308 and its gap are finite, but b = a + gap is not
        from sumtails import verify

        def no_oracle(system):
            raise AssertionError("an oracle was built before the grids were checked")

        monkeypatch.setattr(verify, "SystemOracle", no_oracle)
        with pytest.raises(ValueError) as err:
            st.calibrate(small_corpus[:3], "concentration", a_grid=[1e308], gaps=[1e308])
        assert str(err.value) == "calibration b = a + gap values must be finite, got inf"

    def test_concentration_right_side_that_underflows(self, small_corpus, two_coins):
        # e^(-lam a) is 0.0 at a = 1500, so the right side is 0.0 and the
        # ratio reads as the theorem's does: 0.0 over no mass ...
        corpus = small_corpus[:3]
        result = st.calibrate(corpus, "concentration", a_grid=[1500])
        assert result.a_min == 0.0
        assert st.calibration_ratio(corpus, "concentration", result.witness) == 0.0
        # ... and inf over a positive mass: the other coin puts 1/2 on
        # [1/4, 9/4], where e^(-lam / 4) is 0.0 at lam = 10^4
        params = st.BoundParams(lam=1e4)
        result = st.calibrate([two_coins], "concentration", params=params, a_grid=[0.25], gaps=[2])
        assert result.a_min == math.inf
        assert st.calibration_ratio([two_coins], "concentration", result.witness, params) == math.inf

    @pytest.mark.parametrize(
        "bound, cell",
        [
            ("theorem", {"system": 0, "z": math.nan}),
            ("p5", {"system": 0, "z": math.inf}),
            ("concentration", {"system": 0, "i": 0, "a": -math.inf, "b": 0.5}),
            ("concentration", {"system": 0, "i": 0, "a": 0.0, "b": math.nan}),
        ],
        ids=["theorem-nan", "p5-inf", "concentration-a", "concentration-b"],
    )
    def test_ratio_of_a_cell_that_is_not_finite(self, small_corpus, bound, cell):
        with pytest.raises(ValueError, match="values must be finite, got"):
            st.calibration_ratio(small_corpus, bound, cell)

    def test_unknown_bound_message_is_shared(self, small_corpus):
        with pytest.raises(ValueError) as by_calibrate:
            st.calibrate(small_corpus, "p6")
        with pytest.raises(ValueError) as by_ratio:
            st.calibration_ratio(small_corpus, "p6", {"system": 0, "z": 1.0})
        assert str(by_ratio.value) == str(by_calibrate.value)
        assert str(by_ratio.value).startswith("unknown bound 'p6'; expected one of")


#: calibration grid values: exact and float, negative, zero and positive
calibration_values = hyp.one_of(
    hyp.builds(F, hyp.integers(min_value=-16, max_value=24), hyp.sampled_from([1, 2, 3, 4, 10])),
    hyp.floats(min_value=-3, max_value=6),
)
calibration_gaps = hyp.one_of(
    hyp.builds(F, hyp.integers(min_value=0, max_value=20), hyp.sampled_from([1, 2, 10])),
    hyp.floats(min_value=0, max_value=3),
)


class TestCalibrationRows:
    """``calibrate`` reads each system as one row; every row value is its cell's ratio."""

    @given(
        picks=hyp.lists(hyp.integers(min_value=0, max_value=39), min_size=1, max_size=3),
        with_float=hyp.booleans(),
        bound=hyp.sampled_from(verify.CALIBRATION_BOUNDS),
        mode=hyp.sampled_from(verify.WINSOR_MODES),
        w=hyp.sampled_from([F(1, 2), F(1), F(3, 10), 0.7]),
        z_grid=hyp.lists(calibration_values, min_size=1, max_size=5),
        a_grid=hyp.lists(calibration_values, min_size=1, max_size=3),
        gaps=hyp.lists(calibration_gaps, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_a_cell_by_cell_loop(
        self, small_corpus, picks, with_float, bound, mode, w, z_grid, a_grid, gaps
    ):
        if bound in ("p4", "p5"):
            assume(any(float(z) > 0 for z in z_grid))
        corpus = [small_corpus[i] for i in picks]
        if with_float:
            corpus.append(st.extremal_system(3)[0])
        params = st.BoundParams(w=w)
        grids = dict(z_grid=z_grid, a_grid=a_grid, gaps=gaps)
        result = st.calibrate(corpus, bound, params=params, mode=mode, **grids)
        # the reference: every cell on its own, in calibrate's order
        a_min, witness, n_cells = -math.inf, {}, 0
        for idx, system in enumerate(corpus):
            if bound == "concentration":
                row = [(float(a), float(a + gap)) for a in a_grid for gap in gaps]
                cells = [
                    {"system": idx, "i": i, "a": a, "b": b}
                    for i in range(system.n)
                    for a, b in row
                ]
            else:
                row = [float(z) for z in z_grid if bound == "theorem" or float(z) > 0]
                cells = [{"system": idx, "z": z} for z in row]
            values = verify._RATIOS[bound](st.SystemOracle(system), params, mode, row)
            assert len(values) == len(cells)
            for cell, value in zip(cells, values):
                ratio = st.calibration_ratio(corpus, bound, cell, params, mode)
                assert repr(value) == repr(ratio), cell  # bit for bit, -0.0 and nan included
                n_cells += 1
                if ratio > a_min:
                    a_min, witness = ratio, cell
        assert (result.a_min, result.witness, result.n_cells) == (a_min, witness, n_cells)


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
