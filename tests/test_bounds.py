"""Bound evaluators against enumeration oracles and frozen reference values."""

import dataclasses
import io
import itertools
import math
from bisect import bisect_right
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp

import sumtails as st
from conftest import enumerate_outcomes
from sumtails.bounds import _auto_y_candidates, _key, _y_classes, scaled_y
from sumtails.discrete import WINSOR_MODES, _as_ratio, capped_sum_rv

GOLDEN = Path(__file__).parent / "golden"


#: query arguments of every kind the oracle accepts: Fraction, int, float
#: (mostly off every lattice), and the non-finite floats
query_args = hyp.one_of(
    hyp.builds(F, hyp.integers(min_value=-40, max_value=40), hyp.sampled_from([1, 2, 3, 4, 8])),
    hyp.integers(min_value=-4, max_value=4),
    hyp.floats(min_value=-6, max_value=6, allow_subnormal=False),
    hyp.sampled_from([math.inf, -math.inf, math.nan]),
)


#: the caches a SystemOracle keeps
SIX_CACHES = ("_law_sum", "_law_capped", "_restricted", "_loo_capped", "_max_tail", "_sweeps")


def kept_atoms(system, y):
    """How many atoms each summand keeps under the restriction to {X_i <= y}."""
    return tuple(sum(1 for x in rv.values if x <= y) for rv in system.rvs)


def q_by_enumeration(system, z, y):
    """Independent oracle for Q(z, y): max over i of the joint event mass."""
    best = F(0)
    n = system.n
    for i in range(n):
        total = F(0)
        for prob, xs in enumerate_outcomes(system):
            others = [x for j, x in enumerate(xs) if j != i]
            if sum(others, F(0)) > z - y and all(x <= y for x in others):
                total += prob
        best = max(best, total)
    return best


def qstar_by_enumeration(system, z, y):
    restricted_tail = sum(
        (
            prob
            for prob, xs in enumerate_outcomes(system)
            if sum(xs, F(0)) > z and max(xs) <= y
        ),
        F(0),
    )
    return max(q_by_enumeration(system, z, y), restricted_tail)


class TestBennettHoeffding:
    def test_reference_values(self):
        # e/9 and (e/18)^2, frozen from a 40-digit evaluation
        assert st.bh_bound(6, 3) == pytest.approx(0.30203131427322727, rel=1e-12)
        assert st.bh_bound(9, 3) == pytest.approx(0.022805728700403243, rel=1e-12)

    def test_capped_at_one(self):
        # raw value e at z=2, y=1
        assert st.bh_bound(2, 1) == 1.0
        assert st.bh_bound(0.5, 1) == 1.0  # z <= y

    def test_requires_positive_y(self):
        with pytest.raises(ValueError, match="positive"):
            st.bh_bound(3, 0)

    def test_decreasing_in_z(self):
        vals = [st.bh_bound(z / 4, 1) for z in range(4, 60)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_dominates_qstar_on_corpus(self, small_corpus):
        checked = 0
        for system in small_corpus:
            oracle = st.SystemOracle(system)
            for z in (F(1, 2), F(1), F(2), F(4)):
                for y in (F(1, 4), F(1, 2), z / 2):
                    if not z > y > 0:
                        continue
                    checked += 1
                    assert float(oracle.qstar(z, y)) <= st.bh_bound(z, y) + 1e-12
        assert checked > 100


class TestConcentrationQuantities:
    def test_q_two_coins(self, two_coins):
        # leave-one-out: P(other coin > -0.1, other coin <= 0.5) = 1/2
        assert st.SystemOracle(two_coins).q(F(2, 5), F(1, 2)) == F(1, 2)

    def test_q_zero_when_y_below_support(self, two_coins):
        assert st.SystemOracle(two_coins).q(0, -1) == 0

    def test_q_single_summand_convention(self, unit_coin):
        # empty leave-one-out sum: unit mass at zero
        assert st.SystemOracle(unit_coin).q(0.3, 0.5) == 1
        assert st.SystemOracle(unit_coin).q(1.0, 0.5) == 0

    def test_qstar_two_coins(self, two_coins):
        assert st.SystemOracle(two_coins).qstar(F(9, 10), F(1, 2)) == F(1, 2)

    def test_qstar_low_z_is_restricted_mass(self, two_coins):
        # z below the whole support: the restricted tail is the full mass
        y = F(1, 2)
        got = st.SystemOracle(two_coins).qstar(-2, y)
        assert got == max(st.SystemOracle(two_coins).q(-2, y), F(1))

    def test_against_enumeration(self, small_corpus):
        # Fraction, int and float arguments of equal values; the floats are
        # dyadic, so the float z - y is exact and each value is enumerated once
        zs = (F(-1), F(0), F(1, 2), F(3, 2), -1, 0, 0.5, 1.5)
        ys = (F(1, 4), F(1), 1, 0.25)
        for system in small_corpus[:10]:
            oracle = st.SystemOracle(system)
            enumerated = {}
            for z in zs:
                for y in ys:
                    key = F(z), F(y)
                    if key not in enumerated:
                        enumerated[key] = (
                            q_by_enumeration(system, *key),
                            qstar_by_enumeration(system, *key),
                        )
                    pair = oracle.concentration(z, y)
                    assert pair == (oracle.q(z, y), oracle.qstar(z, y)) == enumerated[key], (z, y)


class TestOracleCaches:
    def test_one_restricted_entry_per_signature(self, four_coins, monkeypatch):
        from sumtails import bounds

        calls = []

        def counting_restrict(rv, y):
            calls.append(y)
            return st.restrict_at_most(rv, y)

        monkeypatch.setattr(bounds, "restrict_at_most", counting_restrict)
        oracle = st.SystemOracle(four_coins)
        # two y values share a class exactly when every coin keeps the same atoms
        ys = [F(1, 2), 0.75, F(0), -1, F(-1, 2), 0.4999, math.inf, -math.inf]
        for a, b in itertools.product(ys, repeat=2):
            same = kept_atoms(four_coins, a) == kept_atoms(four_coins, b)
            assert (oracle.signature(a) == oracle.signature(b)) == same, (a, b)
        assert type(oracle.signature(F(1, 2))) is int
        with pytest.raises(ValueError, match="NaN"):
            oracle.signature(math.nan)
        # every coin keeps both atoms at y = 1/2 and at y = 0.75
        first = oracle.restricted(F(1, 2))
        assert len(calls) == four_coins.n
        assert oracle.restricted(0.75) is first
        oracle.q(F(1), 0.75)
        oracle.qstar(F(2), 0.75)
        assert len(calls) == four_coins.n
        assert len(oracle._restricted) == 1
        # y = 0 keeps one atom per coin: a second signature, a second entry
        oracle.restricted(F(0))
        assert len(calls) == 2 * four_coins.n
        assert len(oracle._restricted) == 2

    @given(
        seed=hyp.integers(min_value=0, max_value=10**6),
        positions=hyp.lists(hyp.integers(min_value=0, max_value=2), min_size=1, max_size=5),
        exact=hyp.booleans(),
        extra=hyp.lists(query_args, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_signature_is_one_to_one_on_kept_atoms(self, seed, positions, exact, extra):
        (base,) = st.gen_corpus(st.CorpusSpec(seed=seed, count=1, n_max=3, atoms_max=3))
        if not exact:
            base = as_float_system(base)
        # summands drawn with repeats share one law object
        system = st.System(rvs=tuple(base.rvs[i % base.n] for i in positions), unit_variance=False)
        oracle = st.SystemOracle(system)
        atoms = sorted({x for rv in system.rvs for x in rv.values})
        ys = [*atoms, *extra, math.inf, -math.inf]
        ys += [math.nextafter(float(x), t) for x in atoms for t in (-math.inf, math.inf)]
        if exact:
            ys += [x + d for x in atoms for d in (F(-1, 10**9), F(1, 10**9))]
        by_class, by_kept = {}, {}
        for y in ys:
            if y != y:
                continue
            sig, kept = oracle.signature(y), kept_atoms(system, y)
            assert type(sig) is int
            assert by_class.setdefault(sig, kept) == kept, y
            assert by_kept.setdefault(kept, sig) == sig, y
        # every atom opens a class of its own, and y below every atom is class 0
        assert len(by_class) == len(atoms) + 1 and min(by_class) == 0

    def test_int_and_equal_float_z_keep_their_own_entries(self):
        # leave-one-out sums of four coins +-3/5 reach 12/5 = 3 - 3/5 exactly,
        # and the float 3.0 - 3/5 rounds below 12/5: Q(3, y) = Q*(3, y) = 0
        # and Q(3.0, y) = Q*(3.0, y) = 1/16, whichever one is asked first
        coin = [(F(-3, 5), F(1, 2)), (F(3, 5), F(1, 2))]
        system = st.make_system([coin] * 5, unit_variance=False)
        y = F(3, 5)
        for order in ((3, 3.0), (3.0, 3)):
            oracle = st.SystemOracle(system)
            for z in order:
                want = F(0) if type(z) is int else F(1, 16)
                assert (oracle.q(z, y), oracle.qstar(z, y)) == (want, want), order

    def test_exact_queries_are_fractions(self, two_coins):
        oracle = st.SystemOracle(two_coins)
        for value in (
            oracle.q(F(5), F(1, 2)),  # zero
            oracle.qstar(F(-5), F(1, 2)),  # full mass
            oracle.delta(F(0), F(1, 4), "truncate"),
            oracle.delta(0.1, F(1, 4), "winsorize"),
        ):
            assert type(value) is F

    def test_equal_arguments_of_any_type_agree(self, small_corpus, unit_coin):
        # dyadic values, so the float subtraction z - y is exact too; every
        # form keyed apart from the Fraction form must hold the same numbers
        points = [(F(1), F(1, 2)), (F(2), F(1)), (F(0), F(1, 4)), (F(-1), F(3, 4))]
        points.append((F(3, 2), F(1, 8)))
        for system in [unit_coin, *[s for s in small_corpus if s.n >= 2][:4]]:
            oracle = st.SystemOracle(system)
            for z, y in points:
                expected = oracle.q(z, y), oracle.qstar(z, y)
                forms = [(float(z), float(y)), (z, float(y)), (float(z), y)]
                forms += [(int(z), y)] if z.denominator == 1 else []
                forms += [(int(z), int(y)), (float(z), int(y))] if y.denominator == 1 else []
                for a, b in forms:
                    assert (oracle.q(a, b), oracle.qstar(a, b)) == expected, (a, b)

    def test_beta_v_and_mu_p_computed_once(self, four_coins, small_corpus, monkeypatch):
        from sumtails import bounds

        calls = []

        def counting(fn):
            def wrapper(system, arg):
                calls.append((fn.__name__, arg))
                return fn(system, arg)

            return wrapper

        monkeypatch.setattr(bounds, "beta_v", counting(st.beta_v))
        monkeypatch.setattr(bounds, "mu_p", counting(st.mu_p))
        bikelis_at = st.SystemOracle.bikelis_at

        def counting_bikelis(oracle, z, v):
            calls.append(("beta_v_at", z, v))
            return bikelis_at(oracle, z, v)

        monkeypatch.setattr(st.SystemOracle, "bikelis_at", counting_bikelis)
        params = st.BoundParams(v=F(1, 2), w=F(1, 4), constants={"p5": 2.0})
        zs = [F(n, 2) for n in range(1, 6)]
        reports = st.p_bounds_row(four_coins, zs, params)
        # a table asks mu_p once and beta_v once; an exact oracle reads beta_v
        # from its moment profile and never sums it with scalars.beta_v
        assert calls.count(("mu_p", 2.0)) == 1
        assert calls.count(("beta_v_at", 0, F(1, 2))) == 1
        assert [call[0] for call in calls].count("beta_v") == 0
        # so does each calibrated system, for the bounds that read them
        systems = small_corpus[:3]
        for bound, asked in (("theorem", "beta_v_at"), ("concentration", "beta_v_at")):
            calls.clear()
            st.calibrate(systems, bound, params=params)
            assert calls == [(asked, 0, F(1, 2))] * len(systems), bound
        calls.clear()
        st.calibrate(systems, "p5", params=params)
        assert calls == [("mu_p", 2.0)] * len(systems)
        beta = st.SystemOracle(four_coins).beta_v_at(F(1, 2))
        assert type(beta) is F and beta == st.beta_v(four_coins, F(1, 2))
        # the table's floats are those of the one-off functions, bit for bit
        monkeypatch.undo()
        for n, report in zip(range(1, 6), reports):
            assert report.theorem_bound == st.theorem_bound(four_coins, F(n, 2), params)
            assert report.p5 == 2.0 * float(st.mu_p(four_coins, 2.0)) / (1.0 + n / 2) ** 2

    def test_float_system_matches_exact_system(self, small_corpus):
        # thresholds kept off the rational atoms, so float rounding of the
        # convolved values cannot move an atom across one
        for system in [s for s in small_corpus if s.n >= 2][:4]:
            exact, approx = st.SystemOracle(system), st.SystemOracle(as_float_system(system))
            for z in (-0.4913, 0.2587, 1.1309):
                for y in (0.2713, 0.6217):
                    assert approx.q(z, y) == pytest.approx(float(exact.q(z, y)), abs=1e-12)
                    assert approx.qstar(z, y) == pytest.approx(float(exact.qstar(z, y)), abs=1e-12)
                for mode in ("winsorize", "truncate"):
                    got = approx.delta(z, 0.5, mode)
                    assert type(got) is float
                    assert got == pytest.approx(float(exact.delta(z, F(1, 2), mode)), abs=1e-12)


def _mass_where(outcomes, keep):
    return sum((p for p, xs in outcomes if keep(sum(xs, F(0)))), F(0))


class TestIntegerReads:
    """Integer-pair reads of the exact oracle against brute-force enumeration."""

    @given(
        seed=hyp.integers(min_value=0, max_value=10**6),
        args=hyp.lists(query_args, min_size=2, max_size=5),
        w=hyp.sampled_from([F(1, 4), F(1, 2), F(1), 0.3]),
        factor=hyp.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_reads_match_enumeration(self, seed, args, w, factor):
        (system,) = st.gen_corpus(st.CorpusSpec(seed=seed, count=1, n_max=3, atoms_max=3))
        oracle = st.SystemOracle(system)
        raw = list(enumerate_outcomes(system))
        laws = [(oracle.law_sum(), raw)]
        for mode in WINSOR_MODES:
            capped = list(enumerate_outcomes([capped_sum_rv(rv, w, mode) for rv in system.rvs]))
            laws.append((oracle.law_capped(w, mode), capped))
            for z in args:
                expected = _mass_where(raw, lambda s: s > z) - _mass_where(capped, lambda s: s > z)
                got = oracle.delta(z, w, mode)
                assert got == expected and type(got) is F, (mode, z)
        for law, outcomes in laws:
            for t in args:
                above = _mass_where(outcomes, lambda s: s > t)
                ratio = _as_ratio(t)
                if ratio is not None:
                    # an unreduced pair names the same threshold
                    for num, den in (ratio, (ratio[0] * factor, ratio[1] * factor)):
                        a = law.tail_numerator(num, den)
                        assert F(a, law.den) == above, t
                        assert a / law.den == float(F(a, law.den))
                for b in args:
                    got = law.interval_mass(t, b)
                    assert got == _mass_where(outcomes, lambda s: t <= s <= b), (t, b)
                    assert type(got) is F
        classes = {}  # the kept-atom tuple of each class met
        for y in [*args, math.inf, -math.inf]:
            if y != y:
                for query in (oracle.signature, oracle.max_tail_at, oracle.restricted):
                    with pytest.raises(ValueError, match="NaN"):
                        query(y)
                with pytest.raises(ValueError, match="NaN"):
                    oracle.q(F(0), y)
                continue
            # a class is one integer, and one class is one kept-atom tuple
            sig, kept = oracle.signature(y), kept_atoms(system, y)
            assert type(sig) is int and classes.setdefault(sig, kept) == kept, y
            for z in args:
                q, qstar = oracle.q(z, y), oracle.qstar(z, y)
                assert q == q_by_enumeration(system, z, y), (z, y)
                assert qstar == qstar_by_enumeration(system, z, y), (z, y)
                assert type(q) is F and type(qstar) is F


class TestRows:
    """Delta and (Q, Q*) rows, z by z, against the scalar forms and brute-force enumeration."""

    @given(
        seed=hyp.integers(min_value=0, max_value=10**6),
        k=hyp.integers(min_value=-3, max_value=4),
        num=hyp.integers(min_value=-52, max_value=52),
        x=hyp.floats(min_value=-4, max_value=4, allow_subnormal=False),
        w=hyp.sampled_from([F(1, 4), F(1, 2), F(1), F(3, 10)]),
        y=hyp.sampled_from([F(1, 4), F(1, 2), F(1), F(2, 3), 0.6]),
    )
    @settings(max_examples=30, deadline=None)
    def test_exact_rows(self, seed, k, num, x, w, y):
        (system,) = st.gen_corpus(st.CorpusSpec(seed=seed, count=1, n_max=3, atoms_max=3))
        oracle = st.SystemOracle(system)
        # an int, a Fraction off every corpus lattice (value denominators are
        # at most 8, so the lattice scale has no factor 13), a negative
        # value, a float and both infinities
        zs = [k, F(num, 13), -F(abs(num) + 1, 13), x, math.inf, -math.inf]
        raw = list(enumerate_outcomes(system))
        for mode in WINSOR_MODES:
            capped = list(enumerate_outcomes([capped_sum_rv(rv, w, mode) for rv in system.rvs]))
            row = oracle.delta_row(zs, w, mode)
            assert row == [oracle.delta(z, w, mode) for z in zs]
            for z, got in zip(zs, row):
                above = _mass_where(raw, lambda s: s > z) - _mass_where(capped, lambda s: s > z)
                assert got == above and type(got) is F, (mode, z)
        row = oracle.concentration_row(zs, y)
        assert row == [oracle.concentration(z, y) for z in zs]
        assert row == [(oracle.q(z, y), oracle.qstar(z, y)) for z in zs]
        for z, (q, qstar) in zip(zs, row):
            assert q == q_by_enumeration(system, z, y), (z, y)
            assert qstar == qstar_by_enumeration(system, z, y), (z, y)
            assert type(q) is F and type(qstar) is F

    def test_float_rows(self, small_corpus):
        exact = next(s for s in small_corpus if s.n == 3)
        system = as_float_system(exact)
        oracle = st.SystemOracle(system)
        zs = [2, F(3, 13), -0.7541, 0.3017, math.inf, -math.inf]
        # the float system's outcomes are those of its exact twin, whose sums
        # lie off every z and threshold here
        raw = list(enumerate_outcomes(exact))
        for mode in WINSOR_MODES:
            exact_capped = [capped_sum_rv(rv, F(1, 2), mode) for rv in exact.rvs]
            capped = list(enumerate_outcomes(exact_capped))
            row = oracle.delta_row(zs, 0.5, mode)
            assert row == [oracle.delta(z, 0.5, mode) for z in zs]
            for z, got in zip(zs, row):
                above = _mass_where(raw, lambda s: s > z) - _mass_where(capped, lambda s: s > z)
                assert type(got) is float
                assert got == pytest.approx(float(above), abs=1e-12), (mode, z)
        for y in (0.5, 0.2713):
            row = oracle.concentration_row(zs, y)
            assert row == [oracle.concentration(z, y) for z in zs]
            for z, (q, qstar) in zip(zs, row):
                assert type(q) is float and type(qstar) is float
                assert q == pytest.approx(float(q_by_enumeration(exact, z, y)), abs=1e-12)
                assert qstar == pytest.approx(float(qstar_by_enumeration(exact, z, y)), abs=1e-12)

    @given(
        seed=hyp.integers(min_value=0, max_value=10**6),
        ys=hyp.lists(query_args.filter(lambda y: y == y), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_lattice_max_tail(self, seed, ys):
        # the exact oracle reads the max tail from its lattice summands
        (system,) = st.gen_corpus(st.CorpusSpec(seed=seed, count=1, n_max=4))
        oracle = st.SystemOracle(system)
        for y in ys + ys:
            got = oracle.max_tail_at(y)
            assert got == st.max_tail(system, y) and type(got) is F, y


def _tails(law, outcomes):
    """Each law tail on a grid through the atoms, against the enumerated outcomes."""
    for t in [F(n, 12) for n in range(-48, 49, 5)] + [0.3, -0.7]:
        assert law.tail(t) == _mass_where(outcomes, lambda s: s > t), t
    assert law.mass == sum((p for p, _ in outcomes), F(0))


class TestLatticeCapLaws:
    """Restricted, capped and leave-one-out laws built on the lattice, against enumeration."""

    @given(
        seed=hyp.integers(min_value=0, max_value=10**6),
        y=hyp.one_of(
            hyp.builds(F, hyp.integers(-16, 16), hyp.sampled_from([1, 2, 4, 7])),
            hyp.floats(min_value=-3, max_value=3, allow_subnormal=False),
        ),
        w=hyp.one_of(
            hyp.builds(F, hyp.integers(1, 16), hyp.sampled_from([1, 2, 4, 7, 11])),
            hyp.sampled_from([0.3, F(5)]),
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_laws_match_enumeration(self, seed, y, w):
        (system,) = st.gen_corpus(st.CorpusSpec(seed=seed, count=1, n_max=3, atoms_max=3))
        oracle = st.SystemOracle(system)
        rvs = system.rvs
        restricted = [st.restrict_at_most(rv, y) for rv in rvs]
        loo, full = oracle.restricted(y)
        _tails(full, list(enumerate_outcomes(restricted)))
        for i, law in enumerate(loo):
            _tails(law, list(enumerate_outcomes(restricted[:i] + restricted[i + 1 :])))
        for mode in WINSOR_MODES:
            capped = [capped_sum_rv(rv, w, mode) for rv in rvs]
            _tails(oracle.law_capped(w, mode), list(enumerate_outcomes(capped)))
            for i, law in enumerate(oracle.loo_capped(w, mode)):
                _tails(law, list(enumerate_outcomes(capped[:i] + capped[i + 1 :])))
            moves_none = all(rv.values[-1] <= w for rv in rvs)
            assert (oracle.law_capped(w, mode) is oracle.law_sum()) == moves_none

    @pytest.mark.parametrize("mode", WINSOR_MODES)
    def test_cap_above_every_atom_reuses_the_raw_law(self, four_coins, mode, monkeypatch):
        from sumtails import bounds

        oracle = st.SystemOracle(four_coins)
        raw = oracle.law_sum()

        def no_convolution(*_args):
            raise AssertionError("a cap that moves no atom convolves nothing")

        monkeypatch.setattr(bounds, "_convolve_two", no_convolution)
        # the coins' largest atom is 1/2: a cap there or above moves no atom
        for w in (F(1, 2), 0.5, 1, F(7, 3)):
            assert oracle.law_capped(w, mode) is raw

    def test_cap_off_the_lattice_for_some_summands(self):
        # w = 1/3 moves the atom at 1 of the first summand and no atom of the second
        system = st.make_system(
            [[(-1, F(1, 2)), (1, F(1, 2))], [(F(-1, 4), F(1, 2)), (F(1, 4), F(1, 2))]],
            unit_variance=False,
        )
        oracle = st.SystemOracle(system)
        law = oracle.law_capped(F(1, 3), "winsorize")
        assert law.scale == 12
        capped = [st.winsorize(rv, F(1, 3)) for rv in system.rvs]
        _tails(law, list(enumerate_outcomes(capped)))
        for i, loo in enumerate(oracle.loo_capped(F(1, 3), "winsorize")):
            _tails(loo, list(enumerate_outcomes(capped[:i] + capped[i + 1 :])))

    def test_equal_summands_share_one_lattice_measure(self):
        coin = {"atoms": [{"x": "-1/2", "p": "1/2"}, {"x": "1/2", "p": "1/2"}]}
        three = {"atoms": [{"x": -1, "p": "1/4"}, {"x": 0, "p": "1/2"}, {"x": 1, "p": "1/4"}]}
        system = st.system_from_dict({"rvs": [coin, three, coin], "unit_variance": False})
        lattice = st.SystemOracle(system)._lattice_rvs
        assert lattice[0] is lattice[2] and lattice[0] is not lattice[1]
        assert [m.to_submeasure().values for m in lattice] == [rv.values for rv in system.rvs]

    def test_loo_capped_memo_keys_hash_no_fraction(self, four_coins):
        oracle = st.SystemOracle(four_coins)
        first = oracle.loo_capped(F(1, 4), "truncate")
        assert oracle.loo_capped(F(1, 4), "truncate") is first
        assert list(oracle._loo_capped) == [((1, 4), "truncate")]
        # the oracle keeps six caches, and the scalars asked once per table,
        # sweep or calibrated system grow none of them: an exact and a float
        # argument give equal values
        caches = {name: dict(v) for name, v in vars(oracle).items() if isinstance(v, dict)}
        assert sorted(caches) == sorted(SIX_CACHES)
        for query in (oracle.sum_exceedance, oracle.beta_v_at, oracle.mu_p_at):
            assert query(F(1, 4)) == query(0.25)
        assert {name: dict(getattr(oracle, name)) for name in SIX_CACHES} == caches


class TestCapFallback:
    def test_small_cap_does_not_raise(self, small_corpus):
        system = next(s for s in small_corpus if s.n >= 3)
        params = st.BoundParams(w=F(1, 2), y=F(1, 2))
        capped = st.p_bounds(system, 1, params, oracle=st.SystemOracle(system, cap=3))
        exact = st.p_bounds(system, 1, params)
        assert capped.delta_w is None
        assert capped.p2 is None
        assert capped.p3 >= exact.p3
        assert capped.p3 == pytest.approx(
            float(st.max_tail(system, F(1, 2)) + 2 * st.bh_bound(1, F(1, 2)) * exact.p1)
        )
        assert capped.best == min(capped.p1, capped.p3)
        assert any("Bennett-Hoeffding" in w for w in capped.warnings)

    def test_auto_y_keeps_candidates_that_fit(self, small_corpus):
        mixed = 0
        for system in [s for s in small_corpus if s.n >= 2][:6]:
            oracle = st.SystemOracle(system, cap=3)
            full = st.SystemOracle(system)
            for z in (F(1, 2), F(2), F(4)):
                capped = st.p_bounds(system, z, st.BoundParams(w=F(1, 4)), oracle=oracle)
                exact = st.p_bounds(system, z, st.BoundParams(w=F(1, 4)), oracle=full)
                assert capped.p3 >= exact.p3
                if capped.p2 is not None:
                    assert capped.p2 >= exact.p2
                    # a small y keeps few atoms, so some y values fit the cap
                    # while larger ones fall back to Bennett-Hoeffding
                    if any("Bennett-Hoeffding" in w for w in capped.warnings):
                        mixed += 1
        assert mixed > 0

    def test_cap_failures_are_remembered(self, small_corpus, monkeypatch):
        from sumtails import bounds

        system = next(s for s in small_corpus if [len(rv.values) for rv in s.rvs] == [4] * 4)
        convolve_two = bounds._convolve_two
        calls = []

        def counting(*args):
            calls.append(args)
            return convolve_two(*args)

        monkeypatch.setattr(bounds, "_convolve_two", counting)
        params = st.BoundParams(w=F(1, 2))
        oracle = st.SystemOracle(system, cap=20)
        for z in (F(1), F(2)):
            first = st.p_bounds(system, z, params, oracle=oracle)
            assert first.delta_w is None
            assert any("Bennett-Hoeffding" in w for w in first.warnings)
            made = len(calls)
            # a repeat neither rebuilds the laws that fit nor re-fails the others
            assert st.p_bounds(system, z, params, oracle=oracle) == first
            assert len(calls) == made
            assert first == st.p_bounds(system, z, params, oracle=st.SystemOracle(system, cap=20))
        made = len(calls)
        errors = []
        for _ in range(2):
            with pytest.raises(st.ConvolutionCapError, match=r"\(cap 20\)") as info:
                oracle.delta(F(1), params.w, "winsorize")
            errors.append(info.value)
        assert len(calls) == made
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])

    def test_no_surrogate_above_unit_variance(self):
        big = st.make_system([[(F(-10), F(1, 2)), (F(10), F(1, 2))]] * 2, unit_variance=False)
        z, params = 15, st.BoundParams(w=F(5), y=F(10))
        # the unit-variance Bennett-Hoeffding bound undercuts Q* here
        assert st.bh_bound(z, params.y) < st.SystemOracle(big).qstar(z, params.y)
        exact = st.p_bounds(big, z, params)
        capped = st.p_bounds(big, z, params, oracle=st.SystemOracle(big, cap=1))
        assert (capped.p2, capped.p3) == (None, None)
        assert capped.best == capped.p1 == exact.p1
        assert capped.best >= exact.delta_w
        assert any("total variance above one" in w for w in capped.warnings)

    def test_writers_and_mc_accept_missing_p2(self, two_coins, monkeypatch):
        import json

        from sumtails import mc

        params = st.BoundParams(w=F(1, 4), y=F(1, 2))
        report = st.p_bounds(two_coins, 1, params, oracle=st.SystemOracle(two_coins, cap=1))
        assert report.p2 is None
        buf = io.StringIO()
        st.bound_reports_to_csv([report], buf)
        assert buf.getvalue().splitlines()[1].split(",")[3] == ""
        assert json.loads(st.bound_reports_to_json([report]))[0]["p2"] == ""

        monkeypatch.setattr(mc, "SystemOracle", lambda system: st.SystemOracle(system, cap=1))
        spec = st.SamplerSpec("discrete-system", system=two_coins)
        checked = st.mc_check_bounds(spec, params, [0.0, 1.0], 2000, 3)
        for row in checked.rows:
            assert row.p2 is None
            assert row.bound == min(row.p1, row.p3)


class TestPBounds:
    def test_two_coin_values(self, two_coins):
        report = st.p_bounds(two_coins, F(2, 5), st.BoundParams(w=F(3, 10), y=F(1, 2)))
        assert report.p1 == F(3, 4)
        assert report.p2 == F(1, 2)  # max-tail term vanishes at y = 1/2
        assert report.p3 == F(3, 4)
        assert report.delta_w == 0
        assert report.best == F(1, 2)

    @pytest.mark.parametrize(
        "z, params, name",
        [
            (1e200, st.BoundParams(), "1e+200"),  # (c + z)^p overflows
            # z itself is past the float range, so it keeps its exact name
            (F(10**400), st.BoundParams(), str(10**400)),
            (-2000, st.BoundParams(), "-2000.0"),  # e^(-lam z) overflows
            (2, st.BoundParams(p=1000.0), "2.0"),
            # (c + z)^p underflows to 0.0; z is named by its float
            (F(1, 10**200), st.BoundParams(c=1e-300), "1e-200"),
            (math.inf, st.BoundParams(), "inf"),
            (math.nan, st.BoundParams(), "nan"),
        ],
        ids=["1e200", "10^400", "-2000", "p-1000", "c-1e-300", "inf", "nan"],
    )
    def test_z_without_a_float_report(self, two_coins, z, params, name):
        with pytest.raises(ValueError) as err:
            st.p_bounds(two_coins, z, params)
        assert str(err.value).startswith(f"z = {name} has no float report: ")

    def test_mu_p_past_the_float_range(self):
        # an atom at -2 makes mu_5000 about 2^5000; P4/P5 apply at z = 0.1 only
        class NoDelta(st.SystemOracle):
            def delta_row(self, zs, w, mode):
                raise AssertionError("the Delta row was asked before mu_p was checked")

        system = st.load_system(GOLDEN / "corpus_seed1_system10.json")
        params = st.BoundParams(p=5000.0, c=0.9)
        with pytest.raises(ValueError) as err:
            st.p_bounds_row(system, [F(-1), F(1, 10)], params, oracle=NoDelta(system))
        assert str(err.value) == "mu_p at p = 5000.0 overflows a float"
        assert st.p_bounds(system, F(-1), params).p5 is None  # no z > 0 reads mu_p

    def test_capping_above_support_is_free(self, four_coins):
        oracle = st.SystemOracle(four_coins)
        params = st.BoundParams(w=1)
        for z in (F(-1), F(0), F(1), F(2)):
            report = st.p_bounds(four_coins, z, params, oracle=oracle)
            assert report.delta_w == 0
            assert report.p1 == 0

    def test_p5_with_default_constant(self, four_coins):
        report = st.p_bounds(four_coins, 3, st.BoundParams(w=1, p=2.0, c=1.0))
        assert report.p5 == pytest.approx(0.0625, abs=1e-15)
        assert any("p5" in w for w in report.warnings)
        # defaulted constants stay out of the best composite
        assert report.best == report.p1

    def test_supplied_constants_enter_best(self, four_coins):
        params = st.BoundParams(w=1, constants={"p4": 1.0, "p5": 1.0})
        report = st.p_bounds(four_coins, 3, params)
        assert report.warnings == ()
        assert report.best == min(report.p1, report.p2, report.p3, report.p4, report.p5)

    def test_not_applicable_below_zero(self, two_coins):
        report = st.p_bounds(two_coins, 0, st.BoundParams(w=F(3, 10)))
        assert report.p4 is None and report.p5 is None

    def test_delta_dominated_exactly(self, small_corpus):
        params = st.BoundParams(w=F(1, 2), y=F(1, 2))
        for system in small_corpus[:12]:
            oracle = st.SystemOracle(system)
            for mode in ("winsorize", "truncate"):
                for z in (F(0), F(1, 2), F(1), F(3)):
                    report = st.p_bounds(system, z, params, mode, oracle=oracle)
                    assert 0 <= report.delta_w <= min(report.p1, report.p2, report.p3)

    def test_sum_of_tails_lemma(self, small_corpus):
        # sum_i P(X_i > w) <= m/(1-m) with m = P(max_i X_i > w), exactly
        for system in small_corpus:
            oracle = st.SystemOracle(system)
            for w in (F(1, 4), F(1, 2), F(1)):
                m = oracle.max_tail_at(w)
                if m == 1:
                    continue
                assert oracle.sum_exceedance(w) <= m / (1 - m)

    def test_rejects_unknown_mode(self, two_coins):
        with pytest.raises(ValueError, match="mode"):
            st.p_bounds(two_coins, 1, mode="clip")


def as_float_system(system):
    return st.make_system(
        [[(float(x), float(p)) for x, p in zip(rv.values, rv.masses)] for rv in system.rvs],
        exact=False,
    )


#: systems of the row cross-check: exact corpus systems, their float
#: copies, and the float extremal systems of three and five summands
ROW_CORPUS = st.gen_corpus(st.CorpusSpec(seed=5, count=6, n_max=3))
ROW_SYSTEMS = [
    *ROW_CORPUS,
    *(as_float_system(s) for s in ROW_CORPUS[:3]),
    st.extremal_system(3)[0],
    st.extremal_system(5)[0],
]

#: z values of a row: exact and float, zero and negative
row_zs = hyp.one_of(
    hyp.builds(F, hyp.integers(min_value=-4, max_value=24), hyp.sampled_from([1, 2, 4, 3])),
    hyp.sampled_from([0, 0.0, -0.5, 0.7, 1.0, 2.3, 3]),
)


def _oracle(system, cap):
    return st.SystemOracle(system) if cap is None else st.SystemOracle(system, cap=cap)


class TestBoundsRow:
    """p_bounds_row against its rows of one, each on a fresh oracle."""

    @given(
        index=hyp.integers(min_value=0, max_value=len(ROW_SYSTEMS) - 1),
        zs=hyp.lists(row_zs, min_size=1, max_size=6),
        y=hyp.sampled_from(["auto", "auto", F(1, 2), F(1, 3), 0.3, 0.5]),
        w=hyp.sampled_from([F(1, 4), F(1, 2), 1, 0.5]),
        cap=hyp.sampled_from([None, None, 3, 8]),
        mode=hyp.sampled_from(WINSOR_MODES),
        constants=hyp.sampled_from([{}, {"p4": 1.0, "p5": 2.0}]),
    )
    # z = 1 and z = 2 share the auto y values 1/2, 1/4, ... and the grid
    # repeats z = 1, so a y is asked at several z in one row
    @example(index=0, zs=[F(1), F(2), 0, F(1), -1], y="auto", w=F(1, 4), cap=None,
             mode="winsorize", constants={})
    @example(index=1, zs=[F(1, 2), F(2), 0.7], y="auto", w=F(1, 4), cap=8,
             mode="truncate", constants={})
    @settings(max_examples=60, deadline=None)
    def test_row_equals_rows_of_one(self, index, zs, y, w, cap, mode, constants):
        system = ROW_SYSTEMS[index]
        params = st.BoundParams(w=w, y=y, constants=constants)
        row = st.p_bounds_row(system, zs, params, mode, oracle=_oracle(system, cap))
        ones = [st.p_bounds_row(system, (z,), params, mode, oracle=_oracle(system, cap))[0]
                for z in zs]
        assert row == ones
        for got, want in zip(row, ones):
            assert [type(getattr(got, f.name)) for f in dataclasses.fields(got)] == [
                type(getattr(want, f.name)) for f in dataclasses.fields(want)
            ]
        assert [st.p_bounds(system, z, params, mode, oracle=_oracle(system, cap)) for z in zs] == row

    def test_small_cap_skips_delta_and_caps_classes(self):
        # the second example above: the capped sum is past the budget at
        # every z, and a y class of z = 2 only, so its neighbours in the
        # row keep their own P2/P3
        system = ROW_SYSTEMS[1]
        params = st.BoundParams(w=F(1, 4))
        reports = st.p_bounds_row(system, [F(1, 2), F(2), 0.7], params, oracle=_oracle(system, 8))
        assert [report.delta_w for report in reports] == [None] * 3
        assert [len(fallback_warnings(report)) for report in reports] == [0, 1, 0]

    def test_bad_z_is_checked_before_the_oracle_is_asked(self, two_coins):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"the oracle was asked for {name} before z was checked")

        zs = [0, F(1, 2), 1.5, 1e200]
        with pytest.raises(ValueError) as err:
            st.p_bounds_row(two_coins, zs, st.BoundParams(w=F(1, 4)), oracle=Untouchable())
        assert str(err.value).startswith("z = 1e+200 has no float report: ")

    def test_empty_row(self, two_coins):
        assert st.p_bounds_row(two_coins, [], oracle=object()) == []


class ScaledOracle(st.SystemOracle):
    """Q and Q* times ``factor``, so the least P2/P3 candidate moves across the y grid."""

    def __init__(self, system, factor, cap):
        super().__init__(system, cap=cap)
        self.factor = factor

    def concentration_row(self, zs, y):
        row = super().concentration_row(zs, y)
        return [(self.factor * q, self.factor * qstar) for q, qstar in row]


class RecordingOracle(ScaledOracle):
    """A :class:`ScaledOracle` that records the ``_key`` of the y of each (Q, Q*) row asked."""

    def __init__(self, system, factor, cap):
        super().__init__(system, factor, cap)
        self.asked = []

    def concentration_row(self, zs, y):
        self.asked.append(_key(y))
        return super().concentration_row(zs, y)


class TestPairsByY:
    """One (Q, Q*) row per distinct y of a whole z row, for the bounds table and the sweep."""

    #: z values that share auto y values (1/2 is a halving of 1, 2 and 4)
    ZS = [F(n, 4) for n in range(-2, 20)] + [0.7, 1.4, F(1), 2.8]

    @pytest.mark.parametrize("cap", [st.CONVOLUTION_CAP, 8])
    def test_table_asks_each_y_once(self, cap):
        params = st.BoundParams(w=F(1, 4))
        for system in ROW_SYSTEMS:
            oracle = RecordingOracle(system, 1, cap)
            row = st.p_bounds_row(system, self.ZS, params, oracle=oracle)
            classes = [_y_classes(st.SystemOracle(system), z, params.p, params.w) for z in self.ZS]
            want = {_key(y) for least in classes for y in least.values()}
            assert len(want) < sum(map(len, classes))  # some y is asked at several z
            assert len(oracle.asked) == len(set(oracle.asked))
            assert set(oracle.asked) == want
            assert row == [
                st.p_bounds(system, z, params, oracle=_oracle(system, cap)) for z in self.ZS
            ]

    @pytest.mark.parametrize("cap", [st.CONVOLUTION_CAP, 5])
    @pytest.mark.parametrize("factor", [0, F(1, 8)])
    def test_sweep_asks_each_y_once(self, small_corpus, cap, factor):
        # Q and Q* scaled down make violations at some cells, and the small
        # cap skips some y values
        from sumtails.verify import _sweep_ys

        zs = [z for z in self.ZS if z >= 0]
        y_grid = [F(1, 4), F(1, 2), 1]
        want = {_key(y) for z in zs for y in _sweep_ys(z, y_grid, 2)}
        for system in small_corpus[:6]:
            oracle, log = RecordingOracle(system, factor, cap), []
            found = st.verify_osipov(system, zs, y_grid=y_grid, oracle=oracle, skip_log=log)
            assert len(oracle.asked) == len(set(oracle.asked))
            assert set(oracle.asked) == want
            one_found, one_log = [], []
            for z in zs:
                one = ScaledOracle(system, factor, cap)
                one_found += st.verify_osipov(
                    system, [z], y_grid=y_grid, oracle=one, skip_log=one_log
                )
            assert (found, log) == (one_found, one_log)


def reference_p2_p3(system, z, params, oracle):
    """P2 and P3 minimized over every y candidate in plain number arithmetic.

    For a unit-variance system, where a y past the cap offers a
    Bennett-Hoeffding P3 candidate.  Returns (P2, P3, k, m): k of the m
    candidates fell back.
    """
    w = params.w
    ys = _auto_y_candidates(z, params.p, w) if params.y == "auto" else [params.y]
    p1 = st.max_tail(system, w)
    sum_exc = sum((rv.tail(w) for rv in system.rvs), F(0) if system.exact else 0.0)
    p2s, p3s, fallback = [], [], []
    for y in ys:
        mt = st.max_tail(system, y)
        try:
            q, qstar = oracle.q(z, y), oracle.qstar(z, y)
        except st.ConvolutionCapError:
            fallback.append(mt + 2 * st.bh_bound(z, y) * p1)
            continue
        p2s.append(mt + q * sum_exc)
        p3s.append(mt + 2 * qstar * p1)
    return min(p2s, default=None), min(p3s + fallback, default=None), len(fallback), len(ys)


def fallback_warnings(report):
    """The report's warnings that count y values past the atom budget."""
    return [w for w in report.warnings if " y values: " in w]


def expected_fallback(k, m):
    """:func:`fallback_warnings` of a unit-variance report where k of m y values fell back."""
    if not k:
        return []
    return [
        f"Q* in P3 replaced by the Bennett-Hoeffding bound at {k} of {m} y values: "
        "convolution cap exceeded"
    ]


class TestYSearch:
    """p_bounds' cross-multiplied y search against a plain-arithmetic loop."""

    @given(
        seed=hyp.integers(min_value=0, max_value=10**6),
        exact=hyp.booleans(),
        z=hyp.sampled_from([F(n, 4) for n in range(-2, 21)] + [0.7, 2.3, 3]),
        y=hyp.sampled_from(["auto", "auto", F(1, 4), F(1, 2), F(3, 2)]),
        # at p = 1, 6 and 14 the scaled y lies among the halvings, so a
        # signature class need not be contiguous in candidate order
        p=hyp.sampled_from([1, 2.0, 2.5, 3.0, 6.0, 14.0]),
        w=hyp.sampled_from([F(1, 4), F(1, 2), F(1)]),
        factor=hyp.sampled_from([1, F(1, 4), 0]),
        cap=hyp.sampled_from([3, 20, st.CONVOLUTION_CAP]),
        mode=hyp.sampled_from(WINSOR_MODES),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, exact, z, y, p, w, factor, cap, mode):
        (system,) = st.gen_corpus(st.CorpusSpec(seed=seed, count=1, n_max=4))
        if not exact:
            system, factor = as_float_system(system), float(factor)
        params = st.BoundParams(w=w, p=p, y=y)
        report = st.p_bounds(system, z, params, mode, oracle=ScaledOracle(system, factor, cap))
        p2, p3, k, m = reference_p2_p3(system, z, params, ScaledOracle(system, factor, cap))
        assert (report.p2, report.p3) == (p2, p3)
        assert (type(report.p2), type(report.p3)) == (type(p2), type(p3))
        assert report.best == min(b for b in (report.p1, p2, p3) if b is not None)
        assert fallback_warnings(report) == expected_fallback(k, m)

    def test_matches_reference_on_corpus(self, small_corpus):
        # ranking the y values by P2's weight instead of P3's changes the
        # result at few cells, which a hypothesis sample rarely meets; this
        # sweep meets several
        for system in small_corpus[:24]:
            for factor in (1, F(1, 4)):
                oracle = ScaledOracle(system, factor, st.CONVOLUTION_CAP)
                ref_oracle = ScaledOracle(system, factor, st.CONVOLUTION_CAP)
                for w in (F(1, 4), F(1, 2), F(1)):
                    params = st.BoundParams(w=w)
                    for n in range(21):
                        report = st.p_bounds(system, F(n, 4), params, oracle=oracle)
                        ref = reference_p2_p3(system, F(n, 4), params, ref_oracle)
                        assert (report.p2, report.p3) == ref[:2]

    def test_classes_partition_the_candidates(self, small_corpus):
        # the candidates of _auto_y_candidates, grouped by signature in order
        # of first appearance, each class led by its least y, whether the
        # exact grid of an exact system at an exact z and integer p or the
        # numbers of every other case give them
        for system in small_corpus[:4] + [as_float_system(s) for s in small_corpus[:2]]:
            oracle = st.SystemOracle(system)
            for z, p in itertools.product((F(9, 4), 3, 2.3, F(-1)), (1, 2.0, 2.5, 6.0, 14.0)):
                ys = _auto_y_candidates(z, p, F(1, 2))
                least = _y_classes(oracle, z, p, F(1, 2))
                kept = [kept_atoms(system, y) for y in ys]
                want = {}
                for k, y in zip(kept, ys):
                    want[k] = min(want.get(k, y), y)
                # the same classes, in the same order, each led by the same y
                assert list(least.values()) == list(want.values())
                assert [type(y) for y in least.values()] == [type(y) for y in want.values()]
                keys = [oracle.signature(y) for y in ys]
                assert list(least) == list(dict.fromkeys(keys))
                for (k1, t1), (k2, t2) in itertools.combinations(zip(keys, kept), 2):
                    assert (k1 == k2) == (t1 == t2)

    def test_fallback_and_ties_covered(self, small_corpus):
        # the small cap mixes fitting y values with Bennett-Hoeffding ones, and
        # Q = Q* = 0 makes P2 and P3 tie at every y with P(max X_i > y) = 0
        system = next(s for s in small_corpus if s.n == 4)
        params = st.BoundParams(w=F(1, 4))
        for factor, cap in ((1, 20), (0, st.CONVOLUTION_CAP)):
            for z in (F(1, 2), F(2), F(4)):
                report = st.p_bounds(system, z, params, oracle=ScaledOracle(system, factor, cap))
                p2, p3, k, m = reference_p2_p3(system, z, params, ScaledOracle(system, factor, cap))
                assert (report.p2, report.p3) == (p2, p3)
                assert fallback_warnings(report) == expected_fallback(k, m)
                assert any("Bennett-Hoeffding" in w for w in report.warnings) == (cap == 20)

    def test_max_tail_once_per_signature(self, small_corpus, monkeypatch):
        from sumtails import bounds

        calls = []

        def counting(system, y):
            calls.append((id(system), tuple(bisect_right(rv.values, y) for rv in system.rvs)))
            return st.max_tail(system, y)

        monkeypatch.setattr(bounds, "max_tail", counting)
        signature = st.SystemOracle.signature
        ys_seen = set()  # the distinct y values asked of each oracle

        def recording(oracle, y):
            ys_seen.add((id(oracle), _key(y)))
            return signature(oracle, y)

        monkeypatch.setattr(st.SystemOracle, "signature", recording)
        # an exact oracle reads the max tail from its lattice summands, so
        # only a float system calls max_tail
        systems = [as_float_system(s) for s in small_corpus if s.n >= 3][:3]
        oracles = [st.SystemOracle(system) for system in systems]
        for system, oracle in zip(systems, oracles):
            params = st.BoundParams(w=F(1, 2))
            for mode in WINSOR_MODES:
                for n in range(33):
                    st.p_bounds(system, F(n, 4), params, mode, oracle=oracle)
        assert len(calls) == len(set(calls))
        # many y values share a signature, so the cache saves most computations
        assert 4 * len(calls) < len(ys_seen)

    @given(
        num=hyp.integers(min_value=1, max_value=10**9),
        den=hyp.integers(min_value=1, max_value=10**9),
    )
    def test_halvings_are_exact(self, num, den):
        z = F(num, den)
        halvings = [z * F(1, 2) ** j for j in range(1, 13)]
        assert _auto_y_candidates(z, 3.0, F(1)) == [2 * z / 5, *halvings]
        # at p = 2 the scaled choice z / 2 is the first halving
        assert _auto_y_candidates(z, 2.0, F(1)) == halvings
        assert all(type(y) is F for y in _auto_y_candidates(z, 3.0, F(1)))
        assert _auto_y_candidates(num, 2.0, F(1)) == [num * F(1, 2) ** j for j in range(1, 13)]
        floats = _auto_y_candidates(z, 2.5, F(1))
        assert floats == [float(z) / 2.25, *(float(z) * 0.5**j for j in range(1, 13))]
        assert all(type(y) is float for y in floats)
        # at p = 6 and p = 14 the scaled choice z / (1 + p/2) is the 2nd and
        # the 3rd halving: it comes first, and that halving is left out
        for z in (z, num):
            halvings = [z * F(1, 2) ** j for j in range(1, 13)]
            got6, got14 = _auto_y_candidates(z, 6.0, F(1)), _auto_y_candidates(z, 14, F(1))
            assert got6 == [halvings[1], halvings[0], *halvings[2:]]
            assert got14 == [halvings[2], *halvings[:2], *halvings[3:]]
            assert all(type(y) is F for y in got6 + got14)
            # every integer p gives the distinct values in first-seen order
            for p in (1, 2, 3, 6, 14, 30, 8190, 16382):
                want = list(dict.fromkeys([scaled_y(z, p), *halvings]))
                assert _auto_y_candidates(z, float(p), F(1)) == want, p


class TestBikelis:
    def test_equals_beta_at_zero(self, four_coins, small_corpus):
        assert st.bikelis_sum(four_coins, 0, 1) == st.beta_v(four_coins, 1)
        for system in small_corpus[:10]:
            assert st.bikelis_sum(system, 0, 1) == st.beta_v(system, 1)

    def test_four_coins_at_one(self, four_coins):
        assert st.bikelis_sum(four_coins, 1, 1) == F(1, 16)

    def test_dominated_by_beta_and_decreasing(self, four_coins):
        beta1 = st.beta_v(four_coins, 1)
        vals = [st.bikelis_sum(four_coins, F(n, 2), 1) for n in range(0, 17)]
        assert all(v <= beta1 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_moment_profile_equals_bikelis_sum(self, four_coins, small_corpus):
        for system in [four_coins, *small_corpus[:16]]:
            oracle = st.SystemOracle(system)
            atoms = sorted({abs(x) for rv in system.rvs for x in rv.values} - {0})
            cases = [(F(n, 4), v) for n in (-5, 0, 1, 6, 32) for v in (1, F(1, 2), F(7, 3), 0.7)]
            # scales v (1 + |z|) equal to an atom's |x|, where g switches branch
            cases += [(0, x) for x in atoms] + [(F(-1, 2), x * F(2, 3)) for x in atoms]
            cases += [(1.5, float(x) / 2.5) for x in atoms] + [(-0.25, 2.0), (3, 1)]
            for z, v in cases:
                got = oracle.bikelis_at(z, v)
                assert got == st.bikelis_sum(system, z, v), (z, v)
                assert type(got) is F, (z, v)

    def test_float_systems_keep_bikelis_sum(self, small_corpus):
        for system in small_corpus[:4]:
            approx = as_float_system(system)
            oracle = st.SystemOracle(approx)
            for z, v in ((F(1, 2), 1), (2.25, 0.5), (0, F(1, 3))):
                got = oracle.bikelis_at(z, v)
                assert type(got) is float and got == st.bikelis_sum(approx, z, v)


class TestCompositeBounds:
    def test_theorem_values(self, four_coins):
        params = st.BoundParams(lam=0.5)
        assert st.theorem_bound(four_coins, 0, params) == pytest.approx(0.5, abs=1e-15)
        assert st.theorem_bound(four_coins, 2, params) == pytest.approx(
            0.18393972058572117, rel=1e-14
        )

    def test_theorem_scales_with_constant(self, four_coins):
        base = st.theorem_bound(four_coins, 1)
        doubled = st.theorem_bound(four_coins, 1, st.BoundParams(constants={"theorem": 2.0}))
        assert doubled == pytest.approx(2 * base, rel=1e-15)

    def test_corollary_composition(self, two_coins):
        params = st.BoundParams(w=F(3, 10), y=F(1, 2), lam=0.5)
        assert st.p_bounds(two_coins, F(2, 5), params).corollary_bound == pytest.approx(
            0.7046826882694954, rel=1e-13
        )

    def test_corollary_zero_when_capping_free(self, four_coins):
        # all atoms <= w: P1 = 0 and the best explicit bound is 0
        report = st.p_bounds(four_coins, 2, st.BoundParams(w=1))
        assert float(report.best) == 0.0
        assert st.p_bounds(four_coins, 2, st.BoundParams(w=1)).corollary_bound == pytest.approx(
            st.theorem_bound(four_coins, 2, st.BoundParams(w=1)), rel=1e-15
        )

    def test_degenerate_zero_system(self):
        # all mass at zero: beta_v = 0 and P1 = 0, so both bounds vanish
        flat = st.make_system([[(0, 1)]], unit_variance=False)
        assert st.theorem_bound(flat, 2.0) == 0.0
        assert st.p_bounds(flat, 2.0).corollary_bound == 0.0

    def test_strictly_decreasing_in_z(self, four_coins):
        params = st.BoundParams(w=1)
        zs = [F(n, 2) for n in range(0, 13)]
        theorems = [st.theorem_bound(four_coins, z, params) for z in zs]
        assert all(a > b for a, b in zip(theorems, theorems[1:]))
        corollaries = [st.p_bounds(four_coins, z, params).corollary_bound for z in zs]
        assert all(a > b for a, b in zip(corollaries, corollaries[1:]))


class TestSerialization:
    def test_csv_layout_and_rationals(self, two_coins):
        report = st.p_bounds(two_coins, F(2, 5), st.BoundParams(w=F(3, 10), y=F(1, 2)))
        buf = io.StringIO()
        st.bound_reports_to_csv([report], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "z,delta_w,p1,p2,p3,p4,p5,best,theorem,corollary,bikelis"
        cells = lines[1].split(",")
        assert cells[2] == "3/4"  # p1 printed as num/den
        assert cells[1] == "0/1"

    def test_json_round_trippable(self, two_coins):
        import json

        report = st.p_bounds(two_coins, 0, st.BoundParams(w=F(3, 10)))
        rows = json.loads(st.bound_reports_to_json([report]))
        assert rows[0]["p4"] == ""  # not applicable at z = 0
        assert rows[0]["winsor_mode"] == "winsorize"

    def test_column_table_names_each_report_field_once(self):
        import dataclasses

        from sumtails.bounds import _COLUMN_FIELDS, _CSV_COLUMNS

        names = [name for _, name in _COLUMN_FIELDS]
        others = {"winsor_mode", "warnings"}
        assert sorted(names) == sorted(
            f.name for f in dataclasses.fields(st.BoundReport) if f.name not in others
        )
        assert _CSV_COLUMNS == tuple(column for column, _ in _COLUMN_FIELDS)

    def test_byte_determinism(self, two_coins):
        params = st.BoundParams(w=F(3, 10))
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            reports = [st.p_bounds(two_coins, F(n, 4), params) for n in range(9)]
            st.bound_reports_to_csv(reports, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


class TestBoundParams:
    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            st.BoundParams(v=0)
        with pytest.raises(ValueError):
            st.BoundParams(lam=-1)
        with pytest.raises(ValueError):
            st.BoundParams(y=0)
        for name in ("v", "w", "lam", "p", "c", "y"):
            with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
                st.BoundParams(**{name: math.inf})
        with pytest.raises(ValueError, match="constant 'p5' must be finite"):
            st.BoundParams(constants={"p5": math.inf})

    def test_float_range(self):
        st.BoundParams(v=F(1, 10**300), w=5e-324).check_float_range()
        for name in ("v", "w"):
            with pytest.raises(ValueError, match=f"parameter {name} must be at most"):
                st.BoundParams(**{name: F(10**400)}).check_float_range()
            with pytest.raises(ValueError, match=f"parameter {name} is positive but rounds to 0.0"):
                st.BoundParams(**{name: F(1, 10**400)}).check_float_range()

    def test_unknown_constant_rejected(self):
        with pytest.raises(ValueError, match="unknown constant"):
            st.BoundParams(constants={"p6": 1.0})
        # the z-damped moment sum has no constant; no bound reads one
        with pytest.raises(ValueError, match="unknown constant 'bikelis'"):
            st.BoundParams(constants={"bikelis": 1.0})

    def test_constant_lookup(self):
        params = st.BoundParams(constants={"theorem": 2.5})
        assert params.constant("theorem") == (2.5, False)
        assert params.constant("p4") == (1.0, True)
