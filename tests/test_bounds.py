"""Bound evaluators against enumeration oracles and frozen reference values."""

import io
from fractions import Fraction as F

import pytest

import sumtails as st
from conftest import enumerate_outcomes


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
        assert st.q_exact(two_coins, F(2, 5), F(1, 2)) == F(1, 2)

    def test_q_zero_when_y_below_support(self, two_coins):
        assert st.q_exact(two_coins, 0, -1) == 0

    def test_q_single_summand_convention(self, unit_coin):
        # empty leave-one-out sum: unit mass at zero
        assert st.q_exact(unit_coin, 0.3, 0.5) == 1
        assert st.q_exact(unit_coin, 1.0, 0.5) == 0

    def test_qstar_two_coins(self, two_coins):
        assert st.qstar_exact(two_coins, F(9, 10), F(1, 2)) == F(1, 2)

    def test_qstar_low_z_is_restricted_mass(self, two_coins):
        # z below the whole support: the restricted tail is the full mass
        y = F(1, 2)
        got = st.qstar_exact(two_coins, -2, y)
        assert got == max(st.q_exact(two_coins, -2, y), F(1))

    def test_against_enumeration(self, small_corpus):
        zs = (F(-1), F(0), F(1, 2), F(3, 2))
        ys = (F(1, 4), F(1))
        for system in small_corpus[:10]:
            oracle = st.SystemOracle(system)
            for z in zs:
                for y in ys:
                    assert oracle.q(z, y) == q_by_enumeration(system, z, y)
                    assert oracle.qstar(z, y) == qstar_by_enumeration(system, z, y)


class TestOracleCaches:
    def test_one_restricted_entry_per_signature(self, four_coins, monkeypatch):
        from sumtails import bounds

        calls = []

        def counting_restrict(rv, y):
            calls.append(y)
            return st.restrict_at_most(rv, y)

        monkeypatch.setattr(bounds, "restrict_at_most", counting_restrict)
        oracle = st.SystemOracle(four_coins)
        # every coin keeps both atoms at y = 1/2 and at y = 0.75
        assert oracle.signature(F(1, 2)) == oracle.signature(0.75) == (2, 2, 2, 2)
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

    def test_exact_queries_are_fractions(self, two_coins):
        oracle = st.SystemOracle(two_coins)
        for value in (
            oracle.q(F(5), F(1, 2)),  # zero
            oracle.qstar(F(-5), F(1, 2)),  # full mass
            oracle.delta(F(0), F(1, 4), "truncate"),
            oracle.delta(0.1, F(1, 4), "winsorize"),
        ):
            assert type(value) is F

    def test_beta_v_and_mu_p_computed_once(self, four_coins, monkeypatch):
        from sumtails import bounds

        calls = []

        def counting(fn):
            def wrapper(system, arg):
                calls.append((fn.__name__, arg))
                return fn(system, arg)

            return wrapper

        monkeypatch.setattr(bounds, "beta_v", counting(st.beta_v))
        monkeypatch.setattr(bounds, "mu_p", counting(st.mu_p))
        oracle = st.SystemOracle(four_coins)
        params = st.BoundParams(v=F(1, 2), w=F(1, 4), constants={"p5": 2.0})
        reports = [st.p_bounds(four_coins, F(n, 2), params, oracle=oracle) for n in range(1, 6)]
        assert calls.count(("beta_v", F(1, 2))) == 1
        assert calls.count(("mu_p", 2.0)) == 1
        # the cached floats are the uncached ones, bit for bit
        monkeypatch.undo()
        for n, report in zip(range(1, 6), reports):
            assert report.theorem_bound == st.theorem_bound(four_coins, F(n, 2), params)
            assert report.p5 == 2.0 * float(st.mu_p(four_coins, 2.0)) / (1.0 + n / 2) ** 2


    def test_float_system_matches_exact_system(self, small_corpus):
        # thresholds kept off the rational atoms, so float rounding of the
        # convolved values cannot move an atom across one
        for system in [s for s in small_corpus if s.n >= 2][:4]:
            as_float = st.make_system(
                [[(float(x), float(p)) for x, p in zip(rv.values, rv.masses)] for rv in system.rvs],
                exact=False,
            )
            exact, approx = st.SystemOracle(system), st.SystemOracle(as_float)
            for z in (-0.4913, 0.2587, 1.1309):
                for y in (0.2713, 0.6217):
                    assert approx.q(z, y) == pytest.approx(float(exact.q(z, y)), abs=1e-12)
                    assert approx.qstar(z, y) == pytest.approx(float(exact.qstar(z, y)), abs=1e-12)
                for mode in ("winsorize", "truncate"):
                    got = approx.delta(z, 0.5, mode)
                    assert type(got) is float
                    assert got == pytest.approx(float(exact.delta(z, F(1, 2), mode)), abs=1e-12)


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

    def test_no_surrogate_above_unit_variance(self):
        big = st.make_system([[(F(-10), F(1, 2)), (F(10), F(1, 2))]] * 2, unit_variance=False)
        z, params = 15, st.BoundParams(w=F(5), y=F(10))
        # the unit-variance Bennett-Hoeffding bound undercuts Q* here
        assert st.bh_bound(z, params.y) < st.qstar_exact(big, z, params.y)
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
        assert st.corollary_bound(two_coins, F(2, 5), params) == pytest.approx(
            0.7046826882694954, rel=1e-13
        )

    def test_corollary_zero_when_capping_free(self, four_coins):
        # all atoms <= w: P1 = 0 and the best explicit bound is 0
        report = st.p_bounds(four_coins, 2, st.BoundParams(w=1))
        assert float(report.best) == 0.0
        assert st.corollary_bound(four_coins, 2, st.BoundParams(w=1)) == pytest.approx(
            st.theorem_bound(four_coins, 2, st.BoundParams(w=1)), rel=1e-15
        )

    def test_degenerate_zero_system(self):
        # all mass at zero: beta_v = 0 and P1 = 0, so both bounds vanish
        flat = st.make_system([[(0, 1)]], unit_variance=False)
        assert st.theorem_bound(flat, 2.0) == 0.0
        assert st.corollary_bound(flat, 2.0) == 0.0

    def test_strictly_decreasing_in_z(self, four_coins):
        params = st.BoundParams(w=1)
        zs = [F(n, 2) for n in range(0, 13)]
        theorems = [st.theorem_bound(four_coins, z, params) for z in zs]
        assert all(a > b for a, b in zip(theorems, theorems[1:]))
        corollaries = [st.corollary_bound(four_coins, z, params) for z in zs]
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

    def test_unknown_constant_rejected(self):
        with pytest.raises(ValueError, match="unknown constant"):
            st.BoundParams(constants={"p6": 1.0})

    def test_constant_lookup(self):
        params = st.BoundParams(constants={"theorem": 2.5})
        assert params.constant("theorem") == (2.5, False)
        assert params.constant("p4") == (1.0, True)
