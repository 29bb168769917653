"""Exact measure arithmetic: construction, capping, convolution, tails."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import sumtails as st
from conftest import HALF_COIN, enumerate_outcomes
from sumtails.discrete import WINSOR_MODES, _convolve_two, capped_sum_rv, to_lattice

#: a valid atom, a unit mass at 0, for the malformed-system cases
ATOM = {"x": 0, "p": 1}


class TestConstruction:
    def test_four_coins_valid(self, four_coins):
        assert four_coins.n == 4
        assert four_coins.exact
        assert four_coins.total_variance() == 1

    def test_standardize_centers_and_scales(self):
        system = st.make_system([[(0, F(1, 2)), (2, F(1, 2))]], standardize=True)
        rv = system.rvs[0]
        assert rv.values == (F(-1), F(1))
        assert rv.masses == (F(1, 2), F(1, 2))

    def test_standardize_degenerate_rejected(self):
        with pytest.raises(ValueError, match="variance is zero"):
            st.make_system([[(1, 1)]], standardize=True)

    def test_standardize_irrational_scale_rejected_in_exact_mode(self):
        # two fair +-1/2 coins have total variance 1/2; 1/sqrt(1/2) is irrational
        with pytest.raises(ValueError, match="square root"):
            st.make_system([HALF_COIN, HALF_COIN], standardize=True)

    def test_standardize_float_mode(self):
        system = st.make_system([HALF_COIN, HALF_COIN], standardize=True, exact=False)
        assert abs(float(system.total_variance()) - 1.0) < 1e-12

    def test_zero_mass_atoms_dropped(self):
        rv = st.DiscreteRV.from_atoms([(0, F(1, 2)), (1, F(1, 4)), (-1, F(1, 4)), (5, 0)])
        assert rv.values == (F(-1), F(0), F(1))

    def test_duplicate_values_merged(self):
        rv = st.DiscreteRV.from_atoms([(1, F(1, 4)), (1, F(1, 4)), (0, F(1, 2))])
        assert rv.values == (F(0), F(1))
        assert rv.masses == (F(1, 2), F(1, 2))

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            st.DiscreteRV.from_atoms([(0, F(1, 2))])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative mass"):
            st.DiscreteRV.from_atoms([(0, F(3, 2)), (1, F(-1, 2))])

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValueError, match="mean"):
            st.make_system([[(0, F(1, 2)), (1, F(1, 2))]], unit_variance=False)

    def test_unit_variance_enforced_by_default(self):
        with pytest.raises(ValueError, match="sum to 1"):
            st.make_system([HALF_COIN, HALF_COIN])


class TestCapping:
    def test_winsorize_caps_above(self, coin):
        assert st.winsorize(coin, F(3, 10)).atoms == (
            st.Atom(F(-1, 2), F(1, 2)),
            st.Atom(F(3, 10), F(1, 2)),
        )

    def test_winsorize_identity_at_support_max(self, coin):
        assert st.winsorize(coin, 1) == coin

    def test_winsorize_merges_at_cap(self):
        rv = st.DiscreteRV.from_atoms([(-1, F(1, 4)), (F(2, 5), F(1, 2)), (2, F(1, 4))])
        capped = st.winsorize(rv, F(2, 5))
        assert capped.values == (F(-1), F(2, 5))
        assert capped.masses == (F(1, 4), F(3, 4))

    def test_truncate_zeroes_exceedances(self, coin):
        assert st.truncate(coin, F(3, 10)).values == (F(-1, 2), F(0))

    def test_truncate_keeps_boundary(self, coin):
        assert st.truncate(coin, F(1, 2)) == coin

    def test_truncate_merges_at_zero(self):
        rv = st.DiscreteRV.from_atoms([(0, F(1, 2)), (2, F(1, 2))])
        assert st.truncate(rv, 1).atoms == (st.Atom(F(0), F(1)),)

    @pytest.mark.parametrize("transform", [st.winsorize, st.truncate])
    @pytest.mark.parametrize("w", [0, -1])
    def test_nonpositive_threshold_rejected(self, coin, transform, w):
        with pytest.raises(ValueError, match="positive"):
            transform(coin, w)


# random small exact rvs for property tests
atom_values = hyp.integers(min_value=-8, max_value=8).map(lambda n: F(n, 4))
atom_masses = hyp.integers(min_value=1, max_value=8)


@hyp.composite
def exact_rvs(draw):
    n = draw(hyp.integers(min_value=1, max_value=4))
    values = draw(
        hyp.lists(atom_values, min_size=n, max_size=n, unique=True)
    )
    weights = [draw(atom_masses) for _ in range(n)]
    total = sum(weights)
    return st.DiscreteRV.from_atoms([(x, F(wt, total)) for x, wt in zip(values, weights)])


class TestCappingProperties:
    @given(rv=exact_rvs(), w_num=hyp.integers(min_value=1, max_value=12))
    def test_capped_below_min_of_value_and_threshold(self, rv, w_num):
        w = F(w_num, 8)
        for transform in (st.winsorize, st.truncate):
            capped = transform(rv, w)
            # compare atomwise through the value map, before merging
            for x in rv.values:
                mapped = min(x, w) if transform is st.winsorize else (x if x <= w else F(0))
                assert mapped <= min(x, w)
                assert abs(mapped) <= abs(x)
            assert capped.mass == 1

    @given(rv=exact_rvs(), w_num=hyp.integers(min_value=1, max_value=12))
    def test_capped_sum_tail_never_exceeds_raw(self, rv, w_num):
        w = F(w_num, 8)
        raw = st.convolve([rv, rv])
        for transform in (st.winsorize, st.truncate):
            capped = st.convolve([transform(rv, w)] * 2)
            for z in [F(n, 4) for n in range(-10, 11)]:
                assert capped.tail(z) <= raw.tail(z)


class TestConvolve:
    def test_two_coins(self, coin):
        out = st.convolve([coin, coin])
        assert out.atoms == (
            st.Atom(F(-1), F(1, 4)),
            st.Atom(F(0), F(1, 2)),
            st.Atom(F(1), F(1, 4)),
        )

    def test_single_input_is_identity_with_mass_one(self, coin):
        out = st.convolve([coin])
        assert out.values == coin.values
        assert out.mass == 1

    def test_submeasure_input_multiplies_mass(self, coin):
        sub = st.SubMeasure.from_atoms([(F(-1, 2), F(1, 2))])
        out = st.convolve([sub, coin])
        # enumeration of the two pairs: (-1/2) + (+-1/2) each with mass 1/4
        assert out.atoms == (st.Atom(F(-1), F(1, 4)), st.Atom(F(0), F(1, 4)))
        assert out.mass == F(1, 2)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            st.convolve([])

    def test_mixed_modes_rejected(self, coin):
        float_coin = st.DiscreteRV.from_atoms([(-0.5, 0.5), (0.5, 0.5)], exact=False)
        with pytest.raises(ValueError, match="mixed"):
            st.convolve([coin, float_coin])

    def test_cap_exceeded_mentions_fallback(self):
        rv = st.DiscreteRV.from_atoms([(F(i), F(1, 100)) for i in range(100)])
        with pytest.raises(st.ConvolutionCapError, match="Monte Carlo"):
            st.convolve([rv] * 4, cap=10_000)

    @given(
        rvs=hyp.lists(exact_rvs(), min_size=2, max_size=3),
        order=hyp.permutations(range(3)),
    )
    @settings(max_examples=50)
    def test_order_and_bracketing_invariance(self, rvs, order):
        flat = st.convolve(rvs)
        nested = st.SubMeasure(values=rvs[0].values, masses=rvs[0].masses, exact=True)
        for rv in rvs[1:]:
            nested = st.convolve([nested, rv])
        assert flat == nested
        perm = [rvs[i % len(rvs)] for i in order[: len(rvs)]]
        if sorted(id(r) for r in perm) == sorted(id(r) for r in rvs):
            assert st.convolve(perm) == flat

    @given(rvs=hyp.lists(exact_rvs(), min_size=1, max_size=3))
    @settings(max_examples=50)
    def test_against_enumeration_oracle(self, rvs):
        law = st.convolve(rvs)
        for z in [F(n, 4) for n in range(-12, 13)]:
            expected = sum(
                (p for p, xs in enumerate_outcomes(rvs) if sum(xs) > z), F(0)
            )
            assert law.tail(z) == expected


# values on mixed grids, so the lattice scale is a nontrivial lcm
lattice_values = hyp.builds(
    F, hyp.integers(min_value=-12, max_value=12), hyp.sampled_from([1, 2, 3, 5, 6])
)


@hyp.composite
def lattice_rvs(draw):
    values = draw(hyp.lists(lattice_values, min_size=1, max_size=4, unique=True))
    weights = [draw(atom_masses) for _ in values]
    total = sum(weights)
    return st.DiscreteRV.from_atoms([(x, F(wt, total)) for x, wt in zip(values, weights)])


def lattice_chain(measures, cap=st.CONVOLUTION_CAP):
    """Fold the lattice kernel over ``measures`` as the oracle does."""
    current, *rest = to_lattice(measures)
    for nxt in rest:
        values, masses = _convolve_two(current, nxt, True, cap)
        current = current.product(nxt, values, masses)
    return current


class TestLatticeKernel:
    """The integer-lattice kernel against the brute-force enumeration oracle."""

    @given(
        rvs=hyp.lists(lattice_rvs(), min_size=1, max_size=3),
        y=lattice_values,
        w=hyp.builds(F, hyp.integers(min_value=1, max_value=12), hyp.sampled_from([3, 4, 7])),
    )
    @settings(max_examples=60, deadline=None)
    def test_tails_match_enumeration(self, rvs, y, w):
        inputs = {
            "raw": rvs,
            "restricted": [st.restrict_at_most(rv, y) for rv in rvs],
            "winsorize": [st.winsorize(rv, w) for rv in rvs],
            "truncate": [st.truncate(rv, w) for rv in rvs],
        }
        # Fraction thresholds on and off the atoms, and float thresholds that
        # are not on any grid (floor(t * scale) must be exact for them too)
        thresholds = [F(n, 6) for n in range(-30, 31, 5)] + [n / 7 for n in range(-30, 31, 4)]
        thresholds += [0.5, -1.0, 2.25]
        for name, measures in inputs.items():
            law = lattice_chain(measures)
            outcomes = list(enumerate_outcomes(measures))
            assert law.mass == sum((p for p, _ in outcomes), F(0)), name
            for t in thresholds:
                above = sum((p for p, xs in outcomes if sum(xs) > t), F(0))
                at_least = sum((p for p, xs in outcomes if sum(xs) >= t), F(0))
                got = law.tail(t)
                assert type(got) is F, (name, t)
                assert got == above, (name, t)
                assert law.mass_at_least(t) == at_least, (name, t)
                assert law.interval_mass(t, t + 1) == sum(
                    (p for p, xs in outcomes if t <= sum(xs) <= t + 1), F(0)
                ), (name, t)

    @given(rvs=hyp.lists(lattice_rvs(), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_to_fraction_atoms(self, rvs):
        law = lattice_chain(rvs)
        sub = law.to_submeasure()
        expected = {}
        for p, xs in enumerate_outcomes(rvs):
            expected[sum(xs)] = expected.get(sum(xs), F(0)) + p
        assert sub.values == tuple(sorted(expected))
        assert sub.masses == tuple(expected[x] for x in sorted(expected))
        assert st.convolve(rvs) == sub

    @given(
        rvs=hyp.lists(lattice_rvs(), min_size=1, max_size=3),
        num=hyp.integers(min_value=-400, max_value=400),
        den=hyp.integers(min_value=1, max_value=60),
        factor=hyp.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_ratio_is_tail_of_the_fraction(self, coin, rvs, num, den, factor):
        # the oracle's empty sum (one summand left out of one) has scale 1
        (empty_sum,), _ = st.SystemOracle(st.System((coin,), unit_variance=False)).restricted(0)
        assert empty_sum.scale == 1
        # an unreduced pair (num * factor, den * factor) names the same threshold
        for law in (lattice_chain(rvs), empty_sum):
            expected = law.to_submeasure().tail(F(num, den))
            assert law.tail(F(num, den)) == expected
            for pair in ((num, den), (num * factor, den * factor)):
                got = law.fraction(law.tail_numerator(*pair))
                assert got == expected and type(got) is F, pair

    @given(
        rvs=hyp.lists(lattice_rvs(), min_size=1, max_size=3),
        num=hyp.integers(min_value=-400, max_value=400),
        den=hyp.integers(min_value=1, max_value=60),
        factor=hyp.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_at_least_numerator_is_mass_at_least(self, rvs, num, den, factor):
        law = lattice_chain(rvs)
        sub = law.to_submeasure()

        def reference(t):  # mass at or above t, summed from the Fraction atoms
            return sum((m for x, m in zip(sub.values, sub.masses) if x >= t), F(0))

        # a random threshold, every atom (the closed end counts it) and a
        # point just past each atom, as reduced and unreduced pairs
        pairs = [(num, den)] + [(x.numerator, x.denominator) for x in sub.values]
        pairs += [(x.numerator * 7 * den + 1, x.denominator * 7 * den) for x in sub.values]
        for n, d in pairs:
            t = F(n, d)
            for pair in ((n, d), (n * factor, d * factor)):
                got = law.at_least_numerator(*pair)
                assert type(got) is int and law.fraction(got) == reference(t), pair
            for threshold in (t, float(t)) + ((n // d,) if d == 1 else ()):
                assert law.mass_at_least(threshold) == reference(F(threshold)), threshold
            assert sub.mass_at_least(t) == reference(t)
            # [t, b] holds the mass at or above t less the mass above b
            for b in (t, t + F(1, 3), t - 1):
                above = sum((m for x, m in zip(sub.values, sub.masses) if x > b), F(0))
                assert law.interval_mass(t, b) == (reference(t) - above if t <= b else 0)

    def test_non_finite_float_thresholds(self, coin):
        law = lattice_chain([coin, coin])
        assert law.tail(float("inf")) == 0
        assert law.tail(float("-inf")) == 1
        assert law.mass_at_least(float("inf")) == 0
        assert law.mass_at_least(float("-inf")) == 1

    def test_empty_restriction_has_zero_fraction_tail(self, coin):
        law = lattice_chain([st.restrict_at_most(coin, F(-1)), coin])
        assert law.values == ()
        assert law.tail(-5) == 0 and type(law.tail(-5)) is F

    def test_cap_error_at_the_same_pair_count(self):
        # 100 * 100 = 10,000 pairs, then 199 * 100 = 19,900 pairs
        rv = st.DiscreteRV.from_atoms([(F(i), F(1, 100)) for i in range(100)])
        assert len(lattice_chain([rv] * 3, cap=19_900).values) == 298
        with pytest.raises(st.ConvolutionCapError, match=r"needs 19900 intermediate atoms \(cap 19899\)"):
            lattice_chain([rv] * 3, cap=19_899)
        with pytest.raises(st.ConvolutionCapError, match=r"needs 10000 intermediate atoms \(cap 9999\)"):
            st.convolve([rv] * 3, cap=9_999)


def _atoms(measure):
    return measure.values, measure.masses


class TestLatticeCaps:
    """Restriction and capping on the integer lattice against the ``Fraction`` path."""

    @given(
        rvs=hyp.lists(lattice_rvs(), min_size=1, max_size=3),
        data=hyp.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_match_the_fraction_path(self, rvs, data):
        atoms = sorted({x for rv in rvs for x in rv.values})
        threshold = hyp.one_of(
            hyp.sampled_from(atoms),  # on an atom
            lattice_values,
            hyp.builds(F, hyp.integers(-40, 40), hyp.sampled_from([7, 11])),  # off the lattice
            hyp.floats(min_value=-13, max_value=13, allow_subnormal=False),
            hyp.just(F(13)),  # above every atom
        )
        y = data.draw(hyp.one_of(threshold, hyp.just(float("nan"))), label="y")
        w = data.draw(threshold.filter(lambda t: t > 0), label="w")
        lattice = to_lattice(rvs)
        for rv, m in zip(rvs, lattice):
            restricted = st.restrict_at_most(m, y)
            assert restricted.to_submeasure() == st.restrict_at_most(rv, y)
            assert (restricted.den, restricted.scale) == (m.den, m.scale)
            for mode in WINSOR_MODES:
                capped = capped_sum_rv(m, w, mode)
                assert _atoms(capped.to_submeasure()) == _atoms(capped_sum_rv(rv, w, mode))
                assert capped.den == m.den
                if mode == "winsorize" and capped is not m:
                    assert capped.scale == math.lcm(m.scale, F(w).denominator)
                else:
                    assert capped.scale == m.scale
                assert (capped is m) == (rv.values[-1] <= w), mode

    def test_truncation_with_and_without_an_atom_at_zero(self):
        with_zero = st.DiscreteRV.from_atoms([(-1, F(1, 4)), (0, F(1, 4)), (1, F(1, 2))])
        without = st.DiscreteRV.from_atoms([(-1, F(1, 2)), (F(1, 3), F(1, 4)), (F(5, 3), F(1, 4))])
        for rv, expected in [
            (with_zero, ((F(-1), F(0)), (F(1, 4), F(3, 4)))),
            (without, ((F(-1), F(0), F(1, 3)), (F(1, 2), F(1, 4), F(1, 4)))),
        ]:
            (m,) = to_lattice([rv])
            truncated = capped_sum_rv(m, F(1, 2), "truncate")
            assert _atoms(truncated.to_submeasure()) == expected
            assert len(truncated.values) == len(rv.values) - (rv is with_zero)

    def test_winsorize_on_an_atom_and_off_the_lattice(self):
        rv = st.DiscreteRV.from_atoms([(-1, F(1, 2)), (F(1, 2), F(1, 4)), (F(3, 2), F(1, 4))])
        (m,) = to_lattice([rv])
        on_atom = capped_sum_rv(m, F(1, 2), "winsorize")
        assert _atoms(on_atom.to_submeasure()) == ((F(-1), F(1, 2)), (F(1, 2), F(1, 2)))
        assert on_atom.scale == m.scale == 2
        off = capped_sum_rv(m, F(2, 3), "winsorize")
        assert off.scale == 6
        assert _atoms(off.to_submeasure()) == ((F(-1), F(1, 2), F(2, 3)), (F(1, 2), F(1, 4), F(1, 4)))
        assert off.at_scale(12).to_submeasure() == off.to_submeasure()

    def test_nan_empty_and_full_restrictions(self, coin):
        (m,) = to_lattice([coin])
        nan = st.restrict_at_most(m, float("nan"))
        assert nan.values == () and nan.mass == 0
        assert st.restrict_at_most(coin, float("nan")).values == ()
        assert st.restrict_at_most(m, F(-1)).values == ()
        assert st.restrict_at_most(m, F(1, 2)) is m
        assert st.restrict_at_most(m, float("inf")) is m
        assert st.restrict_at_most(m, float("-inf")).values == ()

    @pytest.mark.parametrize("w", [0, -1, float("nan")])
    def test_cap_needs_a_positive_w(self, coin, w):
        (m,) = to_lattice([coin])
        for measure in (coin, m):
            with pytest.raises(ValueError, match="threshold w must be positive"):
                capped_sum_rv(measure, w, "winsorize")
            with pytest.raises(ValueError, match="unknown mode 'clip'"):
                capped_sum_rv(measure, 1, "clip")


class TestTailQueries:
    def test_tail_examples(self, coin):
        law = st.convolve([coin, coin])
        assert law.tail(0) == F(1, 4)
        assert law.tail(1) == 0  # strict inequality at the boundary atom
        assert law.tail(-2) == 1

    def test_tail_nonincreasing(self, four_coins):
        law = st.convolve(four_coins.rvs)
        grid = [F(n, 8) for n in range(-20, 21)]
        tails = [law.tail(z) for z in grid]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_max_tail_examples(self, two_coins):
        assert st.max_tail(two_coins, 0) == F(3, 4)
        assert st.max_tail(two_coins, F(1, 2)) == 0
        assert st.max_tail(two_coins, F(-3, 5)) == 1

    def test_max_tail_nonincreasing(self, four_coins):
        grid = [F(n, 8) for n in range(-12, 13)]
        tails = [st.max_tail(four_coins, y) for y in grid]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_max_tail_against_enumeration(self, small_corpus):
        for system in small_corpus[:8]:
            for y in (F(-1, 2), F(0), F(1, 4), F(1)):
                expected = sum(
                    (p for p, xs in enumerate_outcomes(system) if max(xs) > y), F(0)
                )
                assert st.max_tail(system, y) == expected

    def test_interval_mass(self, coin):
        law = st.convolve([coin, coin])
        assert law.interval_mass(F(-1), F(0)) == F(3, 4)
        assert law.interval_mass(0, 0) == F(1, 2)
        assert law.interval_mass(F(1, 2), F(1, 4)) == 0  # empty interval

    def test_nan_threshold_counts_no_atom(self):
        # no comparison with NaN holds, on float, exact and lattice measures alike
        nan = float("nan")
        pairs = [(F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))]
        exact = st.DiscreteRV.from_atoms(pairs)
        floats = st.DiscreteRV.from_atoms([(float(x), float(p)) for x, p in pairs], exact=False)
        (lattice,) = to_lattice([exact])
        for law in (floats, exact, lattice):
            queries = [
                law.tail(nan),
                law.mass_at_least(nan),
                law.interval_mass(nan, 1.0),
                law.interval_mass(-1.0, nan),
            ]
            if law is not lattice:  # the lattice measure has no mass_at_most
                queries.append(law.mass_at_most(nan))
            assert queries == [0] * len(queries)
            assert all(type(q) is type(law.tail(1.0)) for q in queries)
        assert st.max_tail(st.System(rvs=(exact, exact), unit_variance=False), nan) == 0


class TestFloatMode:
    def test_float_queries_are_reproducible(self):
        rv = st.DiscreteRV.from_atoms([(-0.25, 0.25), (0.05, 0.5), (0.2, 0.25)], exact=False)
        law1 = st.convolve([rv, rv, rv])
        law2 = st.convolve([rv, rv, rv])
        assert law1.values == law2.values
        assert law1.masses == law2.masses
        assert law1.tail(0.1) == law2.tail(0.1)

    def test_near_duplicates_merge(self):
        eps = 1e-16
        rv = st.DiscreteRV.from_atoms([(1.0, 0.5), (1.0 + eps, 0.25), (0.0, 0.25)], exact=False)
        assert len(rv.values) == 2


class TestJsonInterface:
    def test_round_trip(self, tmp_path, four_coins):
        path = tmp_path / "system.json"
        st.save_system(four_coins, str(path))
        loaded = st.load_system(str(path))
        assert loaded == four_coins

    def test_decimal_strings_are_exact(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(
            '{"mode": "rational", "rvs": [{"atoms": ['
            '{"x": -0.1, "p": "1/2"}, {"x": "0.1", "p": "0.5"}]}], '
            '"unit_variance": false}'
        )
        system = st.load_system(str(path))
        assert system.rvs[0].values == (F(-1, 10), F(1, 10))
        assert system.rvs[0].masses == (F(1, 2), F(1, 2))

    def test_unit_variance_flag_round_trips(self, two_coins):
        data = st.system_to_dict(two_coins)
        assert data["unit_variance"] is False
        assert st.system_from_dict(data) == two_coins

    def test_equal_summands_share_one_object(self):
        coin = {"atoms": [{"x": "-1/2", "p": "1/2"}, {"x": "1/2", "p": "1/2"}]}
        other = {"atoms": [{"x": "-1/2", "p": "1/2"}, {"x": 0.5, "p": "1/2"}]}
        data = {"rvs": [coin, other, dict(coin), coin], "unit_variance": False}
        system = st.system_from_dict(data)
        assert system.rvs[0] is system.rvs[2] is system.rvs[3]
        # the same law written another way is parsed on its own, to an equal summand
        assert system.rvs[1] is not system.rvs[0] and system.rvs[1] == system.rvs[0]
        assert system.distinct_rvs() == ([system.rvs[0], system.rvs[1]], [0, 1, 0, 0])
        assert system == st.make_system(
            [[(F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))] for _ in range(4)], unit_variance=False
        )
        # make_system builds one summand per row, even from a generator of
        # fresh lists whose freed ids are reused
        rows = ([(F(-k, 2), F(1, 2)), (F(k, 2), F(1, 2))] for k in (1, 2, 1, 2))
        built = st.make_system(rows, unit_variance=False)
        assert [rv.values[1] for rv in built.rvs] == [F(1, 2), 1, F(1, 2), 1]

    def test_shared_summand_checked_once_named_first(self):
        coin = st.DiscreteRV.from_atoms([(F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))])
        skewed = st.DiscreteRV.from_atoms([(0, F(1, 2)), (1, F(1, 2))])
        with pytest.raises(ValueError, match="summand 1 has mean 1/2"):
            st.System((coin, skewed, coin, skewed), unit_variance=False)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            st.system_from_dict({"mode": "decimal", "rvs": [{"atoms": [{"x": 0, "p": 1}]}]})

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "a system must be a JSON object, got list"),
            ({"rvs": [{"atoms": [ATOM]}, 5]}, r"rvs\[1\] needs a nonempty 'atoms' list"),
            ({"rvs": [{"atoms": [ATOM, {"x": 0}]}]}, r"rvs\[0\]\.atoms\[1\] must be an object"),
            ({"rvs": [{"atoms": [{"x": 0, "p": "1/0"}]}]}, r"rvs\[0\]\.atoms\[0\]\.p: cannot"),
            ({"mode": "float", "rvs": [{"atoms": [{"x": "1e400", "p": 1}]}]}, r"\.x: cannot"),
            ({"rvs": [{"atoms": [{"x": [0], "p": 1}]}]}, r"\.x: cannot parse number from \[0\]"),
            ({"rvs": [{"atoms": [{"x": 0, "p": True}]}]}, r"\.p: cannot parse number from True"),
            # true == 1, yet an entry equal to a valid one up to that is still rejected
            (
                {"rvs": [{"atoms": [{"x": 0, "p": 1}]}, {"atoms": [{"x": 0, "p": True}]}]},
                r"rvs\[1\]\.atoms\[0\]\.p: cannot parse number from True",
            ),
            (
                {"unit_variance": "false", "rvs": [{"atoms": [ATOM]}]},
                "'unit_variance' must be true or false, got 'false'",
            ),
        ],
        ids=[
            "list", "rv-not-object", "atom-without-p", "p-1/0", "x-1e400", "x-list", "p-bool",
            "p-bool-after-int", "unit-variance-string",
        ],
    )
    def test_malformed_entries_are_named(self, data, message):
        with pytest.raises(ValueError, match=message):
            st.system_from_dict(data)
