"""Exact measure arithmetic: construction, capping, convolution, tails."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import sumtails as st
from conftest import HALF_COIN, enumerate_outcomes
from sumtails.discrete import _convolve_two, to_lattice

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
                got = law.fraction(law.tail_pair(*pair)[0])
                assert got == expected and type(got) is F, pair

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
            (
                {"unit_variance": "false", "rvs": [{"atoms": [ATOM]}]},
                "'unit_variance' must be true or false, got 'false'",
            ),
        ],
        ids=[
            "list", "rv-not-object", "atom-without-p", "p-1/0", "x-1e400", "x-list", "p-bool",
            "unit-variance-string",
        ],
    )
    def test_malformed_entries_are_named(self, data, message):
        with pytest.raises(ValueError, match=message):
            st.system_from_dict(data)
