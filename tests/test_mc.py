"""Monte Carlo engine: determinism, coverage, flags, families."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import sumtails as st
from sumtails import mc

GOLDEN = Path(__file__).parent / "golden"

Z_GRID = [-0.9, -0.5, 0.0, 0.4, 0.9]
IID_SPECS = [
    st.SamplerSpec(family="standardized-exponential", n=5),
    st.SamplerSpec(family="standardized-two-point", n=5, q=0.3),
    st.SamplerSpec(family="standardized-pareto", n=5, alpha=4.5),
]
IID_IDS = ["exponential", "two-point", "pareto"]
#: corpus summands of 4, 3, 4 and 2 atoms, so the inverse-CDF table is ragged
CORPUS_RVS = st.gen_corpus(st.CorpusSpec(seed=1, count=8))[7].rvs
DISCRETE_SPEC = st.SamplerSpec(
    family="discrete-system", system=st.System(CORPUS_RVS, unit_variance=False)
)
#: summand objects repeated out of order, as the system loaders share equal summands
SHARED_SPEC = st.SamplerSpec(
    family="discrete-system",
    system=st.System(tuple(CORPUS_RVS[i] for i in (0, 3, 0, 2, 3, 0, 0)), unit_variance=False),
)
#: every family, for the block loop they share
SLAB_SPECS, SLAB_IDS = [*IID_SPECS, DISCRETE_SPEC], [*IID_IDS, "discrete-system"]


@pytest.fixture(scope="module")
def coin_spec(two_coins):
    return st.SamplerSpec(family="discrete-system", system=two_coins)


@pytest.fixture(scope="module")
def two_coins():
    half = [(F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))]
    return st.make_system([half, half], unit_variance=False)


class TestDeterminism:
    def test_repeat_runs_bit_identical(self, coin_spec):
        a = st.mc_tails(coin_spec, Z_GRID, 50_000, seed=7)
        b = st.mc_tails(coin_spec, Z_GRID, 50_000, seed=7)
        assert a == b

    def test_worker_count_invariant(self, coin_spec):
        serial = st.mc_tails(coin_spec, Z_GRID, 200_000, seed=7, workers=1)
        parallel = st.mc_tails(coin_spec, Z_GRID, 200_000, seed=7, workers=8)
        assert serial == parallel

    @pytest.mark.parametrize("spec", IID_SPECS, ids=IID_IDS)
    def test_worker_count_invariant_iid(self, spec):
        n_samples = mc.BLOCK_SIZE + 1_000
        serial = st.mc_tails(spec, Z_GRID, n_samples, seed=3, mode="truncate", w=0.4)
        parallel = st.mc_tails(
            spec, Z_GRID, n_samples, seed=3, mode="truncate", w=0.4, workers=2
        )
        assert serial == parallel
        params = st.BoundParams(w=F(2, 5))
        serial = st.mc_check_bounds(spec, params, Z_GRID, n_samples, seed=3, workers=1)
        parallel = st.mc_check_bounds(spec, params, Z_GRID, n_samples, seed=3, workers=2)
        assert serial == parallel

    def test_seeds_differ(self, coin_spec):
        a = st.mc_tails(coin_spec, [0.0], 50_000, seed=1)
        b = st.mc_tails(coin_spec, [0.0], 50_000, seed=2)
        assert a[0].p_hat != b[0].p_hat


class TestEstimates:
    def test_two_coin_tail_within_ci(self, coin_spec):
        (est,) = st.mc_tails(coin_spec, [0.0], 1_000_000, seed=3)
        assert est.ci_lo <= 0.25 <= est.ci_hi
        assert est.p_hat == pytest.approx(0.25, abs=0.005)

    def test_many_coins_cover_binomial_tail(self):
        # S = (2B - 256) / 16 with B ~ Binomial(256, 1/2), so P(S > z) is a
        # binomial tail; the sums are multiples of 1/16 and exact in floats
        coin = [(F(-1, 16), F(1, 2)), (F(1, 16), F(1, 2))]
        spec = st.SamplerSpec(family="discrete-system", system=st.make_system([coin] * 256))
        zs = [k / 2 for k in range(9)]
        estimates = st.mc_tails(spec, zs, 100_000, seed=11)
        covered = 0
        for z, est in zip(zs, estimates):
            tail = sum(math.comb(256, k) for k in range(128 + int(8 * z) + 1, 257)) / 2**256
            covered += est.ci_lo <= tail <= est.ci_hi
        assert covered >= 0.95 * len(zs)

    def test_exponential_closed_form(self):
        spec = st.SamplerSpec(family="standardized-exponential", n=1)
        (est,) = st.mc_tails(spec, [0.0], 1_000_000, seed=5)
        assert est.ci_lo <= math.exp(-1) <= est.ci_hi

    def test_beyond_bounded_support(self, coin_spec):
        (est,) = st.mc_tails(coin_spec, [5.0], 10_000, seed=1)
        assert est.p_hat == 0.0
        assert est.ci_lo == 0.0

    def test_monotone_in_z(self, coin_spec):
        grid = [n / 4 for n in range(-8, 12)]
        estimates = st.mc_tails(coin_spec, grid, 50_000, seed=9)
        p_hats = [e.p_hat for e in estimates]
        assert all(a >= b for a, b in zip(p_hats, p_hats[1:]))

    def test_capped_modes_lower_the_tail(self, coin_spec):
        raw = st.mc_tails(coin_spec, [0.4], 100_000, seed=4)
        for mode in ("winsorize", "truncate"):
            capped = st.mc_tails(coin_spec, [0.4], 100_000, seed=4, mode=mode, w=0.3)
            assert capped[0].p_hat <= raw[0].p_hat

    def test_coverage_over_replications(self, two_coins, coin_spec):
        # CP at 99% should cover the exact tail almost always
        oracle = st.SystemOracle(two_coins)
        law = oracle.law_sum()
        exact = {z: float(law.tail(z)) for z in Z_GRID}
        inside = total = 0
        for seed in range(100):
            for est in st.mc_tails(coin_spec, Z_GRID, 20_000, seed=seed):
                total += 1
                inside += exact[est.z] <= est.ci_hi and exact[est.z] >= est.ci_lo
        assert inside / total >= 0.95

    def test_validation(self, coin_spec):
        with pytest.raises(ValueError, match="1000"):
            st.mc_tails(coin_spec, [0.0], 10, seed=1)
        with pytest.raises(ValueError, match="cap"):
            st.mc_tails(coin_spec, [0.0], 10_000, seed=1, mode="winsorize")
        with pytest.raises(ValueError, match="mode"):
            st.mc_tails(coin_spec, [0.0], 10_000, seed=1, mode="clip")
        with pytest.raises(ValueError, match="seed"):
            st.mc_tails(coin_spec, [0.0], 10_000, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            st.mc_tails(coin_spec, [0.0], 10_000, seed=1 << 64)

    def test_check_bounds_validates_before_drawing(self, coin_spec, monkeypatch):
        from sumtails import mc

        monkeypatch.setattr(mc, "_draw_summands", None)  # a draw would raise TypeError
        params = st.BoundParams(w=F(1, 4))
        bad = ((0, 1, "1000"), (10_000, -1, "seed"), (10_000, 1 << 64, "seed"))
        for n_samples, seed, match in bad:
            with pytest.raises(ValueError, match=match):
                st.mc_check_bounds(coin_spec, params, [0.0], n_samples, seed)
        with pytest.raises(ValueError, match="mode"):
            st.mc_check_bounds(coin_spec, params, [0.0], 10_000, 1, mode="raw")

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_bound_scale_rejected_before_drawing(self, coin_spec, monkeypatch, scale):
        from sumtails import mc

        monkeypatch.setattr(mc, "_draw_summands", None)  # a draw would raise TypeError
        with pytest.raises(ValueError, match="bound_scale must be finite and positive"):
            st.mc_check_bounds(coin_spec, st.BoundParams(), [0.0], 10_000, 1, bound_scale=scale)

    @pytest.mark.parametrize("z", [math.inf, math.nan, pytest.param(F(10**400), id="10^400")])
    def test_z_without_a_float_report_rejected_before_drawing(self, coin_spec, monkeypatch, z):
        from sumtails import mc

        monkeypatch.setattr(mc, "_draw_summands", None)  # a draw would raise TypeError
        monkeypatch.setattr(mc, "_tail_counts", None)  # so would counting
        with pytest.raises(ValueError) as err:
            st.mc_check_bounds(coin_spec, st.BoundParams(w=F(1, 4)), [0.0, 1.0, z], 10_000, 1)
        assert str(err.value).startswith(f"z = {z} has no float report: ")
        # a tails run reads each z as a float too
        with pytest.raises(ValueError) as err:
            st.mc_tails(coin_spec, [0.0, z], 10_000, 1)
        assert str(err.value).startswith(f"z = {z} has no float report: ")

    @pytest.mark.parametrize(
        "z, p",
        [(1e200, 2.0), (F(1, 2), 1100.0), (-2000.0, 2.0)],
        ids=["1e+200", "p-1100", "-2000"],
    )
    def test_inputs_read_only_by_p4_p5_are_accepted(self, z, p):
        # (c + z)^p overflows at z = 1e200, mu_p at p = 1100 and e^(-lam z)
        # at z = -2000, so a bounds table refuses each; P1-P3 read none of them
        system = st.load_system(GOLDEN / "corpus_seed1_system10.json")
        spec = st.SamplerSpec(family="discrete-system", system=system)
        params = st.BoundParams(w=F(1, 2), p=p)
        with pytest.raises(ValueError):
            st.p_bounds_row(system, [z], params)
        report = st.mc_check_bounds(spec, params, [0.0, z], 2_000, 1)

        class NoP4P5(st.SystemOracle):  # a table whose mu_p fits a float
            def mu_p_at(self, p):
                return 1

        # z = 0 and P1 fit any table, and a table with mu_p replaced fits p = 1100
        (at_zero,) = st.p_bounds_row(system, [F(0)], params, oracle=NoP4P5(system))
        want = [float(at_zero.p1), float(at_zero.p2), float(at_zero.p3)]
        assert [report.rows[0].p1, report.rows[0].p2, report.rows[0].p3] == want
        assert report.rows[1].p1 == float(at_zero.p1) == float(st.max_tail(system, F(1, 2)))
        if z == 1e200:  # every y candidate lies above every atom and far below z
            assert (report.rows[1].p2, report.rows[1].p3) == (0.0, 0.0)
        else:  # lam enters no P1-P3, and a small one keeps e^(-lam z) a float
            small = dataclasses.replace(params, lam=1e-3)
            (table,) = st.p_bounds_row(system, [z], small, oracle=NoP4P5(system))
            assert (report.rows[1].p2, report.rows[1].p3) == (float(table.p2), float(table.p3))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_rejected_before_drawing(self, coin_spec, monkeypatch, workers):
        from sumtails import mc

        monkeypatch.setattr(mc, "_draw_summands", None)  # a draw would raise TypeError
        message = f"workers must be >= 1, got {workers}"
        with pytest.raises(ValueError, match=message):
            st.mc_tails(coin_spec, [0.0], 10_000, 1, workers=workers)
        with pytest.raises(ValueError, match=message):
            st.mc_check_bounds(coin_spec, st.BoundParams(), [0.0], 10_000, 1, workers=workers)


class TestFamilies:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            st.SamplerSpec(family="cauchy")

    def test_discrete_needs_system(self):
        with pytest.raises(ValueError, match="needs a system"):
            st.SamplerSpec(family="discrete-system")

    def test_pareto_needs_finite_variance(self):
        with pytest.raises(ValueError, match="alpha"):
            st.SamplerSpec(family="standardized-pareto", n=2, alpha=2.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_pareto_needs_finite_alpha(self, alpha):
        # an infinite shape passed `alpha > 2` and made every summand NaN
        with pytest.raises(ValueError, match="alpha must be finite"):
            st.SamplerSpec(family="standardized-pareto", n=4, alpha=alpha)

    def test_two_point_q_validation(self):
        with pytest.raises(ValueError, match="q"):
            st.SamplerSpec(family="standardized-two-point", n=2, q=1.5)

    @pytest.mark.parametrize(
        "spec",
        [
            st.SamplerSpec(family="standardized-exponential", n=8),
            st.SamplerSpec(family="standardized-two-point", n=8, q=0.3),
            st.SamplerSpec(family="standardized-pareto", n=8, alpha=4.5),
        ],
        ids=["exponential", "two-point", "pareto"],
    )
    def test_standardization(self, spec):
        # empirical mean ~ 0 and variance ~ 1 for the sum
        import numpy as np

        from sumtails.mc import _block_rng, _draw_summands

        draws = _draw_summands(spec, _block_rng(11, 0), 60_000)
        sums = draws.sum(axis=1)
        assert abs(float(np.mean(sums))) < 0.02
        assert float(np.var(sums)) == pytest.approx(1.0, abs=0.06)

    def test_summand_cdf_matches_sampling(self):
        spec = st.SamplerSpec(family="standardized-exponential", n=4)
        from sumtails.mc import _block_rng, _draw_summands, summand_cdf

        draws = _draw_summands(spec, _block_rng(3, 0), 50_000)[:, 0]
        for t in (-0.3, 0.0, 0.5, 2.0):
            empirical = float((draws <= t).mean())
            assert empirical == pytest.approx(summand_cdf(spec, t), abs=0.01)

    def test_summand_cdf_rejects_discrete(self, coin_spec):
        from sumtails.mc import summand_cdf

        with pytest.raises(ValueError, match="exact oracles"):
            summand_cdf(coin_spec, 0.0)


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = st.clopper_pearson(0, 100)
        assert lo == 0.0 and 0 < hi < 0.1
        lo, hi = st.clopper_pearson(100, 100)
        assert hi == 1.0 and 0.9 < lo < 1
        with pytest.raises(ValueError):
            st.clopper_pearson(5, 3)

    def test_interval_contains_point_estimate(self):
        for k, n in ((3, 1000), (250, 1000), (999, 1000)):
            lo, hi = st.clopper_pearson(k, n)
            assert lo <= k / n <= hi

    def test_known_value(self):
        # binomial k=0: hi solves (1-p)^n = alpha/2 -> p = 1 - (0.005)^(1/n)
        n = 500
        _, hi = st.clopper_pearson(0, n)
        assert hi == pytest.approx(1 - 0.005 ** (1 / n), rel=1e-9)

    @pytest.mark.parametrize("confidence", [0.99, 0.95])
    def test_bit_identical_to_beta_ppf(self, confidence):
        # the interval was scipy.stats.beta.ppf(q, a, b); betaincinv(a, b, q)
        # must give the same floats, or every Monte Carlo output changes
        from scipy.stats import beta

        rng = np.random.default_rng(2011)
        cases = [(k, n) for n in range(1, 201) for k in range(n + 1)]
        for n in (1 << 15, 1 << 16):
            ks = {0, 1, n - 1, n, *rng.integers(0, n + 1, size=200).tolist()}
            cases += [(k, n) for k in sorted(ks)]
        ks = np.array([k for k, _ in cases])
        ns = np.array([n for _, n in cases])
        alpha = 1.0 - confidence
        # nan at the k = 0 and k = n ends, which are set below
        lo = beta.ppf(alpha / 2.0, ks, ns - ks + 1)
        hi = beta.ppf(1.0 - alpha / 2.0, ks + 1, ns - ks)
        want = [
            (0.0 if k == 0 else float(lo[j]), 1.0 if k == n else float(hi[j]))
            for j, (k, n) in enumerate(cases)
        ]
        got = [st.clopper_pearson(k, n, confidence) for k, n in cases]
        differ = [(case, g, w) for case, g, w in zip(cases, got, want) if g != w]
        assert not differ, f"{len(differ)} of {len(cases)} intervals differ, e.g. {differ[:3]}"


class TestBoundChecks:
    def test_discrete_agrees_with_exact_verifier(self, two_coins, coin_spec):
        params = st.BoundParams(w=F(1, 4))
        report = st.mc_check_bounds(
            coin_spec, params, [n / 2 for n in range(0, 9)], 100_000, seed=11
        )
        assert report.ok
        # the exact sweep reports no violations either
        assert st.verify_osipov(two_coins, w_grid=(F(1, 4),)) == []

    def test_exponential_p1_clean(self):
        spec = st.SamplerSpec(family="standardized-exponential", n=32)
        report = st.mc_check_bounds(
            spec, st.BoundParams(w=1), [n / 2 for n in range(0, 9)], 100_000, seed=12
        )
        assert report.ok
        assert all(row.p2 is None for row in report.rows)

    def test_negative_control_raises_flags(self, coin_spec):
        params = st.BoundParams(w=F(1, 4))
        report = st.mc_check_bounds(
            coin_spec,
            params,
            [n / 2 for n in range(0, 9)],
            100_000,
            seed=11,
            bound_scale=0.01,
        )
        assert report.n_flags > 0
        assert not report.ok

    def test_delta_hat_nonnegative(self, coin_spec):
        report = st.mc_check_bounds(
            coin_spec, st.BoundParams(w=F(1, 4)), Z_GRID, 50_000, seed=2
        )
        assert all(row.delta_hat >= 0 for row in report.rows)

    def test_worker_invariance(self, coin_spec):
        params = st.BoundParams(w=F(1, 4))
        a = st.mc_check_bounds(coin_spec, params, Z_GRID, 120_000, seed=5, workers=1)
        b = st.mc_check_bounds(coin_spec, params, Z_GRID, 120_000, seed=5, workers=6)
        assert a == b

#: block length for the slab-size tests: short blocks keep one-row slabs quick
SMALL_BLOCK = 1 << 10


def _full_block_draws(spec, rng, size):
    """The summand matrix as one full-block draw with plain expressions."""

    if spec.family == "discrete-system":
        # each column's atoms at np.searchsorted of its cumulative masses
        u = rng.random(size=(size, spec.n_summands))
        columns = []
        for j, rv in enumerate(spec.system.rvs):
            cdf = np.cumsum([float(p) for p in rv.masses])
            cdf /= cdf[-1]
            values = np.array([float(x) for x in rv.values])
            columns.append(values[np.searchsorted(cdf, u[:, j], side="right")])
        return np.column_stack(columns)
    n = spec.n
    scale = 1.0 / math.sqrt(n)
    if spec.family == "standardized-exponential":
        e = rng.standard_exponential(size=(size, n))
        return (e - 1.0) * scale
    if spec.family == "standardized-two-point":
        a = math.sqrt((1.0 - spec.q) / spec.q)
        b = math.sqrt(spec.q / (1.0 - spec.q))
        u = rng.random(size=(size, n))
        return np.where(u < spec.q, a, -b) * scale
    alpha = spec.alpha
    mean = alpha / (alpha - 1.0)
    sd = math.sqrt(alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0)))
    u = rng.random(size=(size, n))
    return ((1.0 - u) ** (-1.0 / alpha) - mean) / sd * scale


class TestSlabs:
    """Every family draws each block in row slabs of at most SLAB_CELLS cells."""

    @pytest.mark.parametrize("spec", IID_SPECS, ids=IID_IDS)
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_draws_match_plain_expressions(self, spec, n):
        spec = dataclasses.replace(spec, n=n)
        for seed in (0, 7):
            got = mc._draw_summands(spec, mc._block_rng(seed, 1), 3_000)
            want = _full_block_draws(spec, mc._block_rng(seed, 1), 3_000)
            assert np.array_equal(got, want)

    def test_discrete_draws_are_inverse_cdf_images(self):
        for spec in (DISCRETE_SPEC, SHARED_SPEC):
            for seed in (0, 7):
                got = mc._draw_summands(spec, mc._block_rng(seed, 1), mc.BLOCK_SIZE)
                want = _full_block_draws(spec, mc._block_rng(seed, 1), mc.BLOCK_SIZE)
                assert np.array_equal(got, want)
            # every atom of every summand is drawn, none but them
            for j, rv in enumerate(spec.system.rvs):
                assert set(got[:, j]) == {float(x) for x in rv.values}

    @pytest.mark.parametrize("spec", SLAB_SPECS, ids=SLAB_IDS)
    def test_counts_match_full_block_draws(self, spec):
        # the library's slabs against whole Philox blocks summed at once
        n_samples, seed, w = mc.BLOCK_SIZE + 1_000, 21, 0.4
        zs = np.array([-1.0, 0.0, 0.3, 1.0, 2.5])
        for mode in ("winsorize", "truncate"):
            want_raw = np.zeros(len(zs), dtype=np.int64)
            want_bar = np.zeros(len(zs), dtype=np.int64)
            for block, size in enumerate((mc.BLOCK_SIZE, 1_000)):
                draws = _full_block_draws(spec, mc._block_rng(seed, block), size)
                if mode == "winsorize":
                    capped = np.minimum(draws, w)
                else:
                    capped = np.where(draws <= w, draws, 0.0)
                for want, matrix in ((want_raw, draws), (want_bar, capped)):
                    sums = np.sort(matrix.sum(axis=1))
                    want += size - np.searchsorted(sums, zs, side="right")
            raw, bar = mc._tail_counts(spec, zs, n_samples, seed, w, mode, workers=1)
            assert np.array_equal(raw, want_raw)
            assert np.array_equal(bar, want_bar)

    @pytest.mark.parametrize("spec", SLAB_SPECS, ids=SLAB_IDS)
    @pytest.mark.parametrize(
        "slab_cells",
        [lambda n: 1, lambda n: n - 1, lambda n: 3 * n + 1, lambda n: SMALL_BLOCK * n],
        ids=["one-cell", "n-1", "3n+1", "one-slab"],
    )
    def test_slab_size_changes_no_result(self, spec, slab_cells, monkeypatch):
        # the sample count spans three blocks, the last one partial, and
        # 3n + 1 cells (3 rows) divide neither block length
        monkeypatch.setattr(mc, "BLOCK_SIZE", SMALL_BLOCK)
        n_samples, params = 2_500, st.BoundParams(w=F(2, 5))

        def results():
            tails = [
                st.mc_tails(spec, Z_GRID, n_samples, seed=9, mode=mode, w=0.4)
                for mode in ("winsorize", "truncate")
            ]
            tails.append(st.mc_tails(spec, Z_GRID, n_samples, seed=9))
            checks = [
                st.mc_check_bounds(spec, params, Z_GRID, n_samples, seed=9, mode=mode)
                for mode in ("winsorize", "truncate")
            ]
            return tails, checks

        want = results()
        monkeypatch.setattr(mc, "SLAB_CELLS", slab_cells(spec.n_summands))
        assert results() == want

    @pytest.mark.parametrize("spec", SLAB_SPECS, ids=SLAB_IDS)
    @pytest.mark.parametrize("mode", ["winsorize", "truncate"])
    def test_reused_buffers_leak_no_rows(self, spec, mode, monkeypatch):
        # three blocks, the last one partial; slabs of 3 rows leave a short
        # last slab in every block, and two workers draw blocks side by side
        monkeypatch.setattr(mc, "BLOCK_SIZE", SMALL_BLOCK)
        n_samples = 2_500
        zs = np.array(Z_GRID)
        want = mc._tail_counts(spec, zs, n_samples, 5, 0.4, mode, workers=1)
        monkeypatch.setattr(mc, "SLAB_CELLS", 3 * spec.n_summands)
        for workers in (1, 2):
            raw, bar = mc._tail_counts(spec, zs, n_samples, 5, 0.4, mode, workers=workers)
            assert np.array_equal(raw, want[0]) and np.array_equal(bar, want[1])

    @pytest.mark.parametrize(
        "family, n, slab_cells, n_samples",
        [
            ("standardized-two-point", 256, 1 << 12, 4_096),
            ("standardized-two-point", 3_000, 1 << 10, 1_000),
            ("discrete-system", 3_000, 1 << 10, 1_000),
        ],
        ids=["256-4096-4096", "3000-1024-1000", "discrete-system-3000-1024-1000"],
    )
    def test_memory_stays_bounded(self, family, n, slab_cells, n_samples, monkeypatch):
        # tracemalloc sees numpy's buffers; one full-block matrix alone
        # would take 8 MB (n = 256) or 24 MB (n = 3,000)
        monkeypatch.setattr(mc, "SLAB_CELLS", slab_cells)
        if family == "discrete-system":
            system = st.System(CORPUS_RVS * (n // len(CORPUS_RVS)), unit_variance=False)
            spec = st.SamplerSpec(family=family, system=system)
        else:
            spec = st.SamplerSpec(family=family, n=n)
        zs = np.array([0.0, 1.0])
        tracemalloc.start()
        try:
            mc._tail_counts(spec, zs, n_samples, 1, 0.5, "winsorize", workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
