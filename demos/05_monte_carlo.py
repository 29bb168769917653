"""Monte Carlo tail checks for sizes the exact oracle cannot reach.

Thirty-two standardized exponential summands have 32 continuous marginals;
there is no finite convolution to enumerate.  The seeded sampler estimates
P(S > z) and P(S_bar > z) in one pass with exact binomial (Clopper-Pearson)
99% intervals, and flags a bound only when the interval's lower end exceeds
it, i.e. on statistically significant evidence.

Reproducibility contract: the generator is counter-based (Philox keyed by
(seed, block)), blocks have fixed size, and counts merge by integer
addition, so estimates are bit-identical for any worker count.
"""

import sumtails as st

spec = st.SamplerSpec(family="standardized-exponential", n=32)
z_grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]

estimates = st.mc_tails(spec, z_grid, n_samples=500_000, seed=11)
print(f"{'z':>5} {'p_hat':>10} {'99% interval':>26}")
for e in estimates:
    print(f"{e.z:>5} {e.p_hat:>10.6f}   [{e.ci_lo:.6f}, {e.ci_hi:.6f}]")

again = st.mc_tails(spec, z_grid, n_samples=500_000, seed=11, workers=8)
identical = again == estimates
print("\neight workers, identical bits:", identical)
assert identical

# Check the capped-tail cost against the exceedance bound P1, which has a
# closed form for i.i.d. families.  Expected: zero flags.
report = st.mc_check_bounds(
    spec, st.BoundParams(w=1), z_grid, n_samples=500_000, seed=11
)
print(f"\nbound check at w=1: {report.n_flags} flags over {len(report.rows)} cells")
print(f"{'z':>5} {'delta_hat':>10} {'ci_hi':>10} {'P1':>10}")
for row in report.rows[:4]:
    print(f"{row.z:>5} {row.delta_hat:>10.6f} {row.ci_hi:>10.6f} {row.p1:>10.6f}")

# Negative control: shrink the bound a hundredfold and the same data must
# flag it, demonstrating the harness can detect violations at all.
corrupted = st.mc_check_bounds(
    spec, st.BoundParams(w=1), z_grid, n_samples=500_000, seed=11, bound_scale=0.01
)
print(f"\nnegative control (bound x 0.01): {corrupted.n_flags} flags")

# The same engine covers discrete systems past the convolution cap and two
# more standardized families (two-point and Pareto with finite variance).
