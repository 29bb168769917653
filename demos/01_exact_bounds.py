"""Capping a sum at a threshold, and what it costs in the upper tail.

Start with the smallest interesting example: independent fair coins worth
+-1/2 each.  Capping each summand at w (winsorize: min(x, w); truncate:
zero it out above w) can only lower the sum, so the capped tail sits below
the raw tail.  The gap Delta_w(z) = P(S > z) - P(S_bar > z) is bounded by
three fully explicit quantities P1, P2, P3 built from exceedance
probabilities, and this library computes both sides exactly, in rational
arithmetic.
"""

from fractions import Fraction as F

import sumtails as st

# Two fair +-1/2 coins.  Total variance is 1/2, which is fine for this demo:
# the explicit bounds are valid for total variance at most one.
half_coin = [(F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))]
system = st.make_system([half_coin, half_coin], unit_variance=False)

# The raw sum takes values -1, 0, 1 with masses 1/4, 1/2, 1/4.
law = st.convolve(system.rvs)
print("law of S:", [(str(x), str(p)) for x, p in zip(law.values, law.masses)])

# Cap at w = 0.3: every +1/2 becomes +0.3 (winsorize) or 0 (truncate).
w = F(3, 10)
print("winsorized coin:", st.winsorize(system.rvs[0], w).atoms)
print("truncated coin: ", st.truncate(system.rvs[0], w).atoms)

# Exact tail difference against the explicit bounds, over a z grid: one
# report per z from one pass over the grid (st.p_bounds is its row of one).
params = st.BoundParams(w=w, y=F(1, 2))
zs = [F(i, 4) for i in range(9)]
reports = st.p_bounds_row(system, zs, params, "winsorize")
print(f"\n{'z':>5} {'Delta_w(z)':>12} {'P1':>6} {'P2':>6} {'P3':>6} {'best':>6}")
for z, report in zip(zs, reports):
    print(
        f"{str(z):>5} {str(report.delta_w):>12} {str(report.p1):>6}"
        f" {str(report.p2):>6} {str(report.p3):>6} {str(report.best):>6}"
    )

# Every Delta value sits inside [0, best]: the inequalities are theorems,
# and because the arithmetic is rational the comparison is exact, not
# within-epsilon.  The same table serializes to CSV for external tooling:
import io

buf = io.StringIO()
st.bound_reports_to_csv(reports[:5], buf)
print("\nCSV head:")
print("\n".join(buf.getvalue().splitlines()[:3]))
