"""Estimating the constants the structural bounds do not specify.

The exponential normal-approximation bound has the shape

    |P(S_bar > z) - P(Z > z)| <= A * beta_v * exp(-lambda z)

where A is only known to exist (it depends continuously on v, w, lambda).
Rather than asserting a value, we calibrate: sweep a corpus and a z grid,
divide the exactly computed left side by the structural right side with A
stripped, and report the supremum together with the witness cell attaining
it.  The same recipe covers the concentration bound
P(a <= S_bar - X_bar_i <= b) <= A (b - a + beta_v) e^{-lambda a} and the
polynomial tail bounds.
"""

import sumtails as st

corpus = st.gen_corpus(st.CorpusSpec(seed=1, count=200))
params = st.BoundParams(v=1, w=1, lam=0.5)

for bound in ("theorem", "concentration", "p5"):
    result = st.calibrate(corpus, bound, params=params, mode="winsorize")
    print(f"{bound:>13}: a_min = {result.a_min:.6f}  witness = {result.witness}")

# Three properties make these numbers usable as evidence:
#  1. determinism: identical corpus and grids give bit-identical a_min;
#  2. witnesses re-evaluate to the reported supremum;
#  3. enlarging the grid can only raise a_min (it is a supremum).
result = st.calibrate(corpus, "theorem", params=params)
again = st.calibration_ratio(corpus, "theorem", result.witness, params=params)
matches = again == result.a_min
print("\nwitness re-evaluation matches:", matches)
assert matches

# Calibration is per capping mode; the two modes produce different capped
# laws and, in general, different empirical constants.
trunc = st.calibrate(corpus, "theorem", params=params, mode="truncate")
print(f"\nwinsorize a_min = {result.a_min:.6f}   truncate a_min = {trunc.a_min:.6f}")
