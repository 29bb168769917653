"""Exact verification of the tail-difference bounds over a seeded corpus.

A corpus is a reproducible population of small rational systems: summand
variances are rationals summing to one exactly, and each summand is a
mixture of centered two-point blocks, so no square roots ever enter and all
invariants hold in exact arithmetic.  The sweep below checks

    0 <= Delta_w(z) <= min(P1, P2(y), P3(y))

for every system, every z in a 33-point grid, w in {1/4, 1/2, 1}, y in
{1/4, 1/2, 1, z/2}, and both capping modes, in exact rational arithmetic.
Zero violations is the expected (and proven) outcome; the value of the
exercise is that a bug in either side would surface as a hard
counterexample.
"""

import time

import sumtails as st

spec = st.CorpusSpec(seed=1, count=200, n_max=4, atoms_max=4)
corpus = st.gen_corpus(spec)
print(f"corpus: {len(corpus)} systems, sizes n=1..4, atoms 2..4 per summand")
print("first system:", [(str(x), str(p)) for x, p in zip(corpus[0].rvs[0].values, corpus[0].rvs[0].masses)])
unit = all(s.total_variance() == 1 for s in corpus)
print("every total variance is exactly one:", unit)
assert unit

start = time.perf_counter()
result = st.verify_corpus(corpus)
elapsed = time.perf_counter() - start
print(f"\nchecked {result.cells} cells in {elapsed:.1f}s "
      f"({result.skipped} skipped, {len(result.violations)} violations)")

# The sweep shares one convolution oracle per system across both capping
# modes, so the repeated y values cost nothing extra.  The same machinery
# answers one-off questions directly; here on a four-summand system:
system = next(s for s in corpus if s.n == 4)
oracle = st.SystemOracle(system)
print(f"\n{'z':>5} {'y':>5} {'Q(z,y)':>10} {'Q*(z,y)':>10} {'exp dominator':>14}")
for z, y in ((0.5, 0.25), (1.0, 0.5), (1.5, 0.5), (4.0, 1.0), (6.0, 1.0)):
    print(
        f"{z:>5} {y:>5} {float(oracle.q(z, y)):>10.6f}"
        f" {float(oracle.qstar(z, y)):>10.6f} {st.bh_bound(z, y):>14.6f}"
    )

# Q* never exceeds the Bennett-Hoeffding value for z > y > 0 on systems
# with total variance at most one; the acceptance suite sweeps this too.
