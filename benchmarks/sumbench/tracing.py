"""Per-layer tracing by wrapping the names one library module calls in another.

:meth:`Tracer.installed` replaces module attributes such as
``sumtails.bounds._convolve_two`` (the name ``bounds`` calls in ``discrete``)
and a few ``SystemOracle`` methods with timing wrappers, and puts the
originals back on exit.  Wrappers return the wrapped call's own result, so a
traced run reproduces the untraced outputs byte for byte.

A span's self time is its duration minus the time of the spans it contains.
Bookkeeping done by the wrappers (pair counts, restriction signatures) is
kept out of every self time.  The layers have no queues, so there is no
waiting time to report.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

#: per-layer metrics of the traced run, in report order, with their units
SPAN_METRICS = (
    ("discrete.convolve.calls", "count"),
    ("discrete.convolve.pairs", "count"),
    ("discrete.convolve.peak_support", "count"),
    ("discrete.convolve.self_s", "s"),
    ("discrete.convolve.ns_per_pair", "ns"),
    ("discrete.restrict.calls", "count"),
    ("discrete.restrict.self_s", "s"),
    ("discrete.cap.calls", "count"),
    ("discrete.cap.self_s", "s"),
    ("discrete.load_system.self_s", "s"),
    ("bounds.restricted.calls", "count"),
    ("bounds.restricted.misses", "count"),
    ("bounds.restricted.self_s", "s"),
    ("bounds.restricted.signatures", "count"),
    ("bounds.restricted.useful_ratio", "ratio"),
    ("bounds.loo_capped.calls", "count"),
    ("bounds.loo_capped.misses", "count"),
    ("bounds.loo_capped.self_s", "s"),
    ("bounds.law_capped.calls", "count"),
    ("bounds.law_capped.misses", "count"),
    ("bounds.law_capped.self_s", "s"),
    ("bounds.q.calls", "count"),
    ("bounds.q.self_s", "s"),
    ("bounds.qstar.calls", "count"),
    ("bounds.qstar.self_s", "s"),
    ("bounds.delta.calls", "count"),
    ("bounds.delta.self_s", "s"),
    ("bounds.p_bounds.self_s", "s"),
    ("bounds.serialize.self_s", "s"),
    ("bounds.serialize.bytes", "B"),
    ("scalars.beta_v.calls", "count"),
    ("scalars.beta_v.distinct", "count"),
    ("scalars.beta_v.self_s", "s"),
    ("scalars.mu_p.calls", "count"),
    ("scalars.mu_p.distinct", "count"),
    ("scalars.mu_p.self_s", "s"),
    ("gauss.norm_cdf.calls", "count"),
    ("gauss.norm_cdf.self_s", "s"),
    ("verify.verify_osipov.calls", "count"),
    ("verify.verify_osipov.self_s", "s"),
    ("verify.calibrate.calls", "count"),
    ("verify.calibrate.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("mc.blocks", "count"),
    ("mc.draw.calls", "count"),
    ("mc.draw.self_s", "s"),
    ("mc.draw.bytes_computed", "B"),
    ("mc.cap.self_s", "s"),
    ("mc.reduce_sort.self_s", "s"),
    ("mc.clopper_pearson.calls", "count"),
    ("mc.clopper_pearson.self_s", "s"),
)


def _signature(oracle, y) -> tuple:
    """What a restriction at ``y`` depends on: the atoms kept per summand."""
    return id(oracle), tuple(bisect_right(rv.values, y) for rv in oracle.system.rvs)


class Tracer:
    """Counts and self times per span name; active only while an op runs."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._inner = [0.0]  # per open span: time covered by its child spans
        self._seen: defaultdict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        """Distinct counts (signatures, beta_v arguments) are per op."""
        self._seen.clear()

    # -- spans ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        self._inner.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self.self_s[name] += duration - self._inner.pop()
            self._inner[-1] += duration
            self.calls[name] += 1

    def _untimed(self, hook: Callable[[], None]) -> None:
        """Run bookkeeping and charge its time to no span's self time."""
        start = perf_counter()
        hook()
        self._inner[-1] += perf_counter() - start

    def _distinct(self, metric: str, key: object) -> None:
        seen = self._seen[metric]
        if key not in seen:
            seen.add(key)
            self.counts[metric] += 1

    # -- wrapper factories ------------------------------------------------

    def _timed(self, name: str, before=None, after=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                if before is not None:
                    self._untimed(lambda: before(*args, **kwargs))
                out = self._span(name, fn, args, kwargs)
                if after is not None:
                    self._untimed(lambda: after(out, *args, **kwargs))
                return out

            return wrapper

        return make

    def _cached(self, name: str, work: str, signature=None):
        """A ``SystemOracle`` cache getter: a call that did ``work`` was a miss."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(oracle, *args, **kwargs):
                if not self.active:
                    return fn(oracle, *args, **kwargs)
                work_before = self.calls[work]
                out = self._span(name, fn, (oracle, *args), kwargs)
                if self.calls[work] > work_before:
                    self.counts[f"{name}.misses"] += 1
                    if signature is not None:
                        self._untimed(
                            lambda: self._distinct(f"{name}.signatures", signature(oracle, *args))
                        )
                return out

            return wrapper

        return make

    def _counted(self, metric: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.active:
                    self.counts[metric] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _patch(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- hooks --------------------------------------------------------------

    def _count_pairs(self, a, b, *_rest) -> None:
        self.counts["discrete.convolve.pairs"] += len(a.values) * len(b.values)

    def _note_support(self, out, *_args) -> None:
        values, _masses = out
        key = "discrete.convolve.peak_support"
        self.counts[key] = max(self.counts[key], len(values))

    def _distinct_arg(self, metric: str):
        return lambda system, arg, *_rest: self._distinct(metric, (id(system), arg))

    def _add(self, metric: str, measure: Callable):
        def hook(*args):
            self.counts[metric] += measure(*args)

        return hook

    # -- install ------------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        from sumtails import bounds, cli, mc, verify

        t = self._timed
        oracle = bounds.SystemOracle
        try:
            self._patch(
                bounds,
                "_convolve_two",
                t("discrete.convolve", before=self._count_pairs, after=self._note_support),
            )
            self._patch(bounds, "restrict_at_most", t("discrete.restrict"))
            self._patch(bounds, "capped_sum_rv", t("discrete.cap"))
            self._patch(cli, "load_system", t("discrete.load_system"))
            self._patch(
                oracle,
                "restricted",
                self._cached("bounds.restricted", "discrete.restrict", _signature),
            )
            self._patch(oracle, "loo_capped", self._cached("bounds.loo_capped", "discrete.cap"))
            self._patch(oracle, "law_capped", self._cached("bounds.law_capped", "discrete.cap"))
            for method in ("q", "qstar", "delta"):
                self._patch(oracle, method, t(f"bounds.{method}"))
            for owner in (cli, mc):
                self._patch(owner, "p_bounds", t("bounds.p_bounds"))
            csv_bytes = self._add(
                "bounds.serialize.bytes", lambda _out, _reports, fh: len(fh.getvalue().encode())
            )
            json_bytes = self._add(
                "bounds.serialize.bytes", lambda out, _reports: len(out.encode())
            )
            self._patch(cli, "bound_reports_to_csv", t("bounds.serialize", after=csv_bytes))
            self._patch(cli, "bound_reports_to_json", t("bounds.serialize", after=json_bytes))
            for owner in (bounds, verify):
                for fn_name in ("beta_v", "mu_p"):
                    metric = f"scalars.{fn_name}"
                    before = self._distinct_arg(f"{metric}.distinct")
                    self._patch(owner, fn_name, t(metric, before=before))
            self._patch(bounds, "norm_cdf", t("gauss.norm_cdf"))
            self._patch(verify, "verify_osipov", t("verify.verify_osipov"))
            self._patch(verify, "calibrate", t("verify.calibrate"))
            self._patch(cli, "main", t("cli.main"))
            self._patch(mc, "_block_rng", self._counted("mc.blocks"))
            draw_bytes = self._add("mc.draw.bytes_computed", lambda out, *_args: out.nbytes)
            self._patch(mc, "_draw_summands", t("mc.draw", after=draw_bytes))
            self._patch(mc, "_apply_cap", t("mc.cap"))
            self._patch(mc, "_tail_counts", t("mc.reduce_sort"))
            self._patch(mc, "clopper_pearson", t("mc.clopper_pearson"))
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every metric of :data:`SPAN_METRICS`, 0 where a layer did no work."""
        out: dict[str, float] = {}
        for name, _unit in SPAN_METRICS:
            span, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[span]
            elif field == "self_s":
                out[name] = self.self_s[span]
            else:
                out[name] = self.counts[name]
        pairs = out["discrete.convolve.pairs"]
        out["discrete.convolve.ns_per_pair"] = (
            out["discrete.convolve.self_s"] / pairs * 1e9 if pairs else 0.0
        )
        misses = out["bounds.restricted.misses"]
        out["bounds.restricted.useful_ratio"] = (
            out["bounds.restricted.signatures"] / misses if misses else 0.0
        )
        return out
