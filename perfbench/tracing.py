"""Spans at the boundaries between eocount's modules.

A boundary is a public name at the place its caller looks it up, for example
``eocount.expansion.mu_moment_dict`` (expansion imports it from powersums)
or ``eocount.cli.eo_estimate``.  ``Tracer.install`` replaces each such
attribute with a wrapper that records a span (name, start, end, parent) and
work counters.  Spans stay in memory until the run ends; nothing inside the
package is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from math import prod


def _edge_pairs(args, kwargs, result):
    m = len(args[0].edges)
    return {"estimator.kappa2_edge_pairs": m * (m + 1) // 2}


def _cheeger_subsets(args, kwargs, result):
    return {"graphs.cheeger_subsets": 2 ** (args[0].n - 1) - 1}


def _tail_points(args, kwargs, result):
    return {"taillab.points": prod(args[0].sizes)}


# (module, attribute, span name, counter called after a normal return)
BOUNDARIES = (
    ("eocount.expansion", "expansion_series", "expansion.expansion_series", None),
    ("eocount.expansion", "f_as_mu_polynomial", "expansion.f_as_mu_polynomial", None),
    ("eocount.expansion", "mu_moment_dict", "powersums.mu_moment_dict", None),
    ("eocount.expansion", "moments_to_cumulants", "cumulants.moments_to_cumulants", None),
    ("eocount.expansion", "evaluate_expansion", "expansion.evaluate_expansion", None),
    ("eocount.estimator", "eo_estimate", "estimator.eo_estimate", None),
    ("eocount.cli", "eo_estimate", "estimator.eo_estimate", None),
    ("eocount.estimator", "covariance_sigma", "estimator.covariance_sigma", None),
    ("eocount.estimator", "kappa1_f", "estimator.kappa1_f", None),
    ("eocount.estimator", "kappa2_f", "estimator.kappa2_f", _edge_pairs),
    ("eocount.estimator", "eo_hat_log", "estimator.eo_hat_log", None),
    ("eocount.estimator", "cheeger_constant", "graphs.cheeger_constant", _cheeger_subsets),
    ("eocount.cli", "cheeger_constant", "graphs.cheeger_constant", _cheeger_subsets),
    ("eocount.estimator", "spanning_tree_count", "graphs.spanning_tree_count", None),
    ("eocount.cli", "spanning_tree_count", "graphs.spanning_tree_count", None),
    ("eocount.exact", "rt_count", "exact.rt_count", None),
    ("eocount.exact", "eo_count_bruteforce", "exact.eo_count_bruteforce", None),
    ("eocount.exact", "eulerian_digraph_count_bruteforce", "exact.balanced_scan", None),
    ("eocount.exact", "eulerian_oriented_count_bruteforce", "exact.balanced_scan", None),
    ("eocount.cli", "check_tail_bound", "taillab.check_tail_bound", _tail_points),
    ("eocount.taillab", "alpha", "taillab.alpha", None),
    ("eocount.taillab", "exact_cumulants_discrete", "taillab.exact_cumulants_discrete", None),
    ("eocount.taillab", "moments_to_cumulants", "cumulants.moments_to_cumulants", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.monomials: set = set()
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every boundary whose module is already imported; a name the
        package no longer has is listed in ``missing``."""
        for module, attr, span, counter in BOUNDARIES:
            mod = sys.modules.get(module)
            if mod is None:
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if attr == "mu_moment_dict":
                fn = self._note_monomial(fn)
            setattr(mod, attr, self.wrap(span, fn, counter))

    def _note_monomial(self, fn):
        seen = self.monomials

        @functools.wraps(fn)
        def noted(mono, *args, **kwargs):
            seen.add(mono)
            return fn(mono, *args, **kwargs)
        return noted

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        opened = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(opened[-1] if opened else -1)
            self.end.append(0.0)
            opened.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                opened.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[key] += value
            return result
        return traced

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [(self.names[i], s, e, p) for i, s, e, p in
                zip(self.name_id, self.start, self.end, self.parent)]

    def memo_entries(self):
        """Size of powersums' module-global moment memo; None once it is gone."""
        memo = getattr(sys.modules.get("eocount.powersums"), "_MOM_CACHE", None)
        return None if memo is None else len(memo)

    def dump(self) -> dict:
        return {"spans": self.spans(), "counters": dict(self.counters),
                "distinct_monomials": len(self.monomials),
                "memo_entries": self.memo_entries(), "missing": self.missing}


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, (_name, s, e, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((s, e))
    out = []
    for i, (_name, s, e, _parent) in enumerate(spans):
        covered = 0.0
        reach = s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((e - s) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """name -> {"total": summed duration, "self": summed self time, "calls"}."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0})
    for (name, s, e, _p), own in zip(spans, self_times(spans)):
        row = out[name]
        row["total"] += e - s
        row["self"] += own
        row["calls"] += 1
    return out
