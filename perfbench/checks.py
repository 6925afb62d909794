"""Output checks.  Each returns a list of problems; an empty list passes.

The references are independent of the code under test: the golden tables in
``tests/golden.py``, sandwich bounds computed here with ``math.comb``, the
closed-form prefactors written out from the README, exact spanning-tree
counts and Cheeger constants recomputed here by other methods, and estimate
values frozen in ``refs.json``.
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import mpmath

from workloads import CliOp, GraphSpec

EVAL_BITS = 256
ESTIMATE_REL = mpmath.mpf("1e-30")
# The CLI prints estimates with 30 significant digits; allow one unit there.
PRINTED_REL = mpmath.mpf("1e-29")


def load_golden(root: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_golden", root / "tests" / "golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def golden_series(golden, family: str) -> list[Fraction]:
    return {"RT": golden.RT_SERIES, "ED": golden.ED_SERIES,
            "EOG": golden.EOG_SERIES}[family]


def load_refs(path: Path) -> dict[str, str]:
    return json.loads(path.read_text())["log_estimate"]


# ---------------------------------------------------------------------------
# series


def check_series(coeffs: dict, family: str, order: int, golden) -> list[str]:
    """Coefficients of n^0 .. n^-(order-1) equal the golden ones exactly."""
    want = golden_series(golden, family)[:order]
    got = [Fraction(coeffs.get(p, 0)) for p in range(order)]
    extra = sorted(p for p in coeffs if not 0 <= p < order)
    problems = [f"{family} coefficient of n^-{p}: {g} != {w}"
                for p, (g, w) in enumerate(zip(got, want)) if g != w]
    if extra:
        problems.append(f"{family} has coefficients beyond the order: {extra}")
    return problems


def log_prefactor(family: str, n: int):
    """Natural log of n^(1/2) * base^((n-1)/2), base from the README:
    RT 2^(n+1)/(pi n), ED 4^n/(pi n), EOG 3^(n+1)/(4 pi n)."""
    nf = mpmath.mpf(n)
    log_base = {
        "RT": (n + 1) * mpmath.log(2),
        "ED": n * mpmath.log(4),
        "EOG": (n + 1) * mpmath.log(3) - mpmath.log(4),
    }[family] - mpmath.log(mpmath.pi) - mpmath.log(nf)
    return mpmath.log(nf) / 2 + (nf - 1) / 2 * log_base


def expected_log_value(family: str, order: int, n: int, golden):
    with mpmath.workprec(EVAL_BITS):
        total = log_prefactor(family, n)
        for p, c in enumerate(golden_series(golden, family)[:order]):
            total += mpmath.mpf(c.numerator) / c.denominator / mpmath.mpf(n) ** p
        return total


def check_rt_eval(log_value, order: int, n: int, golden) -> list[str]:
    """The truncated RT series at n agrees with the exact count to within
    twice the first omitted golden term, and with the value recomputed here."""
    problems = _rel_check("RT log value", log_value,
                          expected_log_value("RT", order, n, golden), ESTIMATE_REL)
    with mpmath.workprec(EVAL_BITS):
        ratio = mpmath.log(golden.RT_COUNTS[n]) - mpmath.mpf(log_value)
        nxt = golden.RT_SERIES[order]
        tol = 2 * abs(mpmath.mpf(nxt.numerator) / nxt.denominator) / mpmath.mpf(n) ** order
        if abs(ratio) > tol:
            problems.append(f"log RT({n}) - series = {mpmath.nstr(ratio, 5)}, "
                            f"beyond {mpmath.nstr(tol, 5)}")
    return problems


# ---------------------------------------------------------------------------
# graphs and estimates


def sandwich(g: GraphSpec) -> tuple[Fraction, int]:
    """(lower, B): prod C(d, d/2) / 2^m <= EO(G) <= sqrt(B), B = prod C(d, d/2)."""
    B = 1
    for d in g.degrees:
        B *= comb(d, d // 2)
    return Fraction(B, 2 ** len(g.edges)), B


def check_estimate(g: GraphSpec, log_value, refs: dict[str, str] | None,
                   rel=ESTIMATE_REL, key: str | None = None) -> list[str]:
    """The log estimate lies inside the log sandwich bounds and, when frozen
    references are given, agrees with ``refs[key]`` to ``rel``; the key
    defaults to the M = 2 estimate of g."""
    key = key or f"{g.key} M=2"
    lower, B = sandwich(g)
    with mpmath.workprec(EVAL_BITS):
        v = mpmath.mpf(log_value)
        lo = mpmath.log(lower.numerator) - mpmath.log(lower.denominator)
        hi = mpmath.log(B) / 2
        problems = []
        if not lo <= v <= hi:
            problems.append(f"{g.key}: log estimate {mpmath.nstr(v, 12)} outside "
                            f"[{mpmath.nstr(lo, 12)}, {mpmath.nstr(hi, 12)}]")
    if refs is not None:
        if key in refs:
            problems += _rel_check(f"{key} log estimate", v, refs[key], rel)
        else:
            problems.append(f"no frozen reference for {key}")
    return problems


def spanning_trees(g: GraphSpec) -> int:
    """Kirchhoff minor determinant by rational Gaussian elimination."""
    n = g.n - 1
    L = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    a = [row[1:] for row in L[1:]]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def cheeger(g: GraphSpec) -> Fraction:
    """min |boundary U| / |U| over 1 <= |U| <= n/2, by plain subset listing."""
    best = None
    for size in range(1, g.n // 2 + 1):
        for U in combinations(range(g.n), size):
            s = set(U)
            cut = sum((u in s) != (v in s) for u, v in g.edges)
            if best is None or Fraction(cut, size) < best:
                best = Fraction(cut, size)
    return best


# ---------------------------------------------------------------------------
# cli


def parse_one_json_line(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        return None, f"{len(lines)} output lines, want exactly one JSON line"
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return None, f"malformed JSON: {exc}"
    if not isinstance(obj, dict):
        return None, "JSON line is not an object"
    return obj, None


def check_cli_op(op: CliOp, code: int, stdout: str, stderr: str, golden,
                 refs: dict[str, str] | None) -> list[str]:
    """Expected exit code and exactly one JSON line (stdout on success, stderr
    on a rejection), then the payload check for the op's kind."""
    if code != op.expect_code:
        return [f"exit {code}, want {op.expect_code}: {stderr.strip()[-300:]}"]
    if op.expect_code != 0:
        if stdout.strip():
            return ["a rejected op printed to stdout"]
        obj, err = parse_one_json_line(stderr)
        if err:
            return [f"stderr: {err}"]
        return [] if obj.get("code") == op.expect_code else [f"error line {obj}"]
    env, err = parse_one_json_line(stdout)
    if err:
        return [f"stdout: {err}"]
    try:
        return _CLI_CHECKS[op.kind](op, env["result"], golden, refs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed payload: {exc!r}"]


def _check_rt(op, res, golden, refs):
    n = op.params["n"]
    return [] if int(res["value"]) == golden.RT_COUNTS[n] else [f"RT({n}) = {res['value']}"]


def _check_balanced(op, res, golden, refs):
    table = golden.ED_COUNTS if op.params["family"] == "ed" else golden.EOG_COUNTS
    n = op.params["n"]
    return [] if int(res["value"]) == table[n] else [f"{op.argv} = {res['value']}"]


def _check_eo(op, res, golden, refs):
    g = op.params["graph"]
    lower, B = sandwich(g)
    count = int(res["value"])
    return [] if lower <= count and count * count <= B else [
        f"EO({g.key}) = {count} outside the sandwich bounds"]


def _check_expand(op, res, golden, refs):
    fam, order, n = op.params["family"], op.params["order"], op.params["n"]
    coeffs = {int(p): Fraction(c) for p, c in res["coeffs"].items()}
    problems = check_series(coeffs, fam, order, golden)
    if res["family"] != fam or res["order"] != order or res["eval"]["n"] != n:
        problems.append(f"echoed {res['family']} {res['order']} {res['eval']['n']}")
    problems += _rel_check(f"{fam} log value at n={n}", res["eval"]["log_value"],
                           expected_log_value(fam, order, n, golden), ESTIMATE_REL)
    return problems


def _check_estimate(op, res, golden, refs):
    g = op.params["graph"]
    problems = check_estimate(g, res["log_corrected"]["2"], refs, PRINTED_REL)
    if res["n"] != g.n or res["edges"] != len(g.edges):
        problems.append(f"echoed n={res['n']} edges={res['edges']}")
    return problems


def _check_bounds(op, res, golden, refs):
    lower, B = sandwich(op.params["graph"])
    want = {"lower": str(lower), "upper_squared": str(B), "pauling": str(lower)}
    return [f"{k} = {res[k]}, want {v}" for k, v in want.items() if res[k] != v]


def _check_graphinfo(op, res, golden, refs):
    g = op.params["graph"]
    h = cheeger(g)
    d = max(g.degrees)
    want = {"n": g.n, "edges": len(g.edges), "degrees": g.degrees,
            "all_degrees_even": True, "connected": True,
            "tau": str(spanning_trees(g)), "cheeger": str(h),
            "cheeger_over_max_degree": str(h / d)}
    return [f"{k} = {res[k]!r}, want {v!r}" for k, v in want.items() if res[k] != v]


def _check_taillab(op, res, golden, refs):
    problems = []
    if res["holds"] is not True:
        problems.append("tail bound report does not hold")
    if res["n"] != op.params["n"] or res["m"] != op.params["m"]:
        problems.append(f"echoed n={res['n']} m={res['m']}")
    if len(res["kappas"]) != op.params["m"]:
        problems.append(f"{len(res['kappas'])} cumulants for m={op.params['m']}")
    return problems


_CLI_CHECKS = {"rt": _check_rt, "balanced": _check_balanced, "eo": _check_eo,
               "expand": _check_expand, "estimate": _check_estimate,
               "bounds": _check_bounds, "graphinfo": _check_graphinfo,
               "taillab": _check_taillab}


def _rel_check(label, got, want, rel) -> list[str]:
    with mpmath.workprec(EVAL_BITS):
        g, w = mpmath.mpf(got), mpmath.mpf(want)
        if abs(g - w) > rel * abs(w):
            return [f"{label}: {mpmath.nstr(g, 35)} != {mpmath.nstr(w, 35)}"]
    return []
