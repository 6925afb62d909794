"""Command-line front end.

Every command prints one JSON envelope on stdout, and nothing else: command,
echoed inputs, result payload, timing and precision metadata.  Big integers
are decimal strings, rationals are "p/q", floats carry an explicit precision
field.  Numeric work runs at the fixed ``numeric.DEFAULT_BITS`` = 256 bits,
reported as precision.bits: Decimal floats of ceil(256 log10 2) plus guard
digits, on the standard library alone, and the Schrijver upper bound as an
isqrt.  They print 30 significant digits (40 for expand --eval).
Each exact subject takes only its own flag: rt, ed and eog --n, eo --graph.
Exit codes: 0 success, 2 usage or domain error, 3 size cap, 4 I/O error;
every failure prints one JSON line on stderr.  Every result number is
printed by ``numeric.to_text``, which refuses an oversized one with a size
cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import exact, expansion
from .errors import DomainError, SizeLimitError
from .estimator import (edge_cap, eo_estimate, require_orders, schrijver_lower,
                        schrijver_upper_squared)
from .graphs import (all_degrees_even, cheeger_constant, load_graph,
                     spanning_tree_count)
from .numeric import (DEFAULT_BITS, ln, require_digits, require_exponent,
                      sqrt_floor, to_text, working)
from .taillab import check_tail_bound, instance_from_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 2
EXIT_SIZE = 3
EXIT_IO = 4


def _envelope(command: str, inputs: dict, result: dict, t0: float,
              bits: int | None = None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "timing_ms": round(1000 * (time.perf_counter() - t0), 3),
        "precision": {"bits": bits},
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, result, bits-or-None)

# subject -> (its one flag, the counter's name in `exact`, method), looked up
# when called so a wrapper installed on `exact` is seen; ed and eog run rt's
# dp but keep their *_bruteforce names, which the benchmark's tracer wraps
EXACT_SUBJECTS = {
    "rt": ("n", "rt_count", "dp"),
    "eo": ("graph", "eo_count_bruteforce", "transfer"),
    "ed": ("n", "eulerian_digraph_count_bruteforce", "dp"),
    "eog": ("n", "eulerian_oriented_count_bruteforce", "dp"),
}


def _cmd_exact(args):
    flag, counter, method = EXACT_SUBJECTS[args.subject]
    arg = getattr(args, flag)
    # a graph file is read no further than the counter's edge cap
    subject = (load_graph(arg, max_edges=exact.EO_MAX_EDGES) if flag == "graph"
               else arg)
    value = getattr(exact, counter)(subject)
    return ({"subject": args.subject, flag: arg},
            {"value": to_text(value), "method": method}, None)


def _cmd_expand(args):
    inputs = {"family": args.family, "order": args.order}
    if args.eval is not None:
        expansion.require_eval_point(args.family.upper(), args.eval)
        inputs["eval"] = args.eval
    res = expansion.expansion_series(args.family, args.order)
    payload = res.to_json()
    if args.eval is None:
        return inputs, payload, None
    value, logv = expansion.evaluate_expansion(res, args.eval, DEFAULT_BITS)
    payload["eval"] = {
        "n": args.eval,
        "value": to_text(value, 40),
        "log_value": to_text(logv, 40),
    }
    known = exact.RT_KNOWN_COUNTS.get(args.eval) if res.family == "RT" else None
    if known is not None:
        with working(DEFAULT_BITS):
            payload["eval"]["log_ratio_to_exact"] = to_text(ln(known) - logv, 10)
    return inputs, payload, DEFAULT_BITS


def rational(text: str) -> str:
    """Checks that an argument is a rational (int, decimal or p/q) with an
    exponent of at most MAX_DIGITS; keeps the text as given."""
    require_exponent(text)
    try:
        Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None
    return text


def _cmd_estimate(args):
    require_orders(args.M, args.K)  # refused before the graph is read
    w = Fraction(args.w) if args.w else None
    if w is not None:  # printed exactly, so refused before the graph and the work
        require_digits("w", *w.as_integer_ratio())
    # no graph past the cap is estimated, so the file is read no further
    g = load_graph(args.graph, max_edges=edge_cap(args.M))
    rep = eo_estimate(g, M=args.M, K=args.K, w=w, graph_id=args.graph)
    inputs = {"graph": args.graph, "M": args.M, "K": args.K, "w": args.w}
    return inputs, rep.to_json(), rep.bits


def _cmd_bounds(args):
    g = load_graph(args.graph)
    # lower = B / 2^|E| in lowest terms: no part is longer than B or 2^|E|
    upper_sq = schrijver_upper_squared(g)
    require_digits("the bounds", upper_sq, 1 << g.edge_count)
    lower = schrijver_lower(g, upper_sq)
    exact_lower = to_text(lower)
    result = {
        "lower": exact_lower,
        "lower_decimal": to_text(lower, 30),
        "upper_squared": to_text(upper_sq),
        "upper_decimal": to_text(sqrt_floor(upper_sq, DEFAULT_BITS), 30),
        "pauling": exact_lower,
    }
    return {"graph": args.graph}, result, DEFAULT_BITS


def _cmd_taillab(args):
    with open(args.instance) as fh:
        space, table = instance_from_json(fh.read(), args.m)
    rep = check_tail_bound(space, table, args.m)
    return {"instance": args.instance, "m": args.m}, rep.to_json(), None


def _cmd_graphinfo(args):
    g = load_graph(args.graph)
    try:
        tau, tau_skipped = to_text(spanning_tree_count(g)), None
    except SizeLimitError as exc:  # above graphs.DENSE_MAX_N
        tau, tau_skipped = None, str(exc)
    result = {
        "n": g.n,
        "edges": g.edge_count,
        "degrees": list(g.degrees),
        "all_degrees_even": all_degrees_even(g),
        "connected": g.is_connected(),
        "tau": tau,
        "tau_skipped": tau_skipped,
    }
    try:
        h, cheeger_skipped = cheeger_constant(g), None
    except (DomainError, SizeLimitError) as exc:  # n < 2, or above CHEEGER_MAX_N
        h, cheeger_skipped = None, str(exc)
    d = g.max_degree()
    result["cheeger"] = to_text(h) if h is not None else None
    result["cheeger_over_max_degree"] = to_text(h / d) if h is not None and d else None
    result["cheeger_skipped"] = cheeger_skipped
    return {"graph": args.graph}, result, None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one JSON line on stderr (subparsers inherit
    the class)."""

    def error(self, message):
        self.exit(EXIT_USAGE, json.dumps({"error": message, "kind": "usage",
                                          "code": EXIT_USAGE}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="eocount",
        description="Exact and asymptotic counting of Eulerian orientations.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("exact", help="exact counters")
    pe.set_defaults(handler=_cmd_exact)
    subjects = pe.add_subparsers(dest="subject", required=True)
    for subject, (flag, _, _) in EXACT_SUBJECTS.items():
        subjects.add_parser(subject).add_argument(
            f"--{flag}", required=True, type=int if flag == "n" else str)

    px = sub.add_parser("expand", help="asymptotic exponent series")
    px.add_argument("family", choices=("rt", "ed", "eog"))
    px.add_argument("--order", type=int, default=12)
    px.add_argument("--eval", type=int, default=None)
    px.set_defaults(handler=_cmd_expand)

    ps = sub.add_parser("estimate", help="general-graph estimate")
    ps.add_argument("--graph", required=True)
    ps.add_argument("--M", type=int, default=2)
    ps.add_argument("--K", type=int, default=4)
    ps.add_argument("--w", type=rational, default=None)
    ps.set_defaults(handler=_cmd_estimate)

    pb = sub.add_parser("bounds", help="sandwich bounds")
    pb.add_argument("--graph", required=True)
    pb.set_defaults(handler=_cmd_bounds)

    pt = sub.add_parser("taillab", help="cumulant tail-bound check")
    pt.add_argument("--instance", required=True)
    pt.add_argument("--m", type=int, required=True)
    pt.set_defaults(handler=_cmd_taillab)

    pg = sub.add_parser("graphinfo", help="tau, Cheeger constant, degrees")
    pg.add_argument("--graph", required=True)
    pg.set_defaults(handler=_cmd_graphinfo)
    return p


def _fail(kind: str, code: int, exc: Exception) -> int:
    print(json.dumps({"error": str(exc), "kind": kind, "code": code}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        inputs, result, bits = args.handler(args)
    except (DomainError, UnicodeDecodeError) as exc:  # bad values, garbled files
        return _fail("domain", EXIT_DOMAIN, exc)
    except SizeLimitError as exc:
        return _fail("size-limit", EXIT_SIZE, exc)
    except OSError as exc:
        return _fail("io", EXIT_IO, exc)
    env = _envelope(args.command, inputs, result, t0, bits)
    try:
        print(json.dumps(env, sort_keys=True), flush=True)
    except BrokenPipeError as exc:  # the reader closed stdout
        # what is left in the buffer goes nowhere at exit, without a second error
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return _fail("io", EXIT_IO, exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
