"""Seeded inputs for the three workloads.

Nothing in this module imports eocount: graphs are plain ``(n, edges)`` pairs
with 0-based ``u < v`` edges and tail-lab instances are plain JSON objects, so
generating them charges no library work to set-up.  The same seed always gives
the same inputs.

A run repeats one pass of its workload several times (``reps_for``) and
reports per-op medians, so a slow spell of the shared host moves few of the
samples that a figure rests on.  Where an input property drives the cost of an
operation (vertex count, degree, series order, rt size), it is fixed per slot,
and the seed varies only properties that leave the cost alone (circulant
offsets, families, evaluation points, alphabets, weights, op order).  That
keeps the per-run figures comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

DEFAULT_SEED = 1

# Why each workload exists; printed with every result.
WHY = {
    "series": "powersums and expansion do nearly all the work; each pass is a "
              "fresh interpreter whose RT series meets a cold moment memo and "
              "whose ED and EOG series meet a warm one",
    "estimate": "estimator and graphs in mpmath floats, powersums bypassed; "
                "kappa_2, the Sigma inverse and the Cheeger scan each lead on "
                "one of the graphs",
    "cli": "one fresh eocount process per op, so interpreter start and imports "
           "are paid every time; the only user of exact, taillab and cli",
}

# series: each pass is a fresh interpreter, so the RT series meets a cold
# moment memo and ED and EOG a warm one.  Order 7 keeps each op near a second;
# order 10 takes about 35 s a pass, and a few long ops cannot be made steady
# on a shared host.  The RT value at n = 37 is the fourth op.
SERIES_ORDER = 7
SERIES_FAMILIES = ("RT", "ED", "EOG")
SERIES_EVAL_N = 37

# estimate: each pass is a fresh interpreter that estimates one graph per slot.
# (label, n, degree, M); degree n - 1 means the complete graph, anything else
# a circulant with offset 1 plus seeded offsets, so gcd(n, offsets) = 1 and
# the graph is connected.  M = 1 skips kappa_2, which would otherwise lead on
# every graph, so that the Sigma inverse and the Cheeger scan lead somewhere
# within an op of about a second.
ESTIMATE_SLOTS = (
    ("dense", 9, 8, 2),           # K9, m = 36: kappa2_f is nearly all of it
    ("small", 13, 6, 2),          # m = 39: kappa2_f again, on a circulant
    ("sparse-large", 40, 6, 1),   # n = 40: the Sigma inverse leads
    ("cheeger", 18, 6, 1),        # the 2^17-subset Cheeger scan leads
)
ESTIMATE_K, ESTIMATE_BITS = 4, 256

# Nominal seconds of one pass on 2 shared cores, process start included.
PASS_S = {"series": 2.4, "estimate": 3.4, "cli": 8.5}
MIN_REPS = 3


def reps_for(workload: str, seconds: float) -> int:
    """Passes a run makes: fixed by --seconds, never by the clock, so a faster
    program does the same work in less time."""
    return max(MIN_REPS, round(seconds / PASS_S[workload]))


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class GraphSpec:
    key: str                      # "K15" or "C48(1,5,11)"
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def edge_list_text(self) -> str:
        lines = [str(self.n)] + [f"{u + 1} {v + 1}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def complete(n: int) -> GraphSpec:
    return GraphSpec(f"K{n}", n, tuple(combinations(range(n), 2)))


def circulant(n: int, offsets) -> GraphSpec:
    """C_n(offsets); distinct offsets in 1..(n-1)//2 give degree 2 |offsets|,
    and gcd(n, offsets) = 1 makes the graph connected."""
    offsets = tuple(sorted(offsets))
    if len(set(offsets)) != len(offsets) or not all(1 <= d <= (n - 1) // 2
                                                    for d in offsets):
        raise ValueError(f"bad offsets {offsets} for n={n}")
    if gcd(n, *offsets) != 1:
        raise ValueError(f"C{n}{offsets} is disconnected")
    edges = {tuple(sorted((i, (i + d) % n))) for d in offsets for i in range(n)}
    return GraphSpec(f"C{n}({','.join(map(str, offsets))})", n,
                     tuple(sorted(edges)))


def seeded_graph(rng: random.Random, n: int, degree: int) -> GraphSpec:
    """Connected graph with every degree equal to ``degree`` (even)."""
    if degree == n - 1:
        return complete(n)
    extra = rng.sample(range(2, (n - 1) // 2 + 1), degree // 2 - 1)
    return circulant(n, [1] + extra)


@dataclass(frozen=True)
class EstimateJob:
    label: str
    spec: GraphSpec
    M: int

    @property
    def key(self) -> str:
        """Name of the frozen reference, e.g. ``C40(1,6,19) M=1``."""
        return f"{self.spec.key} M={self.M}"


def estimate_inputs(seed: int) -> list[EstimateJob]:
    """One job per entry of ESTIMATE_SLOTS."""
    rng = random.Random(f"{seed}/estimate")
    return [EstimateJob(label, seeded_graph(rng, n, d), M)
            for label, n, d, M in ESTIMATE_SLOTS]


# ---------------------------------------------------------------------------
# tail-lab instances


def tail_instance(rng: random.Random, n: int, threes: int) -> dict:
    """f = eps * sum over a seeded pair set of x_i x_j, values in {0, 1, 2}.

    With eps < 1/5600, n <= 8 and values <= 2, every single-coordinate
    difference is at most 2 * 2 * 7 * eps and every pair difference at most
    4 eps, so alpha <= 28 eps < 1/200 by construction.
    """
    if not 1 <= n <= 8 or not 0 <= threes <= n:
        raise ValueError("need n <= 8")
    sizes = [3] * threes + [2] * (n - threes)
    rng.shuffle(sizes)
    weights = []
    for s in sizes:
        raw = [rng.randint(1, 9) for _ in range(s)]
        weights.append([str(Fraction(x, sum(raw))) for x in raw])
    eps = Fraction(1, rng.randint(5601, 9000))
    pairs = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5]
    table = []
    for point in _points(sizes):
        table.append(str(eps * sum(point[i] * point[j] for i, j in pairs)))
    return {"alphabets": [[str(v) for v in range(s)] for s in sizes],
            "weights": weights, "f": table}


def _points(sizes):
    """Row-major points of the product of ranges."""
    if not sizes:
        yield ()
        return
    for head in range(sizes[0]):
        for rest in _points(sizes[1:]):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# cli op stream


@dataclass
class CliOp:
    kind: str                     # check routine, see checks.check_cli_op
    argv: list[str]
    expect_code: int = 0
    params: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)   # file name -> text


def _graph_file(op_id: str, g: GraphSpec) -> tuple[str, str]:
    return f"{op_id}.edges", g.edge_list_text()


def cli_inputs(seed: int) -> list[CliOp]:
    """Twenty ops, most of them light, so interpreter start and imports
    dominate.  The one reject in twenty (5%) rotates with the seed through the
    three documented contract rejections."""
    rng = random.Random(f"{seed}/cli")
    ops: list[CliOp] = []

    def graph_op(kind, argv_head, g):
        name, text = _graph_file(f"op{len(ops)}", g)
        ops.append(CliOp(kind, argv_head + ["--graph", name],
                         params={"graph": g}, files={name: text}))

    for n in rng.sample(range(1, 14, 2), 2) + [15]:
        ops.append(CliOp("rt", ["exact", "rt", "--n", str(n)], params={"n": n}))
    for n in (5, rng.randint(1, 4)):
        fam = rng.choice(("ed", "eog"))
        ops.append(CliOp("balanced", ["exact", fam, "--n", str(n)],
                         params={"family": fam, "n": n}))
    graph_op("eo", ["exact", "eo"], seeded_graph(rng, rng.randint(9, 12), 4))
    graph_op("eo", ["exact", "eo"], seeded_graph(rng, 9, 6))
    for order in (6, rng.randint(2, 5)):
        fam = rng.choice(("rt", "ed", "eog"))
        n = rng.randrange(9, 42, 2) if fam == "rt" else rng.randint(9, 41)
        ops.append(CliOp("expand", ["expand", fam, "--order", str(order),
                                    "--eval", str(n)],
                         params={"family": fam.upper(), "order": order, "n": n}))
    graph_op("estimate", ["estimate"], complete(7))
    graph_op("estimate", ["estimate"], seeded_graph(rng, 9, 6))
    for _ in range(2):
        graph_op("bounds", ["bounds"], seeded_graph(rng, rng.randint(9, 30), 4))
    for _ in range(2):
        graph_op("graphinfo", ["graphinfo"],
                 seeded_graph(rng, rng.randint(8, 12), rng.choice((4, 6))))
    for n, threes, m in ((6, 2, 3), (rng.randint(4, 6), 2, rng.randint(1, 3)),
                         (rng.randint(4, 6), 2, rng.randint(1, 3)),
                         (rng.randint(2, 4), 1, rng.randint(1, 3))):
        name = f"op{len(ops)}.json"
        inst = tail_instance(rng, n, threes)
        ops.append(CliOp("taillab", ["taillab", "--instance", name, "--m", str(m)],
                         params={"n": n, "m": m}, files={name: json.dumps(inst)}))
    reject = seed % 3
    if reject == 0:
        n = rng.randrange(2, 21, 2)
        ops.append(CliOp("reject", ["exact", "rt", "--n", str(n)], 2))
    elif reject == 1:
        ops.append(CliOp("reject", ["exact", "rt", "--n", "23"], 3))
    else:
        n = rng.randint(4, 12)
        path = GraphSpec(f"P{n}", n, tuple((i, i + 1) for i in range(n - 1)))
        name, text = _graph_file(f"op{len(ops)}", path)
        ops.append(CliOp("reject", ["estimate", "--graph", name], 2,
                         files={name: text}))
    rng.shuffle(ops)
    return ops
