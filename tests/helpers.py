"""Thin wrappers over the shipped code that only the tests call.

The package keeps each computation in the form its callers need: the moment
recurrence on packed int codes, Sigma_w as integer rows over one
denominator, reports and instances as the CLI reads and prints them.  These
helpers give the tests the friendlier forms: a power-sum moment of a
sequence of exponents as a LaurentSeries, Sigma_w as Fractions, a log
estimate by order, the small named graphs, fair-bit product spaces and
tables built from a Python function, and graph and instance objects in
their file formats.
"""

from fractions import Fraction
from itertools import product

from eocount.errors import SizeLimitError
from eocount.graphs import Graph, complete_multipartite
from eocount.laurent import LaurentSeries
from eocount.powersums import encode, mu_moment_dict
from eocount.taillab import DiscreteProductSpace

# Most factors of a monomial here and in the partition-type oracles; the
# series engine's products of at most 12 f_K monomials have at most 24
# factors, and each field of a packed code holds up to 31.
TYPE_ENUM_MAX_FACTORS = 26


# ---------------------------------------------------------------------------
# power-sum moments

def mu_monomial(source) -> tuple[int, ...]:
    """Normalize a monomial given as a sequence of exponents >= 1."""
    exps = tuple(sorted(int(k) for k in source))
    if exps and exps[0] < 1:
        raise ValueError("exponents must be >= 1")
    return exps


def mu_moment(mono, p_max: int | None = None) -> LaurentSeries:
    """E[prod mu_j] truncated at n^(-p_max), exact (finite) for p_max None,
    by the shipped recurrence."""
    mono = mu_monomial(mono)
    if len(mono) > TYPE_ENUM_MAX_FACTORS:
        raise SizeLimitError(f"mu_moment capped at {TYPE_ENUM_MAX_FACTORS} factors")
    cut = sum(mono) // 2 if p_max is None else p_max
    full = mu_moment_dict(encode(mono), cut)
    return LaurentSeries({p: c for p, c in full.items() if p <= cut}, p_max)


# ---------------------------------------------------------------------------
# estimator

def sigma_w(cov, w) -> list[list[Fraction]]:
    """Sigma_w of a Covariance, exact."""
    rows, den = cov._scaled(w)
    return [[Fraction(x, den) for x in row] for row in rows]


def log_estimate(rep, M: int | None = None):
    """The log estimate of an EstimateReport at M, by default at the highest
    M computed."""
    logs = rep.logs()
    return logs[max(logs) if M is None else M]


# ---------------------------------------------------------------------------
# graphs

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def octahedron_graph() -> Graph:
    return complete_multipartite(2, 2, 2)


def graph_to_json(g: Graph) -> dict:
    """The JSON graph-file object, 1-based."""
    return {"n": g.n, "edges": sorted([u + 1, v + 1] for u, v in g.edges)}


# ---------------------------------------------------------------------------
# tail lab

def uniform_bits(n: int) -> DiscreteProductSpace:
    return DiscreteProductSpace([[0, 1]] * n, [["1/2", "1/2"]] * n)


def points(space: DiscreteProductSpace):
    """The index tuples of the space, in row-major order."""
    return product(*(range(s) for s in space.sizes))


def tabulate(space: DiscreteProductSpace, fn) -> tuple[Fraction, ...]:
    """fn(values...) over the space in row-major order."""
    return tuple(Fraction(fn(*[space.alphabets[i][k] for i, k in enumerate(x)]))
                 for x in points(space))


def instance_to_json(space: DiscreteProductSpace, table) -> dict:
    """The tail-lab instance object."""
    return {"alphabets": [[str(v) for v in a] for a in space.alphabets],
            "weights": [[str(w) for w in ws] for ws in space.weights],
            "f": [str(v) for v in table]}
