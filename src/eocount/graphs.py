"""Simple undirected graphs and the exact quantities the estimators need:
the spanning-tree count and the adjugate of L + J from one banded
elimination (a symmetric fraction-free forward pass over the band rows of
the grounded Laplacian on sparse graphs, or of L + J ordered by the
complement on dense ones, and a back sweep from those rows), Cheeger
constant, degree predicates.

Vertices are 0-based contiguous integers internally; the text/JSON formats use
1-based labels.
"""

from __future__ import annotations

import io
import json
import struct
import sys
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from operator import mul

from .errors import DomainError, SizeLimitError

# The exhaustive Cheeger scan visits all 2^(n-1) subsets; at n = 22 it takes
# 8-10 ms on K22, C22 and C22(1,3,8) (2 shared cores, CPython 3.11).
CHEEGER_MAX_N = 22
# Vertices whose subsets the scan handles at once, one 16-bit lane each.  A
# walked step costs a few big-int operations over 2^LANE_BITS lanes, and the
# set-up tables grow as 2^LANE_BITS.  Measured over 6..10: 8 ties 9 on C18,
# is within 25% of 10 at n = 22 and twice as fast as 10 at n = 12 and 13.
LANE_BITS = 8
# Graph files may name at most this many vertices: a degree list of 10^6
# entries is a few MiB, and bounds and graphinfo stay usable on large sparse
# graphs.  Checked before any per-vertex list is built.
GRAPH_FILE_MAX_N = 10**6
# The elimination behind tau and Sigma is refused above this many vertices,
# before any per-vertex list is built.  The band keeps sparse graphs cheap: on
# C_n(1,2,3) tau takes 2, 6 and 15 ms at n = 100, 200 and 300, and the
# adjugate 0.01, 0.06 and 0.19 s.  What binds is the n x n adjugate (11 MiB
# of ints on C300(1,2,3)) and graphs whose band is wide in both matrices: on
# G(300, 1/2) tau takes 13 s and the adjugate 29 s (2 shared cores,
# CPython 3.11).
DENSE_MAX_N = 300


class Graph:
    """Simple undirected graph on vertices 0..n-1 (no loops, no multi-edges)."""

    __slots__ = {"n": "vertex count", "edges": "pairs (u, v) with u < v",
                 "degrees": "degree of each vertex, not compared"}

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        deg = [0] * n
        for u, v in edges:
            if not (0 <= u < v < n):
                raise DomainError(f"bad edge ({u}, {v}) for n={n}")
            deg[u] += 1
            deg[v] += 1
        self.n, self.edges, self.degrees = n, edges, tuple(deg)

    def __eq__(self, other):
        return type(other) is Graph and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph from 0-based pairs in either order, by the edge rule of the
        graph files (``_checked_graph``); a bad pair is a DomainError."""
        return _checked_graph(n, edges, 0)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def is_connected(self) -> bool:
        """True when the graph has a spanning tree: never for n = 0.  One
        union-find over the edges on a flat list of parents, with path
        halving; no per-vertex list is built."""
        n = self.n
        if n <= 1:
            return n == 1
        parent = list(range(n))
        parts = n
        for u, v in self.edges:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                parts -= 1
                if parts == 1:
                    return True
        return False


# ---------------------------------------------------------------------------
# named families

def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(*sizes: int) -> Graph:
    n = sum(sizes)
    labels = []
    for part, s in enumerate(sizes):
        labels.extend([part] * s)
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if labels[u] != labels[v]]
    return Graph.from_edges(n, edges)


def circulant_graph(n: int, offsets) -> Graph:
    if n < 1:
        raise DomainError("circulant needs n >= 1")
    edges = set()
    for d in offsets:
        d %= n
        if d == 0:
            raise DomainError("zero offset makes a self-loop")
        for i in range(n):
            edges.add((min(i, (i + d) % n), max(i, (i + d) % n)))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# I/O: plain-text edge list and JSON, both 1-based

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked_graph(n: int, pairs, first: int, max_edges: int | None = None) -> Graph:
    """The Graph with the 0-based edges from pairs of labels first..first +
    n - 1 in either order, each a 2-element list or tuple of ints (not
    bools).  A self-loop or a repeat in either order is a DomainError, not
    merged, naming the labels as given; the first pair past ``max_edges`` is
    a SizeLimitError.  Each pair is checked here once and the degrees are
    counted in the same pass, so ``Graph.__init__``'s check is skipped."""
    if n < 0:
        raise DomainError("vertex count must be nonnegative")
    last = first + n - 1
    edges, deg = set(), [0] * n
    for pair in pairs:
        if len(edges) == max_edges:
            raise SizeLimitError(f"this command is capped at {max_edges} edges")
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(map(_is_int, pair))):
            raise DomainError(f"bad edge: {pair!r}")
        j, k = pair
        if not (first <= j <= last and first <= k <= last):
            raise DomainError(f"edge ({j}, {k}) out of range {first}..{last}")
        if j == k:
            raise DomainError(f"self-loop at vertex {j}")
        e = (j - first, k - first) if j < k else (k - first, j - first)
        if e in edges:
            raise DomainError(f"repeated edge ({j}, {k})")
        edges.add(e)
        deg[j - first] += 1
        deg[k - first] += 1
    g = Graph.__new__(Graph)
    g.n, g.edges = n, frozenset(edges)
    del edges  # before the degree tuple: the two sets dominate the peak
    g.degrees = tuple(deg)
    return g


def _graph_from_labels(n, pairs, max_edges: int | None = None) -> Graph:
    """Graph on n vertices from 1-based label pairs, after the vertex cap."""
    if not _is_int(n):
        raise DomainError(f"vertex count is not an integer: {n!r}")
    if n > GRAPH_FILE_MAX_N:
        raise SizeLimitError(f"graph files are capped at {GRAPH_FILE_MAX_N} vertices")
    return _checked_graph(n, pairs, 1, max_edges)


def _ints(tokens: list[str]) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise DomainError("graph file has a token that is not an integer") from None


def parse_edge_list(text, max_edges: int | None = None) -> Graph:
    """First line is the vertex count, then one 'j k' pair per line, 1-based.

    ``text`` is a string or an iterable of lines (an open file), read line by
    line.  Blank lines and lines starting with '#' are skipped.
    """
    lines = io.StringIO(text, newline=None) if isinstance(text, str) else text
    rows = (ln.split() for ln in lines)
    rows = (row for row in rows if row and not row[0].startswith("#"))
    first = next(rows, None)
    if first is None:
        raise DomainError("empty graph file")
    if len(first) != 1:
        raise DomainError(f"first line is not a vertex count: {' '.join(first)!r}")
    return _graph_from_labels(_ints(first)[0], map(_ints, rows), max_edges)


def parse_graph_json(obj, max_edges: int | None = None) -> Graph:
    """{"n": N, "edges": [[j, k], ...]} with 1-based vertex labels."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        # a JSONDecodeError, an integer past the int -> str digit limit, or
        # nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"bad graph JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj \
            or not isinstance(obj.get("edges"), list):
        raise DomainError('graph JSON needs "n" and a list "edges"')
    return _graph_from_labels(obj["n"], obj["edges"], max_edges)


def load_graph(path: str, max_edges: int | None = None) -> Graph:
    """A graph file: JSON when its first non-blank line starts with '{', else
    an edge list, streamed from the file; an edge list is read no further
    than its first edge past ``max_edges``."""
    with open(path) as fh:
        line = next((ln for ln in fh if ln.strip()), "")
        if line.lstrip().startswith("{"):
            return parse_graph_json(line + fh.read(), max_edges)
        return parse_edge_list(chain([line], fh), max_edges)


# ---------------------------------------------------------------------------
# spanning trees and the adjugate of L + J

def require_dense(g: Graph) -> None:
    """Refuse dense n x n algebra above ``DENSE_MAX_N`` vertices."""
    if g.n > DENSE_MAX_N:
        raise SizeLimitError(f"dense linear algebra is capped at n={DENSE_MAX_N}")


def _rcm_order(n: int, pairs) -> list[int]:
    """Reverse Cuthill-McKee order of the graph on 0..n-1 with edges
    ``pairs``: breadth-first from a vertex of least degree in each component,
    each vertex's new neighbours taken by increasing degree, then reversed.
    An edge then joins vertices in the same or adjacent levels, so the
    positions of its ends differ by little."""
    nbrs = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = list(map(len, nbrs)).__getitem__
    seen = bytearray(n)
    order = []
    for start in sorted(range(n), key=deg):
        if seen[start]:
            continue
        seen[start] = 1
        head = len(order)
        order.append(start)
        while head < len(order):
            fresh = sorted((u for u in nbrs[order[head]] if not seen[u]), key=deg)
            for u in fresh:
                seen[u] = 1
            order += fresh
            head += 1
    order.reverse()
    return order


def _eliminated(g: Graph) -> tuple[bool, list[int], list[list[int]], int]:
    """(grounded, pos, U, det): the symmetric fraction-free (Bareiss) forward
    pass over the upper band rows U of the sparser of two matrices, vertex v
    at position pos[v], and its determinant; det = 0 at a zero pivot, where
    the pass stops, and for the empty graph.

    With 4m <= n(n - 1) (at most half of all pairs are edges) the matrix is
    the grounded Laplacian L_0, L without the last vertex of an RCM order of
    G: det L_0 = tau.  Otherwise it is L + J = D + I + A(complement) in an
    RCM order of the complement (nI on K_n): det = n^2 tau.  Both are
    positive semidefinite, and definite exactly when the graph is connected,
    so their leading minors d_k are then positive and every division below is
    exact, and a zero pivot means a disconnected graph.

    Row i holds columns i..i + b of the band of width b, and after the pass
    U[i] is row i after i steps, U[i][0] = d_{i+1}.  Step k updates a[i][j],
    k < i <= j <= k + b, as (d_{k+1} a[i][j] - a[k][i] a[k][j]) / d_k.  The
    entries of a column j > k + b are left alone, so a column first reached
    at step k, j = k + b, still holds its original values where the earlier
    steps would have scaled them to d_k times those: step k multiplies them
    by d_k in every row k..j, the pivot row included.
    """
    require_dense(g)
    n = g.n
    if n == 0:
        return True, [], [], 0
    grounded = 4 * g.edge_count <= n * (n - 1)
    pairs = g.edges if grounded else [
        e for e in combinations(range(n), 2) if e not in g.edges]
    order = _rcm_order(n, pairs)
    pos = [0] * n
    for s, v in enumerate(order):
        pos[v] = s
    size = n - grounded
    spans = [(pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
             for u, v in pairs]
    spans = [(p, q) for p, q in spans if q < size]
    b = max((q - p for p, q in spans), default=0)
    U = [[g.degrees[v] + (not grounded)] + [0] * min(b, size - 1 - s)
         for s, v in enumerate(order[:size])]
    off = -1 if grounded else 1
    for p, q in spans:
        U[p][q - p] = off
    prev = 1
    for k, uk in enumerate(U):
        if k and k + b < size:
            for i in range(k, k + b + 1):
                U[i][k + b - i] *= prev
        piv = uk[0]
        if piv == 0:
            return grounded, pos, U, 0
        for i in range(k + 1, k + len(uk)):
            c, ui = uk[i - k], U[i]
            new = [(piv * x - c * y) // prev for x, y in zip(ui, uk[i - k:])]
            if len(new) < len(ui):
                new += ui[len(new):]
            U[i] = new
        prev = piv
    return grounded, pos, U, prev


def l_plus_j_adjugate(g: Graph) -> tuple[int, list[list[int]] | None]:
    """(tau, adj): the spanning-tree count and the adjugate of L + J, from
    the rows U of ``_eliminated`` and one back sweep; (0, None) for a
    disconnected or empty graph.

    Row i of U is d_i (d_0 = 1) times row i of the Gaussian factor U~ in
    A = L~ U~, A the eliminated matrix of order N.  Y = adj A = d_N A^-1
    solves U~ Y = d_N L~^-1 with L~^-1 unit lower triangular, so for j >= i
    (Takahashi's recurrence)
        Y[i][j] = Y[j][i] = ([i = j] d_N d_i - sum_{k > i} U[i][k - i] Y[j][k])
                            / d_{i+1},
    where the sum runs over k <= i + b only.  Run for i = N-1 down to 0 and
    j = N-1 down to i, it reads only entries already set.  The numerator is
    d_{i+1} times the integer Y[i][j], so every division is exact.

    On the L + J side adj is Y with its rows and columns put back in vertex
    order.  On the L_0 side, with Y padded by a zero row and column, row sums
    rho and their total sigma, (L + J)^-1 = (I - J/n) Y/tau (I - J/n) + J/n^2
    gives adj[v][w] = n^2 Y_vw - n (rho_v + rho_w) + sigma + tau, rebuilt in
    place row by row.
    """
    grounded, pos, U, det = _eliminated(g)
    if not det:
        return 0, None
    n = g.n
    Y = [[0] * n for _ in range(n)]
    for i in range(len(U) - 1, -1, -1):
        piv, tail, yi = U[i][0], U[i][1:], Y[i]
        end = i + len(U[i])
        for j in range(len(U) - 1, i, -1):
            yj = Y[j]
            yi[j] = yj[i] = -sum(map(mul, tail, yj[i + 1:end])) // piv
        minor = U[i - 1][0] if i else 1
        yi[i] = (det * minor - sum(map(mul, tail, yi[i + 1:end]))) // piv
    Y[:] = [Y[p] for p in pos]
    if not grounded:
        for row in Y:
            row[:] = [row[p] for p in pos]
        return det // (n * n), Y
    tau, n2 = det, n * n
    nrho = [n * sum(row) for row in Y]
    sigma = sum(nrho) // n
    for v, row in enumerate(Y):
        # rows above v are rebuilt already: the entries left of the diagonal
        # are theirs, the same int objects
        base = sigma + tau - nrho[v]
        row[:] = [y[v] for y in Y[:v]] + [n2 * row[p] - r + base for p, r
                                          in zip(pos[v:], nrho[v:])]
    return tau, Y


def _adjugate_row(g: Graph) -> tuple[int, int, list[int] | None]:
    """(tau, r, row): row r of adj(L + J), r the vertex at position n - 1,
    from the rows U of ``_eliminated`` and one fraction-free solve y =
    adj(A) t in O(n b) ints; (0, 0, None) for a disconnected or empty graph.
    The forward pass scales t[i] lazily, as ``_eliminated`` does its columns,
    then y[i] = (d_N t[i] - sum_{k > i} U[i][k - i] y[k]) / d_{i+1}.  t =
    e_{n-1} gives the row on the L + J side; t = 1 gives rho = adj(L_0) 1 on
    the L_0 side, r grounded, so row[w] = sigma + tau - n rho_w as in
    ``l_plus_j_adjugate``."""
    grounded, pos, U, det = _eliminated(g)
    if not det:
        return 0, 0, None
    n, size = g.n, len(U)
    t = [1] * size if grounded else [0] * (size - 1) + [1]
    b, prev = len(U[0]) - 1 if U else 0, 1
    for k, uk in enumerate(U):
        if k and k + b < size:
            t[k + b] *= prev
        piv, tk = uk[0], t[k]
        for i in range(k + 1, k + len(uk)):
            t[i] = (piv * t[i] - uk[i - k] * tk) // prev
        prev = piv
    y = [0] * size
    for i in range(size - 1, -1, -1):
        ui = U[i]
        y[i] = (det * t[i] - sum(map(mul, ui[1:], y[i + 1:i + len(ui)]))) // ui[0]
    r = pos.index(n - 1)
    if not grounded:
        return det // (n * n), r, [y[p] for p in pos]
    y.append(0)
    base = sum(y) + det
    return det, r, [base - n * y[p] for p in pos]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, det L_0 or det(L + J)/n^2 by the
    matrix-tree theorem, from the forward pass of ``_eliminated`` alone; 0
    for a disconnected or empty graph."""
    grounded, _, _, det = _eliminated(g)
    return det if grounded else det // g.n ** 2


# ---------------------------------------------------------------------------
# Cheeger constant

def cheeger_constant(g: Graph) -> Fraction:
    """min over nonempty U with |U| <= n/2 of |boundary(U)| / |U|, exact.

    Exhaustive over the subsets S of {0..n-2}: the candidate for S is
    whichever of S and its complement has at most n/2 vertices, and ratios
    are compared as integer pairs by cross-multiplication.  S splits into
    A, its part among the k = min(n - 1, LANE_BITS) lowest vertices, and B,
    the rest.  Every A owns one 16-bit lane of a single int, the lanes
    ordered by |A| so that each size class is one contiguous slice.  B runs
    over the other vertices in Gray-code order; flipping b into or out of B
    subtracts or adds the packed vector of 2 |N(b) & A|, one big-int step
    per walked subset.  At each B one C-level ``min`` per size class gives
    the smallest cut for every |S| at once.

    A lane holds cut(S) - cut(B) + m (m edges).  cut(S) and cut(B) both lie
    in [0, m], so a lane lies in [0, 2m]; with n <= CHEEGER_MAX_N = 22,
    m <= 231 and 2m < 2^16, so no step carries or borrows across lanes.

    Each walked B is first screened by one packed comparison.  S of size
    |S| = a + |B| beats the best ratio exactly when cut(S) best_size <
    best_cut small, that is, cut(S) + m < U_a with U_a = ceil(best_cut small /
    best_size) + m, for the integer cut(S).  Adding cut(B) to every lane and
    then 2^15 - U_a to the lanes of class a leaves cut(S) + m + 2^15 - U_a,
    whose bit 15 (the guard) is set exactly when S cannot beat the best; a B
    whose guards are all set is skipped.  The first B (the empty one) is
    never screened and sets a finite best, since the singleton {0} is a lane:
    the best ratio is then at most deg(0) <= n - 1, so U_a <= (n - 1) n/2 + m
    <= 462 and a screened lane lies in [2^15 - 462, 2^15 + 462], inside
    [0, 2^16), so the screen carries or borrows across no lane either.  The
    vectors 2^15 - U, one per |B|, are rebuilt only after the best improves.
    """
    n = g.n
    if n < 2:
        raise DomainError("Cheeger constant needs n >= 2")
    if n > CHEEGER_MAX_N:
        raise SizeLimitError(f"exhaustive Cheeger scan capped at n={CHEEGER_MAX_N}")
    m = g.edge_count
    deg = g.degrees
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    k = min(n - 1, LANE_BITS)

    def table(u, start, step, below):
        """start + step |N(u) & A| for every subset A (a bitmask) of the
        vertices below ``below``, by doubling over those vertices."""
        t = [start]
        for v in range(below):
            t += [x + step for x in t] if nbr[u] >> v & 1 else t
        return t

    cuts = [m]  # cut(A) + m; v joining A adds deg(v) - 2 |N(v) & A|
    for v in range(k):
        cuts += [c + x for c, x in zip(cuts, table(v, deg[v], -2, v))]
    order = sorted(range(1 << k), key=int.bit_count)

    def pack(values) -> int:
        # the int whose native-order bytes are the lanes; the to_bytes below
        # reads them back in the same order
        return int.from_bytes(struct.pack(f"{len(values)}H", *values),
                              sys.byteorder)

    lanes = pack([cuts[A] for A in order])
    flips = [pack([t[A] for A in order])
             for t in (table(b, 0, 2, k) for b in range(k, n - 1))]
    classes, lo = [], 0
    for a in range(k + 1):
        classes.append((a, slice(lo, lo + comb(k, a))))
        lo += comb(k, a)

    def runs(values) -> int:
        # values[a] on every lane of size class a
        return int.from_bytes(b"".join(struct.pack("H", v) * comb(k, a)
                                       for a, v in enumerate(values)), sys.byteorder)

    ones = runs([1] * (k + 1))
    guards = ones << 15
    smalls = [min(size, n - size) for size in range(n)]  # the side with <= n/2

    def screens(best_cut, best_size):
        """For each |B|, the lanes 2^15 - U_a over the classes a, where
        U_a = ceil(best_cut small / best_size) + m for the small side of
        |S| = a + |B|."""
        # x // -y is -ceil(x / y)
        room = [(1 << 15) - m + best_cut * small // -best_size for small in smalls]
        return [runs(room[size_b:size_b + k + 1]) for size_b in range(n - k)]

    nbytes = 2 << k
    best_cut, best_size = 1, 0  # the ratio 1/0 stands for +infinity
    screen = None  # rebuilt at the first step after the best improves
    mask = cut_b = size_b = 0
    for step in range(1 << (n - 1 - k)):
        if step:  # Gray code: flip the walked vertex of step's lowest set bit
            i = (step & -step).bit_length() - 1
            b = k + i
            mask ^= 1 << b
            delta = deg[b] - 2 * (nbr[b] & mask).bit_count()
            if mask >> b & 1:
                size_b += 1
                cut_b += delta
                lanes -= flips[i]
            else:
                size_b -= 1
                cut_b -= delta
                lanes += flips[i]
            if screen is None:
                screen = screens(best_cut, best_size)
            if (lanes + cut_b * ones + screen[size_b]) & guards == guards:
                continue  # no S at this B beats the best
        view = memoryview(lanes.to_bytes(nbytes, sys.byteorder)).cast("H")
        for a, lanes_of_size in classes:
            # the empty S (size 0, cut 0) never passes the strict test
            small = smalls[a + size_b]
            cut = min(view[lanes_of_size]) + cut_b - m
            if cut * best_size < best_cut * small:
                best_cut, best_size = cut, small
                screen = None
    return Fraction(best_cut, best_size)


def all_degrees_even(g: Graph) -> bool:
    return all(d % 2 == 0 for d in g.degrees)
