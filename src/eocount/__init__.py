"""Exact and asymptotic counting of Eulerian orientations.

Modules by area: graphs (spanning trees and adj(L + J), Cheeger constant),
exact (a transfer over the edges, one elimination over K_n), cumulants (the
moment-to-cumulant recursion), powersums (moments of centered Gaussian power
sums, p_1 = 0, by integration by parts, with signed int coefficients),
expansion (the RT/ED/EOG series from T_l without its p_1 terms), estimator
(general-graph estimates and sandwich bounds), taillab (exhaustive checks of
the cumulant tail bound).  ``import eocount`` runs errors alone; the graph
exports below load graphs when first read (PEP 562).
"""

from .errors import DomainError, SizeLimitError

__version__ = "0.1.0"

_GRAPH_NAMES = ("Graph", "circulant_graph", "complete_graph",
                "complete_multipartite", "cycle_graph")

__all__ = ["DomainError", "SizeLimitError", *_GRAPH_NAMES, "__version__"]


def __getattr__(name: str):
    if name in _GRAPH_NAMES:
        from . import graphs
        return getattr(graphs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
