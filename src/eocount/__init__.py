"""Exact and asymptotic counting of Eulerian orientations.

Modules by area: graphs (spanning trees and adj(L + J), Cheeger constant),
exact (a transfer over the edges, one elimination over K_n), cumulants (the
moment-to-cumulant recursion), powersums (moments of centered Gaussian power
sums, p_1 = 0, by integration by parts, with signed int coefficients),
expansion (the RT/ED/EOG series from T_l without its p_1 terms), estimator
(general-graph estimates and sandwich bounds), taillab (exhaustive checks of
the cumulant tail bound).
"""

from .errors import DomainError, SizeLimitError
from .graphs import (Graph, circulant_graph, complete_graph,
                     complete_multipartite, cycle_graph)

__version__ = "0.1.0"

__all__ = ["DomainError", "SizeLimitError", "Graph", "circulant_graph",
           "complete_graph", "complete_multipartite", "cycle_graph",
           "__version__"]
