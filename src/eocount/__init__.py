"""Exact and asymptotic counting of Eulerian orientations.

Modules by area: graphs (Laplacian, spanning trees, Cheeger constant), exact
(a transfer over the edges, one elimination over K_n), cumulants (the
moment-to-cumulant recursion), powersums (Gaussian power-sum moments by
integration by parts), expansion (the RT/ED/EOG asymptotic series), estimator
(general-graph estimates and sandwich bounds), taillab (exhaustive checks of
the cumulant tail bound).
"""

from .errors import DomainError, SizeLimitError
from .graphs import (Graph, circulant_graph, complete_graph,
                     complete_multipartite, cycle_graph)
from .laurent import LaurentSeries

__version__ = "0.1.0"

__all__ = ["DomainError", "SizeLimitError", "Graph", "LaurentSeries",
           "circulant_graph", "complete_graph", "complete_multipartite",
           "cycle_graph", "__version__"]
