"""repro.datasets — workload generators and importers.

* :func:`graph500_edges` — the Graph500 Kronecker (R-MAT) generator used by
  the paper's benchmark (A=0.57, B=0.19, C=0.19, D=0.05, edge factor 16),
  scaled down by default.
* :func:`ldbc_lite` — a miniature LDBC-like social network with labeled,
  propertied entities for the examples.
* :mod:`repro.datasets.csv_import` — CSV node/edge file import through
  the columnar BulkWriter (the RedisGraph bulk-loader format).
"""

from repro.datasets.rmat import graph500_edges
from repro.datasets.ldbc_lite import ldbc_lite
from repro.datasets.csv_import import import_csv

__all__ = [
    "graph500_edges",
    "ldbc_lite",
    "import_csv",
]
