"""Calibrated topologies: the paper's Table 1 / Table 2 paths and NSFNET.

:func:`build_inria_umd` and :func:`build_umd_pitt` are the two measured
paths; :func:`build_path` is the generic chain builder under them, and
:func:`build_nsfnet` the T1 backbone of the survey example.
"""

from repro.topology.builder import LinkSpec, PathScenario, build_path
from repro.topology.inria_umd import (
    BOTTLENECK_RATE_BPS as INRIA_UMD_BOTTLENECK_BPS,
    TABLE1_ROUTE,
    build_inria_umd,
)
from repro.topology.nsfnet import (
    NSFNET_LINKS,
    NSFNET_SITES,
    NsfnetScenario,
    build_nsfnet,
)
from repro.topology.umd_pitt import (
    TABLE2_ROUTE,
    build_umd_pitt,
)

__all__ = [
    "LinkSpec",
    "build_path",
    "PathScenario",
    "build_inria_umd",
    "TABLE1_ROUTE",
    "INRIA_UMD_BOTTLENECK_BPS",
    "build_umd_pitt",
    "TABLE2_ROUTE",
    "NsfnetScenario",
    "build_nsfnet",
    "NSFNET_SITES",
    "NSFNET_LINKS",
]
