"""Calibrated topologies: the paper's Table 1 / Table 2 paths and presets."""

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
from repro.topology.presets import SingleBottleneck, build_single_bottleneck
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
    "SingleBottleneck",
    "build_single_bottleneck",
    "NsfnetScenario",
    "build_nsfnet",
    "NSFNET_SITES",
    "NSFNET_LINKS",
]
