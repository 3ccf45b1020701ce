"""Calibrated topologies: the paper's Table 1 / Table 2 paths and NSFNET.

:func:`~repro.topology.inria_umd.build_inria_umd` and
:func:`~repro.topology.umd_pitt.build_umd_pitt` are the two measured paths;
:func:`~repro.topology.builder.build_path` is the generic chain builder
under them, and :func:`~repro.topology.nsfnet.build_nsfnet` the T1 backbone
of the survey example.
"""
