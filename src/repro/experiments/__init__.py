"""Calibrated experiments: one function per table/figure of the paper."""
