"""Application-level consumers of the measurements (Section 5).

:mod:`~repro.apps.fec` implements the open-loop loss-repair schemes the
paper recommends for audio/video; :mod:`~repro.apps.playout` sizes and
simulates playback buffers against measured delay distributions.
"""
