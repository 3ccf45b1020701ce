"""Traffic generators: the "Internet stream" of the paper's model.

The calibrated composite (:func:`~repro.traffic.mix.attach_internet_mix`) is
built from the application sources :class:`~repro.traffic.ftp.FtpSource`
(bulk transfers of 512-byte packets) and
:class:`~repro.traffic.telnet.TelnetSource` (interactive small packets).
:class:`~repro.traffic.poisson.PoissonSource` is the memoryless stream of
the kernel throughput benchmark, and
:class:`~repro.traffic.tcpflows.ResponsiveBulkSource` the window-controlled
bulk flow of the responsive-traffic ablation.
"""
