"""Network substrate: packets, queues, links, nodes, hosts, routing, faults.

This package implements the hop-by-hop store-and-forward network that stands
in for the 1992 Internet paths of the paper.  The bottleneck behavior the
paper models (Figure 3) emerges from :class:`~repro.net.queue.DropTailQueue`
plus :class:`~repro.net.link.Interface` serialization; nothing is special-
cased for the experiments.
"""
