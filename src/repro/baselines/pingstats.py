"""The grouped-ICMP baseline methodology of Mukherjee [19].

The paper positions its UDP probing against this prior approach: groups of
10 ICMP echo packets sent at 1-second spacing, one group per minute, rtts
averaged per group, and the per-packet delay distribution modeled as a
constant plus a gamma.  Implementing the baseline lets the benchmarks show
what each methodology can and cannot see (group averages wash out the
millisecond-scale structure that NetDyn's dense probing resolves).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import ConfigurationError
from repro.net.routing import Network
from repro.tools.ping import ping


@dataclass
class GroupedPingResult:
    """Measurements of one grouped-ICMP experiment."""

    #: Per-group mean rtt, seconds (NaN for fully lost groups).
    group_means: np.ndarray
    #: All individual rtts, flattened.
    all_rtts: np.ndarray
    #: Per-group loss fraction.
    group_loss: np.ndarray
    #: Interval between groups, seconds.
    group_interval: float

    @property
    def groups(self) -> int:
        """Number of groups sent."""
        return len(self.group_means)



def grouped_ping(network: Network, source: str, destination: str,
                 groups: int = 10, group_size: int = 10,
                 packet_interval: float = 1.0,
                 group_interval: float = 60.0) -> GroupedPingResult:
    """Run the [19] methodology on a simulated network.

    Each group is ``group_size`` echoes at ``packet_interval`` spacing;
    groups start every ``group_interval`` seconds.  The simulator clock
    advances accordingly (10 groups = 10 simulated minutes by default).
    """
    if groups < 1 or group_size < 1:
        raise ConfigurationError("groups and group_size must be >= 1")
    if group_interval < group_size * packet_interval:
        raise ConfigurationError(
            "groups would overlap: group_interval too small")
    group_means = np.full(groups, np.nan)
    group_loss = np.empty(groups)
    all_rtts: list[float] = []

    for g in range(groups):
        result = ping(network, source, destination, count=group_size,
                      interval=packet_interval, ident=100 + g)
        rtts = [result.rtts.get(seq, np.nan) for seq in range(group_size)]
        all_rtts.extend(rtts)
        valid = [r for r in rtts if not np.isnan(r)]
        if valid:
            group_means[g] = float(np.mean(valid))
        group_loss[g] = result.loss_fraction
        # Idle until the next group starts.
        elapsed_in_group = group_size * packet_interval
        network.sim.run(until=network.sim.now
                        + max(0.0, group_interval - elapsed_in_group))

    return GroupedPingResult(group_means=group_means,
                             all_rtts=np.asarray(all_rtts),
                             group_loss=group_loss,
                             group_interval=group_interval)
