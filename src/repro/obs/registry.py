"""The metrics registry: named counters and gauges.

Components register instruments under slash-separated names
(``net/icm-sophia.icp.net/if/Ithaca.NY.NSS.NSF.NET/queue/drops`` — slashes,
not dots, because node names are hostnames) and a single
:meth:`MetricsRegistry.snapshot` call collects everything into one nested
dict per run.  Every instrument is *pull-based*: it holds a zero-argument
callable that reads state the component already maintains (the
``sim.monitor`` counters and time-weighted values), so registering metrics
adds nothing to the simulation hot path and cannot perturb event order.

:func:`instrument_network` walks a built :class:`~repro.net.routing.Network`
and registers the standard per-node / per-interface / per-queue instruments,
including the per-fault drop counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.net.routing import Network

#: Hierarchy separator in instrument names (dots appear inside hostnames).
SEPARATOR = "/"

#: Instrument kinds (the ``kind`` field of snapshot leaves).
KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"


class Instrument:
    """Base class: a named, self-describing metric."""

    kind: str = ""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description

    def value(self) -> Any:
        """Current value (snapshot leaf)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}={self.value()!r}>"


class CounterMetric(Instrument):
    """A monotonically growing count read from a component at snapshot time."""

    kind = KIND_COUNTER

    def __init__(self, name: str, source: Callable[[], int],
                 description: str = "") -> None:
        super().__init__(name, description)
        self._source = source

    def value(self) -> int:
        return self._source()


class GaugeMetric(Instrument):
    """A point-in-time reading pulled from a callable at snapshot time."""

    kind = KIND_GAUGE

    def __init__(self, name: str, source: Callable[[], float],
                 description: str = "") -> None:
        super().__init__(name, description)
        self._source = source

    def value(self) -> float:
        return float(self._source())


class MetricsRegistry:
    """Holds every registered instrument and snapshots them as one dict."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def counter(self, name: str, source: Callable[[], int],
                description: str = "") -> CounterMetric:
        """Register (and return) a pull-based counter."""
        metric = CounterMetric(name, source=source, description=description)
        self._add(metric)
        return metric

    def gauge(self, name: str, source: Callable[[], float],
              description: str = "") -> GaugeMetric:
        """Register (and return) a pull-based gauge."""
        metric = GaugeMetric(name, source=source, description=description)
        self._add(metric)
        return metric

    def _add(self, metric: Instrument) -> None:
        if metric.name in self._instruments:
            raise ConfigurationError(
                f"duplicate metric name {metric.name!r}")
        self._instruments[metric.name] = metric

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> Instrument:
        """Look one instrument up by its full slash-separated name."""
        return self._instruments[name]

    def names(self) -> List[str]:
        """All registered instrument names, sorted."""
        return sorted(self._instruments)

    def flat_snapshot(self) -> Dict[str, Any]:
        """``{full name: value}`` for every instrument."""
        return {name: self._instruments[name].value()
                for name in sorted(self._instruments)}

    def snapshot(self) -> Dict[str, Any]:
        """One nested dict of every metric, split on :data:`SEPARATOR`."""
        nested: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            parts = name.split(SEPARATOR)
            cursor = nested
            for part in parts[:-1]:
                cursor = cursor.setdefault(part, {})
            cursor[parts[-1]] = self._instruments[name].value()
        return nested

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._instruments)} instruments>"


# ----------------------------------------------------------------------
# Standard instrumentation of a built network
# ----------------------------------------------------------------------
def instrument_network(registry: MetricsRegistry,
                       network: "Network") -> None:
    """Register the standard substrate metrics for every network component.

    Per node: forwarding and drop counters (plus UDP counters on hosts).
    Per interface: transmit counters, busy-time utilization gauge, fault
    drops, and per-fault-model drop counters.  Per queue: arrival / drop /
    departure counters and time-weighted occupancy gauges.  Everything is
    pull-based, so this can be called before *or* after the run.
    """
    from repro.net.host import Host  # local import: avoid cycle at load

    for node_name in sorted(network.nodes):
        node = network.nodes[node_name]
        base = f"net/{node_name}"
        registry.counter(f"{base}/forwarded",
                         source=lambda n=node: n.forwarded,
                         description="packets forwarded by this node")
        registry.counter(f"{base}/ttl_drops",
                         source=lambda n=node: n.ttl_drops,
                         description="packets dropped for expired TTL")
        registry.counter(f"{base}/no_route_drops",
                         source=lambda n=node: n.no_route_drops,
                         description="packets dropped for missing routes")
        if isinstance(node, Host):
            registry.counter(f"{base}/udp_sent",
                             source=lambda h=node: h.udp_sent,
                             description="UDP datagrams originated")
            registry.counter(f"{base}/udp_received",
                             source=lambda h=node: h.udp_received,
                             description="UDP datagrams delivered locally")
        for peer_name in sorted(node.interfaces):
            interface = node.interfaces[peer_name]
            ibase = f"{base}/if/{peer_name}"
            registry.counter(f"{ibase}/transmitted",
                             source=lambda i=interface: i.transmitted,
                             description="packets fully serialized")
            registry.counter(f"{ibase}/transmitted_bits",
                             source=lambda i=interface: i.transmitted_bits,
                             description="bits put on the wire")
            registry.counter(f"{ibase}/fault_drops",
                             source=lambda i=interface: i.fault_drops,
                             description="packets discarded by fault models")
            registry.gauge(f"{ibase}/utilization",
                           source=interface.utilization_estimate,
                           description="fraction of time transmitter busy")
            registry.gauge(f"{ibase}/busy_seconds",
                           source=lambda i=interface: i.busy_time,
                           description="total transmitter busy time")
            for position, fault in enumerate(interface.egress_faults):
                _instrument_fault(registry, f"{ibase}/egress_fault{position}",
                                  fault)
            for position, fault in enumerate(interface.ingress_faults):
                _instrument_fault(registry, f"{ibase}/ingress_fault{position}",
                                  fault)
            queue = interface.queue
            qbase = f"{ibase}/queue"
            registry.counter(f"{qbase}/arrivals",
                             source=lambda q=queue: q.arrivals,
                             description="enqueue attempts")
            registry.counter(f"{qbase}/drops",
                             source=lambda q=queue: q.drops,
                             description="tail drops on overflow")
            registry.counter(f"{qbase}/departures",
                             source=lambda q=queue: q.departures,
                             description="packets dequeued for transmission")
            registry.gauge(f"{qbase}/loss_fraction",
                           source=lambda q=queue: q.loss_fraction,
                           description="drops / arrivals")
            registry.gauge(f"{qbase}/occupancy_mean_pkts",
                           source=queue.occupancy_packets.mean,
                           description="time-weighted mean occupancy, pkts")
            registry.gauge(f"{qbase}/occupancy_max_pkts",
                           source=queue.occupancy_packets.maximum,
                           description="peak occupancy, packets")
            registry.gauge(f"{qbase}/occupancy_mean_bytes",
                           source=queue.occupancy_bytes.mean,
                           description="time-weighted mean occupancy, bytes")


def _instrument_fault(registry: MetricsRegistry, base: str,
                      fault: Any) -> None:
    """Register whatever counters a fault model exposes."""
    if hasattr(fault, "dropped"):
        registry.counter(f"{base}/dropped",
                         source=lambda f=fault: f.dropped,
                         description=f"packets discarded "
                                     f"({type(fault).__name__})")
