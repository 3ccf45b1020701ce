"""Tests for the live (real-socket) NetDyn implementation on loopback."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.netdyn.live import probe, serve_echo

#: Loopback port range for these tests; chosen to avoid common services.
BASE_PORT = 15201


def run(coro):
    return asyncio.run(coro)


class TestLiveLoopback:
    def test_probe_round_trip(self):
        async def scenario():
            transport, protocol = await serve_echo("127.0.0.1", BASE_PORT)
            try:
                trace = await probe("127.0.0.1", BASE_PORT, delta=0.005,
                                    count=40, drain=0.3)
            finally:
                transport.close()
            return trace, protocol

        trace, protocol = run(scenario())
        assert len(trace) == 40
        assert protocol.echoed >= 38  # loopback may be busy; allow slack
        assert trace.loss_fraction <= 0.05
        assert float(trace.valid_rtts.min()) > 0.0
        assert float(trace.valid_rtts.max()) < 0.25

    def test_unanswered_probes_are_losses(self):
        async def scenario():
            # No echo server: every probe is lost.
            return await probe("127.0.0.1", BASE_PORT + 1, delta=0.005,
                               count=10, drain=0.1)

        trace = run(scenario())
        assert trace.loss_fraction == 1.0

    def test_trace_metadata(self):
        async def scenario():
            transport, _ = await serve_echo("127.0.0.1", BASE_PORT + 2)
            try:
                return await probe("127.0.0.1", BASE_PORT + 2, delta=0.005,
                                   count=5, drain=0.2, meta={"path": "lo"})
            finally:
                transport.close()

        trace = run(scenario())
        assert trace.meta["live"] is True
        assert trace.meta["path"] == "lo"
        assert trace.meta["target"].endswith(str(BASE_PORT + 2))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run(probe("127.0.0.1", BASE_PORT, delta=0.0, count=1))
        with pytest.raises(ConfigurationError):
            run(probe("127.0.0.1", BASE_PORT, delta=0.01, count=0))

    def test_echo_server_ignores_garbage(self):
        async def scenario():
            transport, protocol = await serve_echo("127.0.0.1",
                                                   BASE_PORT + 3)
            loop = asyncio.get_running_loop()
            client, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol,
                remote_addr=("127.0.0.1", BASE_PORT + 3))
            client.sendto(b"not a probe")
            await asyncio.sleep(0.1)
            client.close()
            transport.close()
            return protocol

        protocol = run(scenario())
        assert protocol.echoed == 0
