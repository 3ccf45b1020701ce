"""Unit tests for the time-weighted reference the queue oracle uses."""

import pytest

from tests.sim.occupancy_reference import TimeWeightedValue


class TestTimeWeightedValue:
    def test_constant_value(self, sim):
        tracked = TimeWeightedValue(sim, initial=3.0)
        sim.run(until=10.0)
        assert tracked.mean() == pytest.approx(3.0)

    def test_step_change_weighted_by_time(self, sim):
        tracked = TimeWeightedValue(sim, initial=0.0)
        sim.call_at(5.0, lambda: tracked.update(10.0))
        sim.run(until=10.0)
        # 5 s at 0 plus 5 s at 10 -> mean 5.
        assert tracked.mean() == pytest.approx(5.0)

    def test_extrema(self, sim):
        tracked = TimeWeightedValue(sim, initial=2.0)
        sim.call_at(1.0, lambda: tracked.update(7.0))
        sim.call_at(2.0, lambda: tracked.update(-1.0))
        sim.run()
        assert tracked.maximum() == 7.0
        assert tracked.minimum() == -1.0

    def test_value_property(self, sim):
        tracked = TimeWeightedValue(sim, initial=1.0)
        tracked.update(4.0)
        assert tracked.value == 4.0
