"""Unit tests for the per-cycle observation stream.

Covers the :class:`ObservationStream` noise draws (draw for draw the
historical ``operator.observe`` loop, for every operator class), the
``"observations"`` fault site (spurious duplicates and in-place
corruption, neither of which consumes noise draws) and the
checkpoint/restore state round-trip.
"""

import copy

import numpy as np
import pytest

from repro.core.observations import (
    IdentityObservation,
    LinearObservation,
    NonlinearObservation,
    ObservationStream,
    SubsampledObservation,
)
from repro.utils.faults import FaultPlan
from repro.utils.random import SeedSequenceFactory

DIM = 12


def _truth(cycle: int) -> np.ndarray:
    return np.full(DIM, float(cycle))


def _stream(operator=None, seed=0, fault_plan=None):
    seeds = SeedSequenceFactory(seed)
    return ObservationStream(
        operator if operator is not None else IdentityObservation(DIM),
        rng=seeds.rng("observations"),
        fault_plan=fault_plan,
    )


OPERATORS = {
    "identity": lambda: IdentityObservation(DIM),
    "every_3": lambda: SubsampledObservation.every_nth(DIM, 3),
    "nonuniform_r": lambda: SubsampledObservation(
        DIM, np.arange(DIM), obs_error_var=np.linspace(0.5, 2.0, DIM)
    ),
    "linear": lambda: LinearObservation(np.eye(DIM)[::2] + np.eye(DIM)[1::2]),
    "arctan": lambda: NonlinearObservation(DIM, "arctan", obs_error_var=0.1),
}


def _drain(stream, start, stop):
    """Run the stream over cycles [start, stop); returns {cycle: events}."""
    return {cycle: stream.advance(cycle, _truth(cycle)) for cycle in range(start, stop)}


class TestStreamMechanics:
    @pytest.mark.parametrize("name", list(OPERATORS))
    def test_stream_matches_sequential_observe_loop(self, name):
        """One event per cycle == the historical per-cycle observe() loop, draw
        for draw (the property the golden driver equivalence rests on)."""
        op = OPERATORS[name]()
        stream = _stream(op)
        events = _drain(stream, 0, 4)
        rng = SeedSequenceFactory(0).rng("observations")
        for cycle in range(4):
            (event,) = events[cycle]
            assert event.observation.shape == (op.obs_dim,)
            np.testing.assert_array_equal(
                event.observation, op.observe(_truth(cycle), rng=rng)
            )
            assert event.cycle == cycle
            assert event.operator is stream.operator

    def test_noise_has_the_operators_error_variance(self):
        """Each component's noise variance is its own entry of diagonal R."""
        op = OPERATORS["nonuniform_r"]()
        stream = _stream(op)
        events = _drain(stream, 0, 4000)
        noise = np.array([events[c][0].observation - op.apply(_truth(c)) for c in events])
        np.testing.assert_allclose(noise.mean(axis=0), 0.0, atol=0.1)
        np.testing.assert_allclose(noise.var(axis=0), op.obs_error_var, rtol=0.1)


class TestStreamFaults:
    @pytest.mark.parametrize("value", ["nan", "inf", "gross"])
    def test_in_place_corrupts_the_measurement(self, value):
        plan = FaultPlan.from_spec(f"obs-corrupt@observations:1,mode=in-place,value={value}")
        faulted = _drain(_stream(fault_plan=plan), 0, 3)
        clean = _drain(_stream(), 0, 3)
        assert [len(faulted[c]) for c in range(3)] == [1, 1, 1]  # no duplicate
        (hit,), (genuine,) = faulted[1], clean[1]
        expected = {
            "nan": np.full(DIM, np.nan),
            "inf": np.full(DIM, np.inf),
            "gross": genuine.observation + 1.0e6,
        }[value]
        np.testing.assert_array_equal(hit.observation, expected)

    @pytest.mark.parametrize("mode", ["spurious", "in-place"])
    def test_corruption_draws_no_noise(self, mode):
        """A faulted stream's other measurements equal a clean stream's, draw
        for draw: corruption happens after the noise draw and uses no rng."""
        plan = FaultPlan.from_spec(f"obs-corrupt@observations:2,mode={mode}")
        faulted_stream = _stream(fault_plan=plan)
        faulted = _drain(faulted_stream, 0, 6)
        clean = _drain(_stream(), 0, 6)
        for cycle in range(6):
            if cycle == 2 and mode == "in-place":
                assert np.isnan(faulted[cycle][0].observation).all()
                continue
            np.testing.assert_array_equal(
                faulted[cycle][0].observation, clean[cycle][0].observation
            )
        assert [len(faulted[c]) for c in range(6)] == [
            2 if c == 2 and mode == "spurious" else 1 for c in range(6)
        ]
        assert faulted_stream.fault_log.count(action="obs-corrupt") == 1


class TestStreamState:
    def test_state_roundtrip_resumes_bit_identically(self):
        operator = SubsampledObservation.every_nth(DIM, 3)
        reference = _stream(operator)
        _drain(reference, 0, 4)
        ref_tail = _drain(reference, 4, 10)

        fresh = _stream(operator)
        _drain(fresh, 0, 4)
        state = fresh.state_dict()
        _drain(fresh, 4, 6)  # keeps drawing from the live stream
        resumed = _stream(operator)  # same construction, rewound stream
        resumed.load_state_dict(state)
        res_tail = _drain(resumed, 4, 10)

        assert sorted(ref_tail) == sorted(res_tail)
        for cycle in ref_tail:
            (a,), (b,) = ref_tail[cycle], res_tail[cycle]
            assert a.cycle == b.cycle == cycle
            assert a.observation.shape == (operator.obs_dim,)
            np.testing.assert_array_equal(a.observation, b.observation)

    def test_state_dict_is_a_snapshot(self):
        stream = _stream()
        _drain(stream, 0, 2)
        state = stream.state_dict()
        frozen = copy.deepcopy(state)
        tail = _drain(stream, 2, 4)  # keeps drawing from the live stream
        assert state == frozen  # snapshot unaffected
        for _ in range(2):  # and it rewinds to the same draws every time
            stream.load_state_dict(state)
            again = _drain(stream, 2, 4)
            for cycle in tail:
                np.testing.assert_array_equal(
                    again[cycle][0].observation, tail[cycle][0].observation
                )
