"""The one cut-and-fold contract the pool and the gateway share.

:func:`~repro.serve.schema.shard_bounds` cuts a batch into contiguous
weighted shards; :meth:`~repro.serve.schema.InferenceResponse.merge` folds
shard responses back.  Folding any contiguous cut of a request must give the
whole-batch :class:`~repro.serve.ChipSession` answer: predictions, spike
counts and integer counters exactly, energy to 1e-9 relative.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest, InferenceResponse
from repro.serve.schema import shard_bounds
from repro.snn import Dense, Network, convert_to_snn

ENERGY_RTOL = 1e-9

weights_st = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False), min_size=1, max_size=8
)


class TestShardBounds:
    @given(st.integers(min_value=0, max_value=500), weights_st)
    @settings(max_examples=200, deadline=None)
    def test_shards_cover_the_batch_in_order(self, batch, weights):
        bounds = shard_bounds(batch, weights)
        assert len(bounds) == len(weights)
        assert bounds[0][0] == 0 and bounds[-1][1] == batch
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        assert all(start <= stop for start, stop in bounds)

    @given(st.integers(min_value=0, max_value=500), weights_st)
    @settings(max_examples=200, deadline=None)
    def test_a_shard_is_within_one_sample_of_its_share(self, batch, weights):
        total = sum(weights)
        for (start, stop), weight in zip(shard_bounds(batch, weights), weights):
            if stop > start:
                assert abs((stop - start) - batch * weight / total) <= 1 + 1e-9

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_equal_weights_give_sizes_within_one(self, batch, shards):
        sizes = [stop - start for start, stop in shard_bounds(batch, [1.0] * shards)]
        assert max(sizes) - min(sizes) <= 1


@pytest.fixture(scope="module")
def sessions():
    rng = np.random.default_rng(5)
    network = Network(
        (20,),
        [
            Dense(20, 12, use_bias=False, rng=rng, name="fc0"),
            Dense(12, 5, activation=None, use_bias=False, rng=rng, name="fc1"),
        ],
        name="shard-contract",
    )
    snn = convert_to_snn(network, rng.random((8, 20)))
    config = ArchitectureConfig(crossbar_rows=8, crossbar_columns=8)
    inputs = rng.random((9, 20))
    labels = rng.integers(0, 5, size=9)
    built = {
        backend: ChipSession(
            snn, config=config, timesteps=4, encoder="poisson", seed=3, backend=backend
        )
        for backend in ("vectorized", "structural")
    }
    return built, inputs, labels


class TestMerge:
    @pytest.mark.parametrize("backend", ["vectorized", "structural"])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_folded_cuts_equal_the_whole_batch(self, sessions, backend, data):
        built, inputs, labels = sessions
        session = built[backend]
        batch = data.draw(st.integers(min_value=1, max_value=len(inputs)))
        cuts = data.draw(
            st.lists(st.integers(min_value=1, max_value=batch - 1), unique=True)
            if batch > 1
            else st.just([])
        )
        with_labels = data.draw(st.booleans())
        request = InferenceRequest(
            inputs=inputs[:batch],
            labels=labels[:batch] if with_labels else None,
            sample_offset=data.draw(st.integers(min_value=0, max_value=50)),
        )
        edges = [0, *sorted(cuts), batch]
        parts = [
            session.infer(request.shard(start, stop))
            for start, stop in zip(edges, edges[1:])
        ]
        merged = InferenceResponse.merge(request, parts)
        whole = session.infer(request)
        np.testing.assert_array_equal(whole.predictions, merged.predictions)
        np.testing.assert_array_equal(whole.spike_counts, merged.spike_counts)
        assert merged.accuracy == whole.accuracy
        assert merged.batch_size == batch and merged.jobs == len(parts)
        assert merged.backend == backend and merged.timesteps == whole.timesteps
        for name, value in whole.counters.as_dict().items():
            got = merged.counters.as_dict()[name]
            if name == "crossbar_device_energy_j":
                assert got == pytest.approx(value, rel=ENERGY_RTOL)
            else:
                assert got == value, f"counter {name}: {got} != {value}"
        assert set(merged.energy.components) == set(whole.energy.components)
        for name, value in whole.energy.components.items():
            assert merged.energy.components[name] == pytest.approx(
                value, rel=ENERGY_RTOL, abs=1e-30
            )

    def test_disagreeing_backends_merge_as_mixed(self, sessions):
        built, inputs, _ = sessions
        request = InferenceRequest(inputs=inputs[:4])
        parts = [
            built["vectorized"].infer(request.shard(0, 2)),
            built["structural"].infer(request.shard(2, 4)),
        ]
        assert InferenceResponse.merge(request, parts).backend == "mixed"

    def test_parts_must_cover_the_request(self, sessions):
        built, inputs, _ = sessions
        request = InferenceRequest(inputs=inputs[:4])
        parts = [built["vectorized"].infer(request.shard(0, 2))] * 3
        with pytest.raises(ValueError, match="shards hold 6 samples"):
            InferenceResponse.merge(request, parts)
