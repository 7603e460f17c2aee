"""Property-based tests (hypothesis) on the traffic layer.

Invariants the ISSUEs pin down:

* a seeded arrival process plus a batching policy is bit-deterministic
  end to end (arrivals, batch composition, padded shapes),
* columnar formation and the shape-memoized serve are
  **bit-identical** to the scalar loops in ``tests/reference.py``
  across policies × arrival processes × seeds × drift schedules, and
* streaming identification over a traffic feed equals batch
  identification whenever the request mix is stationary.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api.registry import (
    BATCHING,
    DATASETS,
    build_batching,
    default_dataset,
)
from repro.core.seqpoint import SeqPointSelector
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.models.gnmt import build_gnmt
from repro.stream import StreamingIdentifier, StreamingSlStatistics
from repro.traffic import (
    ARRIVAL_KINDS,
    TrafficFeed,
    TrafficPhase,
    TrafficSimulator,
    build_arrival_process,
    form_batches,
    sample_requests,
)
from repro.traffic.batcher import FormedBatch, FormedBatchList
from repro.traffic.simulator import ServedTraffic, _fifo_prefix
from repro.traffic.workload import RequestSet
from repro.train.frame import NO_TGT
from repro.train.inference import DEFAULT_SERVING_OVERHEAD_S
from repro.train.iteration import IterationExecutor
from tests.conftest import make_trace
from tests.reference import (
    ReferenceExecutor,
    assert_batches_identical,
    assert_served_identical,
    form_batches_reference,
    serve_reference,
)

# ---- strategy helpers -------------------------------------------------

lengths_lists = st.lists(
    st.integers(min_value=1, max_value=300), min_size=1, max_size=60
)


@st.composite
def traffic_case(draw):
    lengths = draw(lengths_lists)
    kind = draw(st.sampled_from(ARRIVAL_KINDS))
    rate = draw(st.floats(min_value=1.0, max_value=200.0, allow_nan=False))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    policy_name = draw(st.sampled_from(BATCHING.available()))
    batch_size = draw(st.integers(min_value=1, max_value=16))
    max_wait_s = draw(
        st.floats(min_value=0.01, max_value=2.0, allow_nan=False)
    )
    return lengths, kind, rate, seed, policy_name, batch_size, max_wait_s


def _form(case):
    lengths, kind, rate, seed, policy_name, batch_size, max_wait_s = case
    seq_len = np.asarray(lengths, dtype=np.int64)
    tgt_len = np.full(seq_len.size, NO_TGT, dtype=np.int64)
    arrival_s = build_arrival_process(kind, rate=rate).times(
        seq_len.size, seed
    )
    policy = BATCHING.create(policy_name, batch_size)
    return arrival_s, form_batches(
        arrival_s, seq_len, tgt_len, policy, max_wait_s
    )


@given(traffic_case())
@settings(max_examples=40, deadline=None)
def test_seeded_traffic_is_bit_deterministic(case):
    arrival_a, batches_a = _form(case)
    arrival_b, batches_b = _form(case)
    assert np.array_equal(arrival_a, arrival_b)
    assert len(batches_a) == len(batches_b)
    for one, two in zip(batches_a, batches_b):
        assert one.form_time_s == two.form_time_s
        assert np.array_equal(one.members, two.members)
        assert (one.seq_len, one.tgt_len) == (two.seq_len, two.tgt_len)


@given(traffic_case())
@settings(max_examples=40, deadline=None)
def test_batches_partition_the_request_stream(case):
    lengths, _, _, _, _, batch_size, _ = case
    _, batches = _form(case)
    members = np.concatenate([batch.members for batch in batches])
    assert sorted(members.tolist()) == list(range(len(lengths)))
    assert all(len(batch) <= batch_size for batch in batches)
    assert all(
        batch.seq_len >= 1 and batch.tgt_len == NO_TGT for batch in batches
    )


@given(traffic_case(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_vectorized_formation_matches_scalar(case, with_tgt):
    lengths, kind, rate, seed, policy_name, batch_size, max_wait_s = case
    seq_len = np.asarray(lengths, dtype=np.int64)
    tgt_len = (
        seq_len // 2 + 1
        if with_tgt
        else np.full(seq_len.size, NO_TGT, dtype=np.int64)
    )
    arrival_s = build_arrival_process(kind, rate=rate).times(
        seq_len.size, seed
    )
    policy = BATCHING.create(policy_name, batch_size)
    formed = form_batches(arrival_s, seq_len, tgt_len, policy, max_wait_s)
    assert_batches_identical(
        formed,
        form_batches_reference(arrival_s, seq_len, tgt_len, policy, max_wait_s),
    )
    # The per-batch columns the serve reads agree with the batches.
    columns = formed.columns
    assert columns.form_s.tolist() == [b.form_time_s for b in formed]
    assert columns.sizes.tolist() == [len(b) for b in formed]
    assert columns.seq_len.tolist() == [b.seq_len for b in formed]
    assert columns.tgt_len.tolist() == [b.tgt_len for b in formed]
    assert np.array_equal(
        columns.members,
        np.concatenate([b.members for b in formed]),
    )
    assert columns.starts.tolist() == (
        np.cumsum(columns.sizes) - columns.sizes
    ).tolist()


# ---- the vectorized device FIFO ---------------------------------------


@st.composite
def fifo_case(draw):
    """Formation instants (non-decreasing) plus positive device times."""
    times = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    # Gaps of zero force shared-flush pileups; large gaps force idle
    # runs; in-between gaps exercise chain↔idle transitions.
    gaps = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            ),
            min_size=len(times),
            max_size=len(times),
        )
    )
    return np.cumsum(gaps), np.asarray(times, dtype=np.float64)


@given(fifo_case())
@settings(max_examples=60, deadline=None)
def test_fifo_prefix_bit_identical_to_scalar_recurrence(case):
    form_s, time_s = case
    start_s, free_s = _fifo_prefix(form_s, time_s)
    device_free = 0.0
    for i in range(form_s.size):
        start = max(float(form_s[i]), device_free)
        device_free = start + float(time_s[i])
        assert start_s[i] == start  # bit-exact, not approx
        assert free_s[i] == device_free


# ---- memoized serve == per-batch serve --------------------------------


_SCENARIO: dict = {}


def _serving_scenario():
    """One shared gnmt corpus + device, and one reference executor;
    measurements memoize across examples, so each hypothesis case only
    pays for novel shapes."""
    if not _SCENARIO:
        dataset_name = default_dataset("gnmt")
        corpus = DATASETS.create(dataset_name, scale=0.02)
        train, _ = corpus.split(0.02, seed=7)
        model = build_gnmt()
        device = GpuDevice(paper_config(1))
        _SCENARIO.update(
            model=model,
            dataset_name=dataset_name,
            train=train,
            device=device,
            reference=ReferenceExecutor(
                IterationExecutor(model, device, DEFAULT_SERVING_OVERHEAD_S)
            ),
        )
    return _SCENARIO


@st.composite
def serve_case(draw):
    policy_name = draw(st.sampled_from(BATCHING.available()))
    kind = draw(st.sampled_from(ARRIVAL_KINDS))
    seed = draw(st.integers(min_value=0, max_value=5))
    drifting = draw(st.booleans())
    return policy_name, kind, seed, drifting


@given(serve_case())
@settings(max_examples=10, deadline=None)
def test_memoized_serve_bit_identical_to_scalar(case):
    policy_name, kind, seed, drifting = case
    scenario = _serving_scenario()
    policy = build_batching(
        policy_name, 8, dataset=scenario["dataset_name"]
    )
    phases = (
        (
            TrafficPhase(0.5, quantile_hi=0.6),
            TrafficPhase(0.5, quantile_lo=0.4),
        )
        if drifting
        else (TrafficPhase(1.0),)
    )
    requests = sample_requests(scenario["train"], phases, 48, seed)
    arrival_s = build_arrival_process(kind, rate=96.0).times(
        len(requests), seed
    )
    batches = form_batches(
        arrival_s, requests.seq_len, requests.tgt_len, policy, 0.05
    )

    simulator = TrafficSimulator(
        scenario["model"], scenario["dataset_name"], policy, scenario["device"]
    )
    assert_served_identical(
        simulator.serve(requests, arrival_s, batches),
        serve_reference(
            simulator, requests, arrival_s, batches, scenario["reference"]
        ),
    )


def test_serve_without_batches_is_empty():
    """No requests form no batches, and serving them gives the empty
    result the per-batch walk gives: no rows, zero makespan."""
    scenario = _serving_scenario()
    policy = build_batching("pooled", 8, dataset=scenario["dataset_name"])
    empty = np.empty(0, dtype=np.int64)
    requests = RequestSet(seq_len=empty, tgt_len=empty, phase=empty)
    arrival_s = np.empty(0, dtype=np.float64)
    batches = form_batches(arrival_s, empty, empty, policy, 0.05)
    assert isinstance(batches, FormedBatchList) and len(batches) == 0
    simulator = TrafficSimulator(
        scenario["model"], scenario["dataset_name"], policy, scenario["device"]
    )
    served = simulator.serve(requests, arrival_s, batches)
    assert len(served.frame) == 0 and len(served) == 0
    assert served.makespan_s == 0.0
    assert_served_identical(
        served, serve_reference(simulator, requests, arrival_s, batches)
    )


# ---- streaming over traffic == batch identification -------------------


@st.composite
def stationary_served(draw):
    """A synthetic served run whose per-SL batch times never drift."""
    seq_lens = draw(
        st.lists(
            st.integers(min_value=1, max_value=120), min_size=2, max_size=40
        )
    )
    time_of = {
        sl: 1e-3 * (1.0 + (sl % 7)) + sl * 1e-4 for sl in set(seq_lens)
    }
    frame = make_trace([(sl, time_of[sl]) for sl in seq_lens]).frame()
    # Formation instants: non-decreasing with occasional shared flushes.
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 0.1]),
            min_size=len(seq_lens),
            max_size=len(seq_lens),
        )
    )
    form_times = np.cumsum(gaps)
    batches = tuple(
        FormedBatch(
            form_time_s=float(form_times[i]),
            members=np.asarray([i], dtype=np.int64),
            seq_len=int(frame.seq_len[i]),
            tgt_len=int(frame.tgt_len[i]),
        )
        for i in range(len(seq_lens))
    )
    zeros = np.zeros(len(seq_lens), dtype=np.float64)
    return ServedTraffic(
        frame=frame,
        batches=batches,
        arrival_s=zeros,
        queue_wait_s=zeros,
        latency_s=zeros,
        makespan_s=float(form_times[-1]),
    )


@given(stationary_served())
@settings(max_examples=40, deadline=None)
def test_streaming_on_stationary_traffic_equals_batch(served):
    # patience too large to ever converge: the identifier consumes the
    # whole feed, so its final selection is over exactly the data the
    # batch selector sees.
    run = StreamingIdentifier(
        SeqPointSelector(), cadence=1, patience=10**9
    ).run(
        TrafficFeed(served),
        stats=StreamingSlStatistics.for_frame(served.frame),
    )
    assert run.iterations_consumed == len(served.frame)
    batch = SeqPointSelector().select(served.frame.to_trace())
    streamed = [
        (point.seq_len, point.tgt_len, point.weight, point.record.time_s)
        for point in run.selection.points
    ]
    batched = [
        (point.seq_len, point.tgt_len, point.weight, point.record.time_s)
        for point in batch.selection.points
    ]
    assert streamed == batched
    assert run.identification_error_pct == batch.identification_error_pct
