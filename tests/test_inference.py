"""Tests for the batched cross-worker inference service and wave MCTS."""

import numpy as np
import pytest

from repro.backend import GraphEngine
from repro.hw.gpu import GPUDevice
from repro.minigo import (
    MCTS,
    InferenceService,
    PolicyValueNet,
    SelfPlayPool,
)
from repro.minigo.selfplay import OP_EXPAND_LEAF
from repro.profiler.events import Event
from repro.sim.go import GoPosition
from repro.system import System


BOARD = 5
NUM_MOVES = BOARD * BOARD + 1


def make_network(seed=7):
    return PolicyValueNet(BOARD, (16, 16), rng=np.random.default_rng(seed))


def make_client(service, device, *, worker, seed=0, stream=0):
    system = System.create(seed=seed, device=device, worker=worker)
    system.cuda.default_stream = stream
    engine = GraphEngine(system, flavor="tensorflow")
    return service.connect(system, engine, worker=worker)


def uniform_evaluator(features):
    batch = features.shape[0]
    priors = np.full((batch, NUM_MOVES), 1.0 / NUM_MOVES, dtype=np.float32)
    return priors, np.zeros(batch, dtype=np.float32)


# ----------------------------------------------------------------- service
def test_service_coalesces_cross_worker_requests():
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=64)
    client_a = make_client(service, device, worker="a", stream=0)
    client_b = make_client(service, device, worker="b", seed=1, stream=1)

    features_a = np.random.default_rng(0).normal(size=(3, 75)).astype(np.float32)
    features_b = np.random.default_rng(1).normal(size=(2, 75)).astype(np.float32)
    ticket_a = client_a.submit(features_a)
    ticket_b = client_b.submit(features_b)
    assert service.pending_rows == 5
    calls = service.flush()

    assert calls == 1, "both workers' rows must ride one batched engine call"
    stats = service.stats
    assert stats.engine_calls == 1
    assert stats.rows == 5
    assert stats.cross_worker_batches == 1
    assert stats.rows_by_worker == {"a": 3, "b": 2}
    assert stats.calls_saved == 4

    # Row results match evaluating each worker's block alone (up to BLAS
    # rounding, which may differ by an ulp across matmul batch shapes;
    # identical shapes — the leaf_batch=1 case — are bitwise identical).
    priors_a, values_a = ticket_a.result()
    priors_b, values_b = ticket_b.result()
    solo = InferenceService(make_network(), max_batch=64)
    solo_client = make_client(solo, GPUDevice(), worker="solo")
    solo_priors, solo_values = solo_client.evaluate(features_a)
    np.testing.assert_allclose(priors_a, solo_priors, atol=1e-6)
    np.testing.assert_allclose(values_a, solo_values, atol=1e-6)
    assert priors_b.shape == (2, NUM_MOVES) and values_b.shape == (2,)

    # Both requesters paid for the batch on their own virtual clocks.
    assert client_a.system.clock.now_us > 0
    assert client_b.system.clock.now_us > 0


def test_service_splits_oversized_requests_across_batches():
    service = InferenceService(make_network(), max_batch=4)
    client = make_client(service, GPUDevice(), worker="big")
    features = np.random.default_rng(2).normal(size=(10, 75)).astype(np.float32)
    metadata = {}
    priors, values = client.evaluate(features, metadata=metadata)

    assert priors.shape == (10, NUM_MOVES) and values.shape == (10,)
    assert service.stats.engine_calls == 3          # 4 + 4 + 2 rows
    assert service.stats.batch_sizes.sample == [4, 4, 2]
    assert service.stats.batch_sizes.count == 3
    assert metadata["engine_calls"] == 3
    assert metadata["batch_rows"] == 10
    assert metadata["inference_service"] == service.name
    assert metadata["batch_time_us"] > 0


def test_service_rejects_bad_input():
    service = InferenceService(make_network())
    client = make_client(service, GPUDevice(), worker="w")
    with pytest.raises(ValueError):
        client.submit(np.zeros((0, 75), dtype=np.float32))
    with pytest.raises(ValueError):
        InferenceService(make_network(), max_batch=0)
    with pytest.raises(ValueError):
        service.serve_queued(policy="bogus")
    with pytest.raises(ValueError):
        service.serve_queued(policy="timeout")   # timeout policy needs timeout_us


def test_batch_size_stats_memory_is_bounded():
    from repro.minigo import BatchSizeStats

    stats = BatchSizeStats(reservoir_size=32)
    for i in range(10_000):
        stats.append(1 + (i % 100))
    assert stats.count == 10_000
    assert sum(stats.counts) == 10_000
    assert len(stats.sample) == 32            # reservoir never grows past capacity
    assert stats.max_rows == 100
    assert 0 < stats.mean <= 100
    # Histogram buckets cover every observation and stay a fixed size.
    assert sum(count for _, _, count in stats.histogram()) == 10_000
    assert len(stats.counts) == len(BatchSizeStats.BUCKET_BOUNDS) + 1
    # Deterministic: same appends, same reservoir.
    other = BatchSizeStats(reservoir_size=32)
    for i in range(10_000):
        other.append(1 + (i % 100))
    assert other.sample == stats.sample


def test_rider_wait_time_is_charged_inside_expand_leaf():
    """Non-host batch riders must not advance their clock as untracked time."""
    from repro.profiler import Profiler, ProfilerConfig

    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=64)
    systems, clients = [], []
    for i, worker in enumerate(("host", "rider")):
        system = System.create(seed=i, device=device, worker=worker)
        system.cuda.default_stream = i
        engine = GraphEngine(system, flavor="tensorflow")
        profiler = Profiler(system, ProfilerConfig.full(), worker=worker)
        profiler.attach(engine=engine)
        clients.append(service.connect(system, engine, worker=worker, profiler=profiler))
        systems.append((system, profiler))

    rng = np.random.default_rng(0)
    clients[0].submit(rng.normal(size=(2, 75)).astype(np.float32))
    clients[1].submit(rng.normal(size=(1, 75)).astype(np.float32))
    service.flush()

    rider_system, rider_profiler = systems[1]
    trace = rider_profiler.finalize()
    rider_ops = [op for op in trace.operations if op.name == OP_EXPAND_LEAF]
    assert rider_ops, "the rider's batch wait must be recorded as an expand_leaf operation"
    op = rider_ops[0]
    assert op.metadata is not None and op.metadata["batch_rider"] is True
    assert op.metadata["batch_clients"] == 2
    # The operation covers (at least) the whole batch time charged to the rider.
    assert op.end_us - op.start_us >= op.metadata["batch_time_us"]
    assert rider_system.clock.now_us >= op.end_us


def test_serve_queued_charges_wait_plus_batch_and_times_out_partial_batches():
    """Queueing model: arrival-order packing, deadlines, wait attribution."""
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=8)
    early = make_client(service, device, worker="early", stream=0)
    late = make_client(service, device, worker="late", seed=1, stream=1)

    rng = np.random.default_rng(3)
    early.submit(rng.normal(size=(2, 75)).astype(np.float32))          # arrives at t=0
    late.system.clock.advance(50_000.0)
    late.submit(rng.normal(size=(2, 75)).astype(np.float32))           # arrives at t=50ms
    calls = service.serve_queued(policy="timeout", timeout_us=1_000.0)

    # The early request's batch departed at its deadline (t=1000), long
    # before the late request arrived; two separate engine calls resulted.
    assert calls == 2
    stats = service.stats
    assert stats.engine_calls == 2
    assert stats.cross_worker_batches == 0
    assert stats.queued_waits == 2
    # The early worker waited out the full timeout before its batch started.
    assert stats.max_queue_delay_us >= 1_000.0
    assert early.system.clock.now_us >= 1_000.0
    # The late worker's batch could not start before the replica freed up
    # *and* its own deadline passed.
    assert late.system.clock.now_us >= 51_000.0
    assert stats.mean_occupancy == pytest.approx(2 / 8)


def test_cutoff_serve_holds_back_partial_batches_still_within_their_deadline():
    """A deadline-triggered serve must not depart a later batch early.

    With a cutoff (the scheduler's timeout trigger), full batches and the
    due partial batch depart, but an overflow partial batch whose own
    deadline lies beyond the cutoff stays queued so it can still gather
    riders."""
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=4)
    clients = []
    for i in range(3):
        client = make_client(service, device, worker=f"w{i}", seed=i, stream=i)
        client.system.clock.advance(100.0 * i)   # arrivals at t=0, 100, 200
        clients.append(client)

    rng = np.random.default_rng(5)
    tickets = [c.submit(rng.normal(size=(2, 75)).astype(np.float32)) for c in clients]
    calls = service.serve_queued(policy="timeout", timeout_us=500.0,
                                 arrival_cutoff_us=500.0)

    # 6 rows pack as one full 4-row batch (due) plus a 2-row overflow whose
    # deadline (200 + 500) is past the cutoff: only the full batch departs.
    assert calls == 1
    assert tickets[0].done and tickets[1].done
    assert not tickets[2].done
    assert service.pending_tickets == 1
    # A later serve without a cutoff drains the held-back ticket.
    assert service.serve_queued(policy="timeout", timeout_us=500.0) == 1
    assert tickets[2].done


def test_serve_queued_coalesces_across_workers_and_serializes_the_replica():
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=4)
    a = make_client(service, device, worker="a", stream=0)
    b = make_client(service, device, worker="b", seed=1, stream=1)

    rng = np.random.default_rng(4)
    ticket_a = a.submit(rng.normal(size=(3, 75)).astype(np.float32))
    b.system.clock.advance(100.0)
    ticket_b = b.submit(rng.normal(size=(3, 75)).astype(np.float32))
    calls = service.serve_queued(policy="max-batch")

    # 6 rows into chunks of 4: the first batch is cross-worker.
    assert calls == 2
    assert service.stats.cross_worker_batches == 1
    assert ticket_a.done and ticket_b.done
    assert ticket_a.priors.shape == (3, NUM_MOVES)
    assert ticket_b.priors.shape == (3, NUM_MOVES)
    # Both workers end at/after the completion of the last batch they rode.
    assert b.system.clock.now_us >= a.system.clock.now_us - 1e-9
    assert service.stats.queue_delay_us > 0.0


# -------------------------------------------------------------- wave MCTS
def test_wave_search_visit_counts_match_simulation_budget():
    position = GoPosition.initial(size=BOARD)
    for leaf_batch in (1, 4, 16):
        mcts = MCTS(uniform_evaluator, num_simulations=20, leaf_batch=leaf_batch,
                    rng=np.random.default_rng(0))
        root = mcts.search(position)
        assert root.visit_count == 20
        assert sum(child.visit_count for child in root.children.values()) == 20
        # All virtual losses must have been reverted.
        def assert_no_virtual_loss(node):
            assert node.virtual_loss == 0
            for child in node.children.values():
                assert_no_virtual_loss(child)
        assert_no_virtual_loss(root)


def test_wave_search_batches_evaluator_calls():
    calls = []

    def counting_evaluator(features):
        calls.append(features.shape[0])
        return uniform_evaluator(features)

    mcts = MCTS(counting_evaluator, num_simulations=16, leaf_batch=16,
                rng=np.random.default_rng(0))
    mcts.search(GoPosition.initial(size=BOARD))
    assert sum(calls) >= 16             # root + every evaluated leaf
    assert max(calls) > 1               # at least one genuinely batched call
    assert len(calls) < 17              # strictly fewer calls than per-leaf

    mcts_rejects = pytest.raises(ValueError)
    with mcts_rejects:
        MCTS(uniform_evaluator, num_simulations=4, leaf_batch=0)


# -------------------------------------------------- pool-level determinism
POOL_KWARGS = dict(board_size=BOARD, num_simulations=6, games_per_worker=1,
                   max_moves=8, hidden=(16, 16), seed=3)


def _game_records(pool):
    pool.run()
    return [
        [(ex.features.tobytes(), ex.policy_target.tobytes(), ex.value_target)
         for ex in run.result.examples]
        for run in pool.runs
    ]


def test_leaf_batch_one_reproduces_legacy_game_records():
    legacy = _game_records(SelfPlayPool(3, profile=True, **POOL_KWARGS))
    batched = SelfPlayPool(3, profile=True, batched_inference=True, leaf_batch=1,
                           **POOL_KWARGS)
    assert _game_records(batched) == legacy
    # The batched path really ran through the service, one row per call.
    stats = batched.inference_service.stats
    assert stats.engine_calls == stats.rows > 0


def test_larger_leaf_batch_reduces_engine_calls():
    batched = SelfPlayPool(2, profile=False, batched_inference=True, leaf_batch=6,
                           **POOL_KWARGS)
    records = _game_records(batched)
    stats = batched.inference_service.stats
    assert stats.engine_calls < stats.rows
    assert stats.max_batch_rows > 1
    assert all(records), "every worker still produces games"


def test_batched_pool_records_expand_leaf_attribution_metadata(tmp_path):
    pool = SelfPlayPool(2, profile=True, batched_inference=True, leaf_batch=4,
                        **POOL_KWARGS)
    pool.run()
    tagged = []
    for run in pool.runs:
        for op in run.trace.operations:
            if op.name == OP_EXPAND_LEAF:
                assert op.metadata is not None
                assert op.metadata["inference_service"] == pool.inference_service.name
                assert op.metadata["batch_rows"] >= op.metadata["rows"] >= 1
                assert op.metadata["leaf_batch"] == 4
                tagged.append(op)
    assert tagged, "expand_leaf events must carry batch attribution metadata"
    # Metadata survives the serialisation round-trip, and its absence keeps
    # the on-disk record format unchanged.
    event = tagged[0]
    assert Event.from_dict(event.to_dict()) == event
    bare = Event("Operation", "expand_leaf", 0.0, 1.0)
    assert "metadata" not in bare.to_dict()


def test_idle_service_statistics_never_divide_by_zero():
    """Empty-service guard: every derived stat is defined before any batch."""
    service = InferenceService(make_network(), max_batch=16)
    stats = service.stats
    assert stats.engine_calls == 0
    assert stats.mean_batch_rows == 0.0
    assert stats.mean_occupancy == 0.0
    assert stats.mean_queue_delay_us == 0.0
    assert stats.cross_worker_share == 0.0
    assert service.flush() == 0
    assert service.serve_queued(policy="max-batch") == 0
    assert service.serve_queued(policy="timeout", timeout_us=5.0) == 0
    # Still all zeros after serving an empty queue.
    assert stats.mean_occupancy == 0.0 and stats.cross_worker_share == 0.0


# --------------------------------------------------- queue-delay percentiles
def test_queue_delay_percentiles_empty_service_returns_none():
    service = InferenceService(make_network(), max_batch=8)
    assert service.stats.queue_delay_percentiles() is None
    assert service.stats.queue_delay_percentiles((50.0,)) is None


def test_queue_delay_percentiles_match_observed_delays():
    """Below reservoir capacity the sample is exact, so percentiles are too."""
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=8)
    clients = []
    for i in range(4):
        client = make_client(service, device, worker=f"w{i}", seed=i, stream=i)
        client.system.clock.advance(100.0 * i)   # arrivals at t=0,100,200,300
        clients.append(client)
    rng = np.random.default_rng(9)
    for client in clients:
        client.submit(rng.normal(size=(2, 75)).astype(np.float32))
    service.serve_queued(policy="max-batch")

    sample = service.stats.queue_delay_samples.sample
    assert len(sample) == 4
    stats = service.stats.queue_delay_percentiles()
    assert set(stats) == {50.0, 95.0, 99.0}
    expected = {p: float(np.percentile(sorted(sample), p)) for p in (50.0, 95.0, 99.0)}
    for p, value in expected.items():
        assert stats[p] == pytest.approx(value)
    assert stats[50.0] <= stats[95.0] <= stats[99.0]
    # The max delay in the sample is the stats max (nothing was evicted).
    assert max(sample) == pytest.approx(service.stats.max_queue_delay_us)


def test_queue_delay_reservoir_is_bounded_and_deterministic():
    from repro.rollout.inference import ReservoirSample
    a = ReservoirSample(capacity=32, seed=3)
    b = ReservoirSample(capacity=32, seed=3)
    for value in range(1000):
        a.append(float(value))
        b.append(float(value))
    assert len(a.sample) == 32
    assert a.count == 1000
    assert a.sample == b.sample, "same seed, same stream, same reservoir"


def test_completion_us_metadata_records_batch_end():
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=8)
    client = make_client(service, device, worker="w0")
    meta = {}
    client.submit(np.random.default_rng(0).normal(size=(2, 75)).astype(np.float32),
                  metadata=meta)
    service.serve_queued(policy="max-batch")
    assert meta["completion_us"] == pytest.approx(client.system.clock.now_us)
    assert meta["completion_us"] >= meta["queue_delay_us"]


# ----------------------------------------------------------------- shedding
def test_drop_pending_partitions_and_keeps_departed_batches():
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=4)
    client = make_client(service, device, worker="w0")
    rng = np.random.default_rng(11)
    tickets = []
    for i in range(3):
        client.system.clock.advance(10.0)
        tickets.append(client.submit(rng.normal(size=(1, 75)).astype(np.float32)))

    victims = {id(tickets[1])}
    dropped = service.drop_pending(lambda t: id(t) in victims)
    assert dropped == [tickets[1]]
    assert service.pending_tickets == 2
    assert service.pending_rows == 2
    # Dropped work never reaches the engine; the rest still serves.
    calls = service.serve_queued(policy="max-batch")
    assert calls == 1
    assert tickets[0].done and tickets[2].done
    assert not tickets[1].done
    assert service.stats.rows == 2
    # A second drop finds nothing: the queue is empty now.
    assert service.drop_pending(lambda t: True) == []


def test_drop_pending_calls_predicate_once_per_ticket():
    """Stateful predicates (drop the first N) must see each ticket once."""
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=8)
    client = make_client(service, device, worker="w0")
    rng = np.random.default_rng(12)
    for _ in range(5):
        client.submit(rng.normal(size=(1, 75)).astype(np.float32))
    seen = []
    service.drop_pending(lambda t: seen.append(id(t)) is None and len(seen) <= 2)
    assert len(seen) == 5, "one predicate call per pending ticket"
    assert service.pending_tickets == 3
