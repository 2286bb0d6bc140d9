"""The shared sweep harness: one key-based lookup and one override check for all seven sweeps."""

from types import SimpleNamespace

import pytest

from repro.experiments import (
    run_batch_sweep,
    run_cache_sweep,
    run_fault_sweep,
    run_replica_sweep,
    run_sched_sweep,
    run_serve_sweep,
    run_zoo_sweep,
)
from repro.experiments.batchsweep import BATCH_SWEEP
from repro.experiments.cachesweep import CACHE_SWEEP
from repro.experiments.faultsweep import FAULT_SWEEP
from repro.experiments.replicasweep import REPLICA_SWEEP
from repro.experiments.schedsweep import SCHED_SWEEP
from repro.experiments.servesweep import SERVE_SWEEP
from repro.experiments.zoosweep import ZOO_SWEEP

#: (sweep, key of cell A, key of cell B, a key no cell has — B with its last part changed)
SWEEP_KEYS = [
    (BATCH_SWEEP, (1,), (4,), (16,)),
    (SCHED_SWEEP, ("sequential", 4), ("event", 4), ("event", 8)),
    (REPLICA_SWEEP, (8, 1, "round-robin"), (8, 2, "sticky"), (8, 2, "least-loaded")),
    (SERVE_SWEEP, (0.5, "none", 1), (2.0, "block", 1), (2.0, "block", 2)),
    (CACHE_SWEEP, (4, 1, 2), (8, 1, 2), (8, 1, 4)),
    (FAULT_SWEEP, (0.0, "degrade", 4), (150.0, "full", 4), (150.0, "full", 2)),
    (ZOO_SWEEP, ("Pong", "DQN", 4, 1), ("Hopper", "PPO", 4, 1), ("Hopper", "PPO", 4, 2)),
]


@pytest.mark.parametrize("sweep, key_a, key_b, missing", SWEEP_KEYS,
                         ids=[sweep.name for sweep, *_ in SWEEP_KEYS])
def test_point_lookup_hits_and_misses(sweep, key_a, key_b, missing):
    cell_a = SimpleNamespace(**dict(zip(sweep.key, key_a)))
    cell_b = SimpleNamespace(**dict(zip(sweep.key, key_b)))
    result = sweep.result([cell_a, cell_b])
    assert result.point(*key_a) is cell_a
    assert result.point(*key_b) is cell_b
    with pytest.raises(KeyError) as miss:
        result.point(*missing)
    message = miss.value.args[0]
    assert message.startswith(f"{sweep.name}: no point for ")
    for name, value in zip(sweep.key, missing):
        assert f"{name}={value!r}" in message


@pytest.mark.parametrize("run", [run_batch_sweep, run_sched_sweep, run_replica_sweep,
                                 run_serve_sweep, run_cache_sweep, run_fault_sweep,
                                 run_zoo_sweep])
def test_unknown_override_raises_type_error(run):
    with pytest.raises(TypeError, match="unexpected options"):
        run(not_an_option=1)
