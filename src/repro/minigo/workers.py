"""Parallel self-play worker pool sharing a single GPU.

The paper's Minigo workload runs 16 self-play worker processes in parallel,
all submitting inference minibatches to one GPU (Section 4.3 / Appendix B.2).
Each worker here gets its own virtual clock, cost model, CUDA runtime and
CUPTI instance — its own process, in effect — while kernels land on a shared
:class:`~repro.hw.gpu.GPUDevice`, each worker on its own stream (its own CUDA
context).  Worker clocks share epoch zero, so the merged device timeline is
what an ``nvidia-smi`` sampler would observe during parallel data collection.

Two schedulers simulate the parallel collection phase:

* ``sequential`` (legacy): each worker runs to completion on its own
  virtual timeline.  A shared-service flush then almost always serves a
  single worker's wave, so cross-worker batching never materializes.
* ``event``: a :class:`PoolScheduler` interleaves all workers' stepwise
  :class:`~repro.minigo.selfplay.GameDriver`s in virtual-time order and
  serves the shared :class:`~repro.rollout.inference.InferenceService` once
  every runnable worker is blocked at an inference boundary — so one engine
  call batches leaves from many workers at the same virtual instant, the way
  a real inference server batches across client processes.  With several
  model replicas (``num_replicas > 1``) the scheduler additionally serves
  *full* batches eagerly, so free replicas start in-flight batches while the
  remaining workers keep running.

The event path, the multiprocess path and the trace store come from the
shared :class:`~repro.rollout.pool.DriverPool`; this module adds the Go
worker stack and the sequential scheduler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tracedb.writer import StreamingTraceWriter

from ..hw.costmodel import CostModelConfig
from ..profiler.api import Profiler
from ..rollout.inference import FLUSH_MAX_BATCH, ROUTING_ROUND_ROBIN, RoutingPolicy
from ..rollout.pool import DriverPool, PoolWorker, WorkerRun
# The event-driven PoolScheduler and its stats live in the env-agnostic
# rollout core since the stepwise-driver refactor; re-exported here (and in
# repro.minigo) so existing imports keep working.
from ..rollout.scheduler import PoolScheduler, SchedulerStats  # noqa: F401
from .selfplay import GameDriver, PolicyValueNet, SelfPlayWorker

#: Scheduler modes understood by :class:`SelfPlayPool`.
SCHEDULER_SEQUENTIAL = "sequential"
SCHEDULER_EVENT = "event"
SCHEDULERS = (SCHEDULER_SEQUENTIAL, SCHEDULER_EVENT)


class SelfPlayPool(DriverPool):
    """Pool of self-play workers that share one GPU device.

    Workers are simulated sequentially but on independent virtual timelines
    starting at zero, which is equivalent to running them in parallel on a
    machine with enough CPU cores (the paper uses one worker per core).
    """

    worker_prefix = "selfplay_worker"

    def __init__(
        self,
        num_workers: int = 16,
        *,
        board_size: int = 9,
        num_simulations: int = 16,
        games_per_worker: int = 1,
        max_moves: Optional[int] = None,
        hidden: tuple = (128, 128),
        profile: bool = True,
        cost_config: Optional[CostModelConfig] = None,
        seed: int = 0,
        trace_dir: Optional[str] = None,
        store: Optional["StreamingTraceWriter"] = None,
        chunk_events: int = 50_000,
        batched_inference: bool = False,
        leaf_batch: int = 1,
        inference_max_batch: int = 64,
        num_replicas: int = 1,
        routing: "str | RoutingPolicy" = ROUTING_ROUND_ROBIN,
        scheduler: str = SCHEDULER_SEQUENTIAL,
        flush_policy: str = FLUSH_MAX_BATCH,
        flush_timeout_us: Optional[float] = None,
        num_processes: Optional[int] = None,
        process_backend: str = "process",
        fault_plan=None,
        transposition: bool = False,
        cache_capacity: Optional[int] = None,
        cache_scope: str = "shared",
    ) -> None:
        """With ``batched_inference=True`` the pool creates one shared
        :class:`~repro.rollout.inference.InferenceService` holding
        ``num_replicas`` model replicas behind the ``routing`` policy
        (``round-robin``, ``least-loaded``, ``sticky``, or a
        :class:`~repro.rollout.inference.RoutingPolicy` instance); replica 0
        shares the pool's primary GPU, further replicas each model an
        additional inference GPU.  Every worker's MCTS collects up to
        ``leaf_batch`` in-flight leaves per wave for batched evaluation
        through the service.  At ``leaf_batch=1`` the batched path
        reproduces the legacy per-leaf game records move-for-move under
        identical seeds, and at ``num_replicas=1`` (any routing) the sharded
        service reproduces the single-replica timelines bit-for-bit.

        ``scheduler="event"`` (requires ``batched_inference``) replaces the
        run-each-worker-to-completion loop with a :class:`PoolScheduler`
        that interleaves all workers at wave granularity and serves the
        service under ``flush_policy`` (``max-batch``, ``timeout`` with
        ``flush_timeout_us``, or ``unbatched`` — the bit-for-bit
        determinism baseline), so engine calls batch leaves across
        workers; with several replicas the scheduler also serves full
        batches eagerly so free replicas overlap in-flight batches with
        still-running workers.

        ``num_processes`` (requires the event scheduler) shards the workers
        over that many real OS processes via :mod:`repro.parallel`: shards
        advance their drivers between serves while the parent merges their
        virtual timelines and runs the shared service — records, clocks,
        scheduler decisions and service stats are bit-for-bit those of the
        single-process event loop.  ``process_backend="inline"`` runs the
        shards in-process (CI/debugging).

        ``transposition`` turns on each worker's per-search MCTS
        transposition table; ``cache_capacity`` enables the shared
        service's LRU evaluation cache (requires ``batched_inference``) and
        makes every wave submission carry Zobrist position keys, with
        ``cache_scope`` choosing one service-wide cache or one per replica.
        Both default off, preserving today's runs bit-for-bit."""
        self.board_size = board_size
        self.num_simulations = num_simulations
        self.games_per_worker = games_per_worker
        self.max_moves = max_moves
        self.hidden = hidden
        self.batched_inference = batched_inference
        self.leaf_batch = leaf_batch
        self.scheduler = scheduler
        self.transposition = transposition
        super().__init__(
            num_workers, profile=profile, cost_config=cost_config, seed=seed,
            trace_dir=trace_dir, store=store, chunk_events=chunk_events,
            inference_max_batch=inference_max_batch, num_replicas=num_replicas,
            routing=routing, flush_policy=flush_policy, flush_timeout_us=flush_timeout_us,
            num_processes=num_processes, process_backend=process_backend,
            fault_plan=fault_plan, cache_capacity=cache_capacity, cache_scope=cache_scope)

    def _validate(self) -> None:
        super()._validate()
        if self.num_replicas > 1 and not self.batched_inference:
            raise ValueError("num_replicas > 1 requires batched_inference=True "
                             "(there is no inference service to shard otherwise)")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}; "
                             f"expected one of {SCHEDULERS}")
        if self.scheduler == SCHEDULER_EVENT and not self.batched_inference:
            raise ValueError("the event-driven scheduler requires batched_inference=True "
                             "(workers must block on a shared InferenceService)")
        if self.cache_capacity is not None and not self.batched_inference:
            raise ValueError("cache_capacity requires batched_inference=True "
                             "(the evaluation cache lives in the shared service)")
        if self.num_processes is not None and self.scheduler != SCHEDULER_EVENT:
            raise ValueError("num_processes requires the event scheduler "
                             "(shards are merged at serve boundaries)")

    # ------------------------------------------------------------------ run
    def run(self, weights: Optional[List[np.ndarray]] = None) -> List[WorkerRun]:
        """Run every worker's self-play session; returns per-worker results."""
        if self.scheduler == SCHEDULER_EVENT:
            return self._run(weights)
        # Sequential: each worker plays to completion on its own timeline,
        # flushing the shared service (if any) at every inference boundary.
        self._begin_run()
        if self.batched_inference:
            self._start_service(weights=weights)
        for index in range(self.num_workers):
            worker, profiler = self._make_worker(index, weights)
            result = worker.play_games(self.games_per_worker)
            self.runs.append(self._finish_run(worker.system, profiler, result))
        self._end_run()
        return self.runs

    # ---------------------------------------------------------------- hooks
    def _make_stacks(self, indices, weights) -> list:
        # The service comes first: every worker connects to it on creation.
        self._start_service(weights=weights)
        return [self._make_worker(index, weights) for index in indices]

    def _make_driver(self, stack, index: int, blob: Optional[bytes] = None) -> PoolWorker:
        worker, profiler = stack
        if blob is not None:
            driver = GameDriver.restore(worker, blob)
        else:
            driver = GameDriver(worker, self.games_per_worker)
        return PoolWorker(driver, worker.system, worker._client, profiler)

    def _service_model(self, probe):
        """With the same init seed as the legacy per-worker networks the
        shared model's weights are identical."""
        from ..rollout.seeding import network_seed

        return PolicyValueNet(self.board_size, self.hidden,
                              rng=np.random.default_rng(network_seed(self.seed))), None

    def _extra_child_config(self) -> dict:
        return dict(
            board_size=self.board_size,
            num_simulations=self.num_simulations,
            games_per_worker=self.games_per_worker,
            max_moves=self.max_moves,
            hidden=self.hidden,
            batched_inference=True,
            leaf_batch=self.leaf_batch,
            scheduler=SCHEDULER_EVENT,
            transposition=self.transposition,
        )

    def _make_worker(self, index: int, weights: Optional[List[np.ndarray]]
                     ) -> Tuple[SelfPlayWorker, Optional[Profiler]]:
        """Build one worker's system/engine/profiler stack (its "process")."""
        from ..rollout.seeding import worker_seed

        system, engine = self._worker_system(index)
        if self.inference_service is not None:
            network = self.inference_service.network
        else:
            network, _ = self._service_model(None)
            if weights is not None:
                network.load_state_dict(weights)
        profiler = self._worker_profiler(system, engine)

        worker = SelfPlayWorker(
            system, engine, network,
            profiler=profiler,
            board_size=self.board_size,
            num_simulations=self.num_simulations,
            max_moves=self.max_moves,
            seed=worker_seed(self.seed, index),
            leaf_batch=self.leaf_batch,
            inference=self.inference_service,
            transposition=self.transposition,
            emit_state_keys=self.cache_capacity is not None,
        )
        return worker, profiler

    # ------------------------------------------------------------- reporting
    def all_examples(self):
        examples = []
        for run in self.runs:
            examples.extend(run.result.examples)
        return examples
