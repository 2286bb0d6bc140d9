"""Worker pools over the batched stack: the shared :class:`DriverPool` core.

:class:`DriverPool` is the machinery every worker pool shares: ``num_workers``
independent "processes" (each with its own virtual clock, cost model, CUDA
runtime and stream on one shared :class:`~repro.hw.gpu.GPUDevice`) whose
stepwise drivers route every policy evaluation through one
batched/sharded :class:`~repro.rollout.inference.InferenceService`, with
the workers interleaved by the :class:`~repro.rollout.scheduler.PoolScheduler`
— in-process, or sharded over real OS processes via :mod:`repro.parallel`.
One engine call serves the pending steps of many workers.

:class:`EnvRolloutPool` runs any ``repro.sim.registry`` environment behind
a shared policy network on that core — the cross-worker batching the
Minigo pool (:class:`~repro.minigo.workers.SelfPlayPool`) demonstrated,
available to every sim and algorithm in the zoo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tracedb.store import TraceDB
    from ..tracedb.writer import StreamingTraceWriter

from ..backend.graph import GraphEngine
from ..backend.layers import MLP, Module
from ..backend.tensor import Parameter, Tensor
from ..hw.costmodel import CostModelConfig
from ..hw.gpu import GPUDevice
from ..profiler.api import Profiler, ProfilerConfig
from ..profiler.events import EventTrace
from ..sim import registry
from ..system import System
from .driver import StepwiseDriver
from .envdriver import (
    ActionPolicy,
    EnvRolloutDriver,
    GaussianNoisePolicy,
    SampledDiscretePolicy,
)
from .evalcache import CACHE_SCOPES
from .inference import (
    EVALUATE_FUNCTION_NAME,
    FLUSH_MAX_BATCH,
    FLUSH_POLICIES,
    FLUSH_TIMEOUT,
    ROUTING_POLICIES,
    ROUTING_ROUND_ROBIN,
    InferenceService,
)
from .scheduler import PoolScheduler
from .seeding import driver_seed

#: Compiled-function name for zoo policy evaluations (mirrors the per-step
#: inference functions the serial ``repro.rl`` collection loops compile).
POLICY_FUNCTION_NAME = "policy_forward"


class RolloutPolicyNet(Module):
    """Default zoo actor-critic: shared trunk, action head, value head.

    The action head emits logits for discrete envs (the service's default
    softmax forward turns them into sampling probabilities) and tanh-bounded
    action means for continuous envs (served raw through
    :func:`continuous_actor_forward`; the env clips to its action space).
    """

    def __init__(self, obs_dim: int, out_dim: int, hidden: Tuple[int, ...] = (64, 64), *,
                 continuous: bool = False, rng: Optional[np.random.Generator] = None,
                 name: str = "zoo_net") -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.out_dim = out_dim
        self.continuous = continuous
        self.trunk = MLP(obs_dim, list(hidden[:-1]), hidden[-1], activation="relu",
                         out_activation="relu", name=f"{name}/trunk", rng=rng)
        self.action_head = MLP(hidden[-1], [], out_dim,
                               out_activation="tanh" if continuous else None,
                               name=f"{name}/action", rng=rng)
        self.value_head = MLP(hidden[-1], [], 1, name=f"{name}/value", rng=rng)

    def __call__(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        trunk = self.trunk(features)
        return self.action_head(trunk), self.value_head(trunk)

    def parameters(self) -> List[Parameter]:
        return (self.trunk.parameters() + self.action_head.parameters()
                + self.value_head.parameters())


def continuous_actor_forward(network, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Service forward for continuous actors: raw action rows, no softmax."""
    actions, value = network(Tensor(features))
    return actions.numpy(), value.numpy().reshape(-1)


@dataclass
class WorkerRun:
    """Output of one worker in a pool.

    ``trace`` is ``None`` when profiling is off or when the pool streams
    traces into a shared store (query them via :meth:`DriverPool.tracedb`);
    ``system`` is ``None`` for runs a shard process sent back.
    """

    worker: str
    result: object
    trace: Optional[EventTrace]
    total_time_us: float
    system: Optional[System] = field(repr=False, default=None)


class PoolWorker(NamedTuple):
    """One built worker: its driver and the parts the pool reads back."""

    driver: StepwiseDriver
    system: System
    client: object  #: the worker's InferenceClient (hosts its batches)
    profiler: Optional[Profiler]


class DriverPool:
    """Pool of stepwise-driver workers sharing one GPU and one inference service.

    Owns what every pool shares: validation, the device and trace-store
    lifecycle, the shared service, the in-process event loop and the
    multiprocess path.  Subclasses supply the hooks:

    * :meth:`_make_stacks` builds the workers' stacks and starts the shared
      service (each pool keeps its own construction order);
    * :meth:`_make_driver` wraps one stack in a fresh or snapshot-restored
      driver;
    * :meth:`_service_model` and :attr:`function_name` pick the served
      network, forward and compiled-function name;
    * :meth:`_extra_child_config` lists the pool's own constructor kwargs a
      shard process rebuilds it from;
    * :meth:`_validate`, extended, checks the pool's own options too.

    Subclasses set their own attributes before calling ``__init__``, which
    validates before it creates the device and the trace store.
    """

    #: worker ``i`` is named ``f"{worker_prefix}_{i}"``
    worker_prefix = "worker"
    #: name of the shared service's compiled batched evaluator
    function_name = EVALUATE_FUNCTION_NAME

    def __init__(self, num_workers: int, *, profile: bool,
                 cost_config: Optional[CostModelConfig], seed: int,
                 trace_dir: Optional[str], store: Optional["StreamingTraceWriter"],
                 chunk_events: int, inference_max_batch: Optional[int], num_replicas: int,
                 routing, flush_policy: str, flush_timeout_us: Optional[float],
                 num_processes: Optional[int], process_backend: str, fault_plan,
                 cache_capacity: Optional[int], cache_scope: str) -> None:
        self.num_workers = num_workers
        self.profile = profile
        self.cost_config = cost_config
        self.seed = seed
        self.trace_dir = trace_dir
        self.chunk_events = chunk_events
        self.num_replicas = num_replicas
        self.routing = routing
        self.flush_policy = flush_policy
        self.flush_timeout_us = flush_timeout_us
        self.num_processes = num_processes
        self.process_backend = process_backend
        #: optional :class:`~repro.faults.plan.FaultPlan` for the multiprocess
        #: tier (shard crashes -> respawn + journal replay).  Excluded from
        #: :meth:`_child_config`: the parent injects faults, respawned shards
        #: must never re-inject them.
        self.fault_plan = fault_plan
        self.cache_capacity = cache_capacity
        self.cache_scope = cache_scope
        # Streaming trace store: every worker writes its own shard into one
        # store (either a shared writer passed in, or one owned by the pool).
        self._store = store
        self._validate()
        self.inference_max_batch = (inference_max_batch if inference_max_batch is not None
                                    else max(1, num_workers // num_replicas))
        #: the shared accelerator all workers contend for
        self.device = GPUDevice()
        self.inference_service: Optional[InferenceService] = None
        self.pool_scheduler: Optional[PoolScheduler] = None
        self.runs: List[WorkerRun] = []
        self._owns_store = False
        self._streamed = False
        if store is None and trace_dir is not None:
            from ..tracedb.writer import StreamingTraceWriter
            self._store = StreamingTraceWriter(trace_dir, chunk_events=chunk_events)
            self._owns_store = True

    def _validate(self) -> None:
        """Reject an invalid configuration: one message per invalid input.

        Checks every option the pools share; a pool with options of its own
        extends this (calling it first).
        """
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if isinstance(self.routing, str) and self.routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {self.routing!r}; "
                             f"expected one of {ROUTING_POLICIES}")
        if self.flush_policy not in FLUSH_POLICIES:
            raise ValueError(f"unknown flush policy {self.flush_policy!r}; "
                             f"expected one of {FLUSH_POLICIES}")
        if self.flush_policy == FLUSH_TIMEOUT and (self.flush_timeout_us is None
                                                   or self.flush_timeout_us < 0):
            raise ValueError("the timeout flush policy requires a non-negative flush_timeout_us")
        if self.cache_scope not in CACHE_SCOPES:
            raise ValueError(f"unknown cache scope {self.cache_scope!r}; "
                             f"expected one of {CACHE_SCOPES}")
        if self.num_processes is not None:
            from ..parallel.runner import BACKENDS
            if self.num_processes <= 0:
                raise ValueError("num_processes must be positive")
            if self.process_backend not in BACKENDS:
                raise ValueError(f"unknown process backend {self.process_backend!r}; "
                                 f"expected one of {BACKENDS}")
            if self.cache_capacity is not None:
                raise ValueError(
                    "num_processes cannot be combined with the service evaluation "
                    "cache: shards replay engine calls from their own pre-run "
                    "timelines, so parent-side cache hits would desynchronize the "
                    "shard replicas; run the cache single-process")
            if self._store is not None:
                raise ValueError("num_processes cannot share a live store object "
                                 "across processes; pass trace_dir instead")
        plan = self.fault_plan
        if plan is not None and not plan.empty:
            from ..faults.plan import SHARD_CRASH
            if self.num_processes is None or self.process_backend != "process":
                raise ValueError("a non-empty fault_plan requires num_processes with "
                                 "process_backend='process': pools inject faults only "
                                 "as shard-process crashes")
            ignored = sorted({event.kind for event in plan.events} - {SHARD_CRASH})
            if ignored:
                raise ValueError(f"pools inject only {SHARD_CRASH!r} faults; "
                                 f"fault_plan kinds {ignored} would be ignored")

    @property
    def streaming(self) -> bool:
        return self._store is not None

    @property
    def store(self) -> Optional["StreamingTraceWriter"]:
        return self._store

    def tracedb(self) -> "TraceDB":
        """Open the streamed trace store for querying/map-reduce analysis."""
        if self._store is None:
            raise ValueError("pool was not created with trace_dir/store; no trace store to open")
        from ..tracedb.store import TraceDB
        return TraceDB(str(self._store.directory))

    # ---------------------------------------------------------------- hooks
    def _make_stacks(self, indices, weights) -> list:
        """Build the stacks of workers ``indices`` and start the shared service."""
        raise NotImplementedError

    def _make_driver(self, stack, index: int, blob: Optional[bytes] = None) -> PoolWorker:
        """Wrap ``stack`` in a fresh driver, or the one snapshot ``blob`` restores."""
        raise NotImplementedError

    def _service_model(self, probe):
        """``(network, forward)`` of the shared service; ``forward=None`` is
        the service's default softmax head."""
        raise NotImplementedError

    def _extra_child_config(self) -> dict:
        """The pool's own constructor kwargs a shard rebuilds it from."""
        return {}

    # ------------------------------------------------------------------ run
    def run(self) -> List[WorkerRun]:
        """Drive every worker to completion; returns per-worker runs."""
        return self._run()

    def _run(self, weights: Optional[List[np.ndarray]] = None) -> List[WorkerRun]:
        """The event-loop run; ``weights`` (self-play only) are loaded into
        the shared model before any clock starts."""
        self._begin_run()
        if self.num_processes is not None:
            return self._run_parallel(weights)
        workers = self._build_workers(range(self.num_workers), weights)
        self.pool_scheduler = PoolScheduler(
            [worker.driver for worker in workers], self.inference_service,
            flush_policy=self.flush_policy, flush_timeout_us=self.flush_timeout_us)
        self.pool_scheduler.run()
        self.runs = [self._finish_run(worker.system, worker.profiler, worker.driver.result)
                     for worker in workers]
        self._end_run()
        return self.runs

    def _begin_run(self) -> None:
        if self.streaming and self._streamed:
            # A rerun restarts every worker clock at zero; appending it to the
            # same shards would double-count time in store-derived summaries.
            raise RuntimeError("this pool already streamed a run into its trace store; "
                               "create a new pool (or trace_dir) for another run")
        self.runs = []
        self.inference_service = None
        self.pool_scheduler = None

    def _end_run(self) -> None:
        if self.streaming:
            self._streamed = True
            if self._owns_store:
                self._store.close()

    def _build_workers(self, indices, weights=None,
                       restore: Optional[Dict[int, bytes]] = None) -> List[PoolWorker]:
        """Start the service and build workers ``indices`` with their drivers.

        Drivers listed in ``restore`` (worker index -> snapshot blob) come
        back from their snapshot instead of starting fresh.
        """
        restore = restore or {}
        stacks = self._make_stacks(indices, weights)
        return [self._make_driver(stack, index, restore.get(index))
                for index, stack in zip(indices, stacks)]

    def _start_service(self, probe=None, weights=None, service_factory=None) -> InferenceService:
        """Build the shared service, load ``weights`` and adopt it."""
        service = self._build_service(probe, service_factory)
        if weights is not None:
            # Initial model placement: load without charging broadcast time
            # (clocks have not started).
            service.update_weights(weights, charge=False)
        self.inference_service = service
        return service

    def _build_service(self, probe=None, service_factory=None) -> InferenceService:
        """Build the shared service: one logical model, ``num_replicas`` shards.

        Replica 0 shares the pool's primary GPU, further replicas each model
        an additional inference GPU.  ``probe`` is any worker's simulator,
        for pools whose model shape depends on it.  ``service_factory``
        substitutes the class (the multiprocess path passes the parent-side
        mirror service).
        """
        network, forward = self._service_model(probe)
        factory = service_factory if service_factory is not None else InferenceService
        return factory(
            network,
            max_batch=self.inference_max_batch,
            num_replicas=self.num_replicas,
            routing=self.routing,
            primary_device=self.device,
            cost_config=self.cost_config,
            seed=self.seed,
            function_name=self.function_name,
            forward=forward,
            cache_capacity=self.cache_capacity,
            cache_scope=self.cache_scope,
        )

    def _finish_run(self, system: System, profiler: Optional[Profiler], result) -> WorkerRun:
        trace = profiler.finalize() if profiler is not None else None
        if self.streaming:
            # The trace lives in the store's shard; keep runs lightweight.
            trace = None
        return WorkerRun(worker=system.worker, result=result, trace=trace,
                         total_time_us=system.clock.now_us, system=system)

    def _worker_name(self, index: int) -> str:
        return f"{self.worker_prefix}_{index}"

    def _worker_system(self, index: int) -> Tuple[System, GraphEngine]:
        """Worker ``index``'s own system (its "process") and graph engine."""
        from .seeding import system_seed

        system = System.create(
            seed=system_seed(self.seed, index),
            config=self.cost_config,
            device=self.device,
            worker=self._worker_name(index),
        )
        system.cuda.default_stream = index
        return system, GraphEngine(system, flavor="tensorflow")

    def _worker_profiler(self, system: System, engine: GraphEngine,
                         envs=()) -> Optional[Profiler]:
        """The worker's profiler (streaming into the pool's store), if profiling."""
        if not self.profile:
            return None
        return Profiler(system, ProfilerConfig.full(), worker=system.worker,
                        store=self._store).attach(engine=engine, envs=envs)

    def _child_config(self) -> dict:
        """Constructor kwargs a shard process rebuilds this pool from."""
        return dict(
            num_workers=self.num_workers,
            profile=self.profile,
            cost_config=self.cost_config,
            seed=self.seed,
            trace_dir=self.trace_dir,
            chunk_events=self.chunk_events,
            inference_max_batch=self.inference_max_batch,
            num_replicas=self.num_replicas,
            routing=self.routing,
            flush_policy=self.flush_policy,
            flush_timeout_us=self.flush_timeout_us,
            **self._extra_child_config(),
        )

    def _run_parallel(self, weights: Optional[List[np.ndarray]]) -> List[WorkerRun]:
        """Run the pool sharded over ``num_processes`` OS processes.

        Shards build and advance the real worker stacks; the parent replays
        their timelines through proxy drivers under the real scheduler and
        the mirror service, so every scheduling/batching/routing decision —
        and therefore every record and clock — matches the in-process event
        loop bit-for-bit.
        """
        from functools import partial

        from ..parallel.proxy import MirrorInferenceService, ProxyDriver
        from ..parallel.runner import ParallelRunner, assign_workers
        from ..parallel.shard import ShardSpec

        config = self._child_config()
        specs = [ShardSpec(pool_cls=type(self), pool_config=config,
                           worker_indices=indices, weights=weights)
                 for indices in assign_workers(self.num_workers, self.num_processes)]
        runner = ParallelRunner(specs, backend=self.process_backend,
                                fault_plan=self.fault_plan)
        self.parallel_runner = runner
        try:
            service = self._start_service(
                weights=weights,
                service_factory=partial(MirrorInferenceService, runner=runner))
            segments = runner.build()
            proxies = [ProxyDriver(runner, index, self._worker_name(index),
                                   service, segments[index])
                       for index in range(self.num_workers)]
            runner.attach(proxies)
            self.pool_scheduler = PoolScheduler(
                proxies, service,
                flush_policy=self.flush_policy, flush_timeout_us=self.flush_timeout_us)
            self.pool_scheduler.run()
            finals = runner.finalize()
        finally:
            runner.stop()
        self.runs = [finals[index] for index in range(self.num_workers)]
        # The shards already merged their trace shards; closing the parent's
        # (shard-less) writer just seals the store index.
        self._end_run()
        return self.runs

    # ------------------------------------------------------------- reporting
    def traces(self) -> Dict[str, EventTrace]:
        return {run.worker: run.trace for run in self.runs if run.trace is not None}

    def collection_span_us(self) -> float:
        """Wall-clock span of the parallel collection phase (slowest worker)."""
        return max((run.total_time_us for run in self.runs), default=0.0)


class EnvRolloutPool(DriverPool):
    """Pool of env-rollout workers sharing one GPU and one inference service."""

    worker_prefix = "rollout_worker"
    function_name = POLICY_FUNCTION_NAME

    def __init__(
        self,
        sim: str,
        num_workers: int = 8,
        *,
        steps_per_worker: int = 32,
        hidden: Tuple[int, ...] = (64, 64),
        network=None,
        forward=None,
        policy_factory=None,
        profile: bool = False,
        cost_config: Optional[CostModelConfig] = None,
        seed: int = 0,
        trace_dir: Optional[str] = None,
        store: Optional["StreamingTraceWriter"] = None,
        chunk_events: int = 50_000,
        inference_max_batch: Optional[int] = None,
        num_replicas: int = 1,
        routing: str = ROUTING_ROUND_ROBIN,
        flush_policy: str = FLUSH_MAX_BATCH,
        flush_timeout_us: Optional[float] = None,
        collect_transitions: bool = True,
        env_kwargs: Optional[dict] = None,
        num_processes: Optional[int] = None,
        process_backend: str = "process",
        fault_plan=None,
        cache_capacity: Optional[int] = None,
        cache_scope: str = "shared",
    ) -> None:
        """``network``/``forward``/``policy_factory`` default to a shared
        :class:`RolloutPolicyNet` with the env-appropriate service forward
        and action policy (categorical sampling for discrete envs, gaussian
        exploration noise for continuous ones); pass your own to route an
        algorithm's live network through the service instead (see
        ``repro.rl.zoo``).  ``policy_factory(env, seed)`` builds one
        :class:`~repro.rollout.envdriver.ActionPolicy` per worker.

        ``inference_max_batch`` defaults to ``num_workers // num_replicas``
        (floor 1): with one row per blocked worker, a full batch then forms
        as soon as one replica's fair share of the fleet is waiting, which
        both bounds batch size and lets the replica-aware eager path fan
        full batches out while other workers still run.

        ``num_processes`` shards the workers over that many real OS
        processes via :mod:`repro.parallel` (only with the default
        network/forward/policy — live objects cannot cross the process
        boundary): shards advance their drivers between serves while the
        parent merges their virtual timelines and runs the shared service,
        bit-for-bit reproducing the single-process event loop.
        ``process_backend="inline"`` runs the shards in-process.

        ``cache_capacity`` turns on the service-side evaluation cache
        (weight-versioned LRU; see :mod:`repro.rollout.evalcache`) for envs
        whose :meth:`~repro.sim.base.Env.state_key` returns a stable hash;
        keyless envs bypass it row-by-row.  ``cache_scope`` is ``"shared"``
        (one cache over all replicas) or ``"replica"``.
        """
        self.sim = sim
        self.steps_per_worker = steps_per_worker
        self.hidden = hidden
        self.collect_transitions = collect_transitions
        self.env_kwargs = dict(env_kwargs or {})
        self._network = network
        self._forward = forward
        self._policy_factory = policy_factory
        super().__init__(
            num_workers, profile=profile, cost_config=cost_config, seed=seed,
            trace_dir=trace_dir, store=store, chunk_events=chunk_events,
            inference_max_batch=inference_max_batch, num_replicas=num_replicas,
            routing=routing, flush_policy=flush_policy, flush_timeout_us=flush_timeout_us,
            num_processes=num_processes, process_backend=process_backend,
            fault_plan=fault_plan, cache_capacity=cache_capacity, cache_scope=cache_scope)

    def _validate(self) -> None:
        super()._validate()
        if self.steps_per_worker <= 0:
            raise ValueError("steps_per_worker must be positive")
        if self.num_processes is not None and (
                self._network is not None or self._forward is not None
                or self._policy_factory is not None):
            raise ValueError("num_processes requires the default network/forward/"
                             "policy (live objects cannot cross the process boundary)")

    # ---------------------------------------------------------------- hooks
    def _make_stacks(self, indices, weights) -> list:
        # Build every worker's system/engine/env first (fixed creation order
        # keeps every RNG stream independent of pool configuration); the
        # service reads its shapes from the first env.
        stacks = [self._make_worker_stack(index) for index in indices]
        self._start_service(stacks[0][2], weights)
        return stacks

    def _make_driver(self, stack, index: int, blob: Optional[bytes] = None) -> PoolWorker:
        system, engine, env, profiler = stack
        client = self.inference_service.connect(system, engine, worker=system.worker,
                                                profiler=profiler)
        if blob is not None:
            driver = EnvRolloutDriver.restore(env, client, blob, profiler=profiler)
        else:
            driver = EnvRolloutDriver(
                env, client, self._make_policy(env, index), self.steps_per_worker,
                seed=driver_seed(self.seed, index), profiler=profiler,
                collect_transitions=self.collect_transitions)
        return PoolWorker(driver, system, client, profiler)

    def _service_model(self, probe_env):
        """``probe_env`` supplies the observation/action dims and the
        discrete/continuous forward choice — identical for every worker of
        one sim, so any worker's env (or a throwaway probe) works."""
        from .seeding import network_seed

        if probe_env is None:
            probe_env = self._probe_env()
        network = self._network
        if network is None:
            network = RolloutPolicyNet(
                probe_env.observation_dim, probe_env.action_dim, self.hidden,
                continuous=not probe_env.is_discrete,
                rng=np.random.default_rng(network_seed(self.seed)),
                name=f"zoo_{self.sim}")
        forward = self._forward
        if forward is None and not probe_env.is_discrete:
            forward = continuous_actor_forward
        return network, forward

    def _extra_child_config(self) -> dict:
        return dict(
            sim=self.sim,
            steps_per_worker=self.steps_per_worker,
            hidden=self.hidden,
            collect_transitions=self.collect_transitions,
            env_kwargs=self.env_kwargs,
        )

    def _probe_env(self):
        """A throwaway env instance for shapes only — no worker stream touched."""
        return registry.make(self.sim, System.create(seed=0, worker="probe"),
                             seed=0, **self.env_kwargs)

    def _make_worker_stack(self, index: int):
        """Build one worker's system/engine/env/profiler (its "process")."""
        from .seeding import worker_seed

        system, engine = self._worker_system(index)
        env = registry.make(self.sim, system, seed=worker_seed(self.seed, index),
                            **self.env_kwargs)
        return system, engine, env, self._worker_profiler(system, engine, (env,))

    def _make_policy(self, env, index: int) -> ActionPolicy:
        if self._policy_factory is not None:
            return self._policy_factory(env, driver_seed(self.seed, index))
        return SampledDiscretePolicy() if env.is_discrete else GaussianNoisePolicy()

    # ------------------------------------------------------------- reporting
    def total_steps(self) -> int:
        return sum(run.result.steps for run in self.runs)
