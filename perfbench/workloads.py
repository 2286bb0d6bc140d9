"""The benchmark's workloads: seeded inputs, one operation, its correctness checks.

Every workload runs in the calling process and starts no thread or process
of its own.  One *operation* is one complete run of the workload: it is
constructed (set-up, untimed), runs its main loop and renders its result
(both timed), then is checked and cleaned up (untimed).

* ``profile-td3`` -- TD3 on Hopper under the default framework with
  ``ProfilerConfig.full()``, streaming into a TraceDB store, then
  ``analyze_db`` with ground-truth calibration and the corrected tables (the
  ``rls-prof --streaming`` path).  The paper's own use case, and the only
  workload where backend, cuda, profiler and tracedb do the work.
* ``selfplay`` -- an 8-worker ``SelfPlayPool`` on a 9x9 board, 16
  simulations, ``leaf_batch=8`` under the event scheduler, unprofiled:
  Go engine and MCTS dominate; profiler, tracedb and serving are unused.
* ``serve-shed`` -- ``run_serving`` with Poisson arrivals at 2x measured
  capacity over 2 replicas, shed-newest admission, no cache: most requests
  are shed, so request frames, header-only replies and admission dominate.
* ``serve-cached`` -- the same arrival process and server with keyed
  traffic (``key_space=64``) and a 256-entry admission cache: almost every
  request is answered from the cache with a full array reply.  Its horizon
  is twice as long, so the cold-cache start and the seed's mix of hits and
  sheds vary less between seeds.

Inputs are a pure function of the seed; the sizes below are fixed.  The
virtual-time outputs (the paper's numbers) are digested after every
operation; for ``PIN_SEED`` the digest must equal the one pinned in
``pins.json``, and for any seed the invariants in ``problems()`` must hold.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List

import numpy as np

import repro.profiler.analysis as analysis_mod
import repro.profiler.report as report_mod
import repro.serving as serving
from repro.experiments.common import WorkloadSpec
from repro.minigo.selfplay import PolicyValueNet
from repro.minigo.workers import SelfPlayPool
from repro.profiler.api import Profiler, ProfilerConfig
from repro.profiler.calibration import CalibrationResult
from repro.rl import FrameworkAdapter, STABLE_BASELINES, default_config, make_algorithm
from repro.sim import make as make_env
from repro.system import System

#: Seed whose digests are pinned in ``pins.json``.
PIN_SEED = 0
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

TD3_STEPS = 64
SELFPLAY = dict(num_workers=8, board_size=9, num_simulations=16, leaf_batch=8,
                games_per_worker=1, max_moves=24, hidden=(32, 32))
SERVE = dict(board_size=5, hidden=(16,), max_batch=8, queue_capacity=16,
             flush_timeout_us=300.0, request_deadline_us=3_000.0, num_clients=256,
             num_replicas=2, rate_multiplier=2.0, horizon_us=8_000.0)
SERVE_CACHE = dict(key_space=64, cache_capacity=256, horizon_us=16_000.0)


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _mismatch(label: str, wrapped: float, program: float) -> List[str]:
    return [] if wrapped == program else [f"{label}: wrappers saw {wrapped}, program counted {program}"]


class Operation:
    """One run of a workload.  Subclasses fill in the phases and checks."""

    #: layers whose entry points must fire during this operation
    layers: tuple = ()
    #: work units of the main loop (training steps, moves, requests)
    units: int = 0

    def main(self) -> None:
        raise NotImplementedError

    def report(self) -> None:
        raise NotImplementedError

    def digest(self) -> str:
        """Digest of the virtual-time outputs."""
        raise NotImplementedError

    def problems(self) -> List[str]:
        """Invariants of the outputs that hold for every seed."""
        return []

    def program_counters(self) -> Dict[str, float]:
        """The program's own counters, for the per-layer table."""
        return {}

    def cross_check(self, calls: Dict[str, int], counts: Dict[str, float]) -> List[str]:
        """Compare calls per entry point and boundary counts with the program's counters."""
        return []

    def close(self) -> None:
        """Release what set-up created (temp stores)."""


# ----------------------------------------------------------------- TD3 profile
class Td3Operation(Operation):
    layers = ("backend", "cuda", "sim.env", "rl", "profiler", "tracedb.write",
              "tracedb.read", "profiler.analysis")

    def __init__(self, seed: int, tmp_root: Path, steps: int = TD3_STEPS) -> None:
        self.spec = WorkloadSpec(algo="TD3", simulator="Hopper", framework=STABLE_BASELINES,
                                 total_timesteps=steps, seed=seed)
        self.units = steps
        self.directory = Path(tempfile.mkdtemp(prefix="td3-", dir=tmp_root))
        self.system = System.create(seed=seed)
        env = make_env("Hopper", self.system, seed=seed)
        self.framework = FrameworkAdapter(self.system, STABLE_BASELINES)
        self.profiler = Profiler(self.system, ProfilerConfig.full(),
                                 trace_dir=str(self.directory / "trace"), streaming=True)
        self.profiler.attach(engine=self.framework.engine, envs=[env])
        self.agent = make_algorithm("TD3", env, self.framework, config=default_config("TD3"),
                                    profiler=self.profiler, seed=seed)

    def main(self) -> None:
        self.agent.train(self.units)

    def report(self) -> None:
        self.profiler.finalize()
        calibration = CalibrationResult.from_ground_truth(self.system.cost_model.config)
        self.db = self.profiler.open_tracedb()
        self.analysis = analysis_mod.analyze_db(self.db, calibration=calibration,
                                                iterations=self.units)
        analyses = {self.spec.label: self.analysis}
        self.total_table = report_mod.total_time_table(analyses)
        self.breakdown = report_mod.breakdown_table(analyses)
        self.transitions = report_mod.transitions_table(analyses, self.units)

    def digest(self) -> str:
        return _sha(repr(self.system.clock.now_us).encode(), self.breakdown.encode())

    def _stored_records(self) -> int:
        return sum(shard["events"] + shard["operations"] + shard["markers"]
                   for shard in self.db.summary().values())

    def problems(self) -> List[str]:
        found = []
        trace = self.analysis.trace
        read = len(trace.events) + len(trace.operations) + len(trace.markers)
        if read != self._stored_records() or read == 0:
            found.append(f"store indexes {self._stored_records()} records, {read} read back")
        corrected = self.analysis.total_time_us(corrected=True)
        if not 0 < corrected <= self.system.clock.now_us:
            found.append(f"corrected total {corrected} outside (0, {self.system.clock.now_us}]")
        if not self.analysis.gpu_time_us() > 0:
            found.append("no GPU time in the profile")
        return found

    def program_counters(self) -> Dict[str, float]:
        return {"cuda.api_calls": self.system.cuda.total_api_calls,
                "backend.ops": self.framework.engine.op_count,
                "profiler.records": self._stored_records(),
                "tracedb.write.chunks": len(self.db.chunks()),
                "tracedb.write.bytes": self.profiler.store.bytes_written()}

    def cross_check(self, calls, counts):
        program = self.program_counters()
        return (_mismatch("cuda API calls", counts["cuda.api_calls"], program["cuda.api_calls"])
                + _mismatch("backend ops", counts["backend.ops"], program["backend.ops"])
                + _mismatch("trace records written", counts["profiler.records"],
                            program["profiler.records"])
                + _mismatch("trace records read", counts.get("tracedb.read.records", 0),
                            program["profiler.records"])
                + _mismatch("trace chunks", counts.get("tracedb.write.chunks", 0),
                            program["tracedb.write.chunks"]))

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


# -------------------------------------------------------------------- self-play
class SelfPlayOperation(Operation):
    layers = ("sim.go", "minigo.mcts", "minigo.selfplay", "rollout.scheduler",
              "rollout.inference", "backend", "cuda")

    def __init__(self, seed: int, tmp_root: Path, **overrides) -> None:
        config = dict(SELFPLAY, **overrides)
        self.games_per_worker = config["games_per_worker"]
        self.pool = SelfPlayPool(config.pop("num_workers"), seed=seed, profile=False,
                                 batched_inference=True, scheduler="event", **config)

    def main(self) -> None:
        self.pool.run()
        self.units = sum(run.result.moves for run in self.pool.runs)

    def report(self) -> None:
        examples = self.pool.all_examples()
        self.features = np.stack([ex.features for ex in examples])
        self.policies = np.stack([ex.policy_target for ex in examples])
        self.values = np.array([ex.value_target for ex in examples], dtype=np.float64)

    def _stats(self):
        return self.pool.pool_scheduler.stats, self.pool.inference_service.stats

    def digest(self) -> str:
        scheduler, service = self._stats()
        clocks = [(run.worker, run.total_time_us, run.result.games, run.result.moves)
                  for run in self.pool.runs]
        return _sha(self.features.tobytes(), self.policies.tobytes(), self.values.tobytes(),
                    repr(clocks).encode(),
                    json.dumps(asdict(scheduler), sort_keys=True).encode(),
                    repr((service.requests, service.rows, service.engine_calls)).encode())

    def problems(self) -> List[str]:
        scheduler, service = self._stats()
        found = []
        if len(self.values) != self.units or self.units == 0:
            found.append(f"{len(self.values)} examples for {self.units} moves")
        if any(run.result.games != self.games_per_worker for run in self.pool.runs):
            found.append("a worker did not finish its games")
        if sum(scheduler.steps_per_worker.values()) != scheduler.steps:
            found.append("per-worker steps do not add up to scheduler steps")
        if sum(service.rows_by_worker.values()) != service.rows:
            found.append("per-worker rows do not add up to service rows")
        return found

    def program_counters(self) -> Dict[str, float]:
        scheduler, service = self._stats()
        return {"rollout.scheduler.steps": scheduler.steps,
                "rollout.scheduler.serves": scheduler.serves,
                "rollout.inference.engine_calls": service.engine_calls,
                "rollout.inference.rows_per_call": service.mean_batch_rows,
                "rollout.inference.requests": service.requests,
                "cuda.api_calls": sum(run.system.cuda.total_api_calls for run in self.pool.runs)}

    def cross_check(self, calls, counts):
        program = self.program_counters()
        return (_mismatch("driver steps", calls.get("GameDriver.step", 0),
                          program["rollout.scheduler.steps"])
                + _mismatch("engine calls", calls.get("CompiledFunction.__call__", 0),
                            program["rollout.inference.engine_calls"])
                + _mismatch("service submissions", calls.get("InferenceService.submit", 0),
                            program["rollout.inference.requests"])
                + _mismatch("cuda API calls", counts["cuda.api_calls"], program["cuda.api_calls"]))


# ---------------------------------------------------------------------- serving
class ServeWorkload:
    """Per-process set-up shared by every serving operation: the offered rate."""

    def __init__(self, seed: int, *, cached: bool, **overrides) -> None:
        self.seed = seed
        self.config = {**SERVE, **(SERVE_CACHE if cached else {}), **overrides}
        self.feature_dim = 3 * self.config["board_size"] ** 2
        capacity = serving.estimate_capacity_rows_per_sec(
            self.network, feature_dim=self.feature_dim,
            max_batch=self.config["max_batch"], seed=seed)
        self.rate = self.config["rate_multiplier"] * capacity * self.config["num_replicas"]

    def network(self):
        return PolicyValueNet(self.config["board_size"], hidden=self.config["hidden"],
                              rng=np.random.default_rng(self.seed))


class ServeOperation(Operation):
    def __init__(self, workload: ServeWorkload, tmp_root: Path) -> None:
        config = workload.config
        self.cached = "cache_capacity" in config
        self.layers = ("rollout.inference", "backend", "cuda", "serving.protocol",
                       "serving.server", "serving.client", "serving.simulation"
                       ) + (("rollout.evalcache",) if self.cached else ())
        self.horizon_us = config["horizon_us"]
        self.server = serving.InferenceServer(
            workload.network(), max_batch=config["max_batch"],
            queue_capacity=config["queue_capacity"], overload="shed-newest",
            rate_limit_per_sec=None, flush_policy="timeout",
            flush_timeout_us=config["flush_timeout_us"],
            num_replicas=config["num_replicas"], seed=workload.seed,
            keep_decision_log=False, cache_capacity=config.get("cache_capacity"))
        self.loadgen = serving.LoadGenerator(
            serving.PoissonProcess(workload.rate), config["num_clients"],
            feature_dim=workload.feature_dim, retry=serving.RetryPolicy(),
            request_deadline_us=config["request_deadline_us"],
            key_space=config.get("key_space"), seed=workload.seed)

    def main(self) -> None:
        self.result = serving.run_serving(self.server, self.loadgen, self.horizon_us)

    def report(self) -> None:
        self.slo = serving.build_slo_report(self.result)
        self.text = self.slo.format()
        self.units = self.slo.requests

    def digest(self) -> str:
        return _sha(self.text.encode(),
                    json.dumps(asdict(self.server.stats), sort_keys=True).encode())

    def problems(self) -> List[str]:
        slo, stats = self.slo, self.server.stats
        found = []
        if slo.requests == 0:
            found.append("no requests offered")
        if slo.on_time + slo.late != slo.completed:
            found.append("on-time + late replies != completed requests")
        if slo.completed + slo.gave_up != slo.requests:
            found.append(f"{slo.requests} requests sent, {slo.completed} completed, "
                         f"{slo.gave_up} given up: some are unaccounted for")
        if slo.requests + slo.retries != slo.sends or slo.sends != stats.arrivals:
            found.append("frames sent, retries and server arrivals disagree")
        if stats.admitted + stats.shed_rate + stats.shed_queue + stats.cache_hits != stats.arrivals:
            found.append("admitted + shed at admission + cache hits != arrivals")
        return found

    def program_counters(self) -> Dict[str, float]:
        stats, service = self.server.stats, self.server.service.stats
        return {"rollout.inference.engine_calls": service.engine_calls,
                "rollout.inference.rows_per_call": service.mean_batch_rows,
                "serving.server.shed_fraction": stats.shed_fraction,
                "serving.server.cache_hit_fraction": stats.cache_hit_fraction,
                "serving.simulation.events": self.result.events,
                "server.arrivals": stats.arrivals,
                "server.replies": stats.served + stats.shed + stats.cache_hits,
                "server.cache_hits": stats.cache_hits,
                "requests": self.slo.requests}

    def cross_check(self, calls, counts):
        program = self.program_counters()
        found = (_mismatch("server receives", calls.get("InferenceServer.receive", 0),
                           program["server.arrivals"])
                 + _mismatch("request frames encoded", calls.get("encode_request", 0),
                             program["server.arrivals"])
                 + _mismatch("replies delivered", calls.get("ServingClient.deliver", 0),
                             program["server.replies"])
                 + _mismatch("requests opened", calls.get("ServingClient.new_request_frame", 0),
                             program["requests"])
                 + _mismatch("arrivals generated", counts.get("serving.client.arrivals", 0),
                             program["requests"])
                 + _mismatch("engine calls", calls.get("CompiledFunction.__call__", 0),
                             program["rollout.inference.engine_calls"]))
        if self.cached:
            found += _mismatch("cache hits", counts.get("rollout.evalcache.hits", 0),
                               program["server.cache_hits"])
        return found


# ---------------------------------------------------------------------- registry
class Workload:
    """Builds operations of one named workload for one seed."""

    def __init__(self, name: str, seed: int, tmp_root: Path, **overrides) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.tmp_root = Path(tmp_root)
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        self.overrides = overrides
        self._serve = (ServeWorkload(seed, cached=name == "serve-cached", **overrides)
                       if name.startswith("serve-") else None)

    def new_operation(self) -> Operation:
        if self.name == "profile-td3":
            return Td3Operation(self.seed, self.tmp_root, **self.overrides)
        if self.name == "selfplay":
            return SelfPlayOperation(self.seed, self.tmp_root, **self.overrides)
        return ServeOperation(self._serve, self.tmp_root)


WORKLOADS = ("profile-td3", "selfplay", "serve-shed", "serve-cached")


def load_pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))
