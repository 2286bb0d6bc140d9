"""The layers the traced run attributes wall time to, named by module.

Each layer lists the public entry points the benchmark wraps from outside
``src/`` and the counts recorded at those boundaries.  Calls made from a
layer into itself are spans too, so ``calls`` counts every call into the
listed entry points, nested or not.  ``minigo.selfplay`` (``GameDriver.step``)
is wrapped so that driver-step counts can be checked against
``SchedulerStats.steps`` and so that driver glue is not billed to the
scheduler.  Time spent in code outside every listed entry point is
reported as the ``other`` layer (the root span's self time).
"""

from __future__ import annotations

from .tracer import OTHER, EntryPoint


def _count(key, amount=lambda args, result: 1):
    def observe(counters, args, result):
        counters[key] = counters.get(key, 0) + amount(args, result)
    return observe


def _frames(counters, args, result):
    counters["serving.protocol.frames"] = counters.get("serving.protocol.frames", 0) + 1
    counters["serving.protocol.bytes"] = counters.get("serving.protocol.bytes", 0) + len(result)


def _cache_get(counters, args, result):
    counters["rollout.evalcache.gets"] = counters.get("rollout.evalcache.gets", 0) + 1
    if result is not None:
        counters["rollout.evalcache.hits"] = counters.get("rollout.evalcache.hits", 0) + 1


_records = _count("tracedb.read.records",
                  lambda args, trace: len(trace.events) + len(trace.operations) + len(trace.markers))
_intervals = _count("profiler.analysis.intervals",
                    lambda args, result: len(args[0].events) + len(args[0].operations))
_chunks = _count("tracedb.write.chunks", lambda args, meta: meta is not None)

ENTRY_POINTS = (
    EntryPoint("sim.go", "repro.sim.go:GoPosition.play"),
    EntryPoint("sim.go", "repro.sim.go:GoPosition.legal_moves"),
    EntryPoint("sim.go", "repro.sim.go:GoPosition.features"),
    EntryPoint("minigo.mcts", "repro.minigo.mcts:SearchCursor.advance"),
    EntryPoint("minigo.mcts", "repro.minigo.mcts:MCTS.choose_move"),
    EntryPoint("minigo.mcts", "repro.minigo.mcts:MCTS.policy_from_visits"),
    EntryPoint("minigo.selfplay", "repro.minigo.selfplay:GameDriver.step"),
    EntryPoint("rollout.scheduler", "repro.rollout.scheduler:PoolScheduler.run"),
    EntryPoint("rollout.inference", "repro.rollout.inference:InferenceService.submit"),
    EntryPoint("rollout.inference", "repro.rollout.inference:InferenceService.serve_queued"),
    EntryPoint("rollout.inference", "repro.rollout.inference:InferenceService.flush"),
    EntryPoint("rollout.evalcache", "repro.rollout.evalcache:EvalCache.get", observe=_cache_get),
    EntryPoint("rollout.evalcache", "repro.rollout.evalcache:EvalCache.put"),
    EntryPoint("backend", "repro.backend.engine:CompiledFunction.__call__"),
    EntryPoint("backend", "repro.backend.engine:BackendEngine.execute_op"),
    EntryPoint("backend", "repro.backend.engine:BackendEngine.account_op"),
    EntryPoint("cuda", "repro.cuda.runtime:CudaRuntime.launch_kernel"),
    EntryPoint("cuda", "repro.cuda.runtime:CudaRuntime.memcpy_async"),
    EntryPoint("cuda", "repro.cuda.runtime:CudaRuntime.memset_async"),
    EntryPoint("cuda", "repro.cuda.runtime:CudaRuntime.malloc"),
    EntryPoint("cuda", "repro.cuda.runtime:CudaRuntime.free"),
    EntryPoint("cuda", "repro.cuda.runtime:CudaRuntime.stream_synchronize"),
    EntryPoint("cuda", "repro.cuda.runtime:CudaRuntime.device_synchronize"),
    EntryPoint("sim.env", "repro.sim.base:Env.step"),
    EntryPoint("sim.env", "repro.sim.base:Env.reset"),
    EntryPoint("rl", "repro.rl.td3:TD3._update"),
    EntryPoint("rl", "repro.rl.buffers:ReplayBuffer.add"),
    EntryPoint("rl", "repro.rl.buffers:ReplayBuffer.sample"),
    EntryPoint("profiler", "repro.profiler.api:Profiler.operation", kind="cm"),
    EntryPoint("profiler", "repro.profiler.api:Profiler.record_event"),
    EntryPoint("profiler", "repro.profiler.api:Profiler.record_marker"),
    EntryPoint("profiler", "repro.profiler.api:Profiler.on_c_enter"),
    EntryPoint("profiler", "repro.profiler.api:Profiler.on_c_exit"),
    EntryPoint("profiler", "repro.profiler.interception:BackendInterception.enter"),
    EntryPoint("profiler", "repro.profiler.interception:BackendInterception.exit"),
    EntryPoint("profiler", "repro.profiler.interception:CudaInterceptionHook.api_overhead_us"),
    EntryPoint("profiler", "repro.profiler.interception:CudaInterceptionHook.on_api"),
    EntryPoint("tracedb.write", "repro.tracedb.writer:ShardWriter.add_event"),
    EntryPoint("tracedb.write", "repro.tracedb.writer:ShardWriter.add_operation"),
    EntryPoint("tracedb.write", "repro.tracedb.writer:ShardWriter.add_marker"),
    EntryPoint("tracedb.write", "repro.tracedb.writer:ShardWriter.flush", observe=_chunks),
    EntryPoint("tracedb.write", "repro.profiler.api:Profiler.finalize"),
    EntryPoint("tracedb.read", "repro.tracedb.store:TraceDB.to_event_trace", observe=_records),
    EntryPoint("profiler.analysis", "repro.profiler.overlap:compute_overlap", observe=_intervals),
    EntryPoint("profiler.analysis", "repro.profiler.correction:corrected_category_breakdown"),
    EntryPoint("profiler.analysis", "repro.profiler.correction:corrected_total_us"),
    EntryPoint("profiler.analysis", "repro.profiler.report:total_time_table"),
    EntryPoint("profiler.analysis", "repro.profiler.report:breakdown_table"),
    EntryPoint("profiler.analysis", "repro.profiler.report:transitions_table"),
    EntryPoint("serving.protocol", "repro.serving.protocol:encode_request", observe=_frames),
    EntryPoint("serving.protocol", "repro.serving.protocol:encode_reply", observe=_frames),
    EntryPoint("serving.protocol", "repro.serving.protocol:decode_message"),
    EntryPoint("serving.server", "repro.serving.server:InferenceServer.receive"),
    EntryPoint("serving.server", "repro.serving.server:InferenceServer.on_timer"),
    EntryPoint("serving.server", "repro.serving.server:InferenceServer.drain"),
    EntryPoint("serving.client", "repro.serving.client:ServingClient.new_request_frame"),
    EntryPoint("serving.client", "repro.serving.client:ServingClient.deliver"),
    EntryPoint("serving.client", "repro.serving.loadgen:LoadGenerator.arrivals", kind="gen",
               observe=_count("serving.client.arrivals")),
    EntryPoint("serving.simulation", "repro.serving.simulation:run_serving"),
)

#: Every layer in report order; ``other`` is the root span's self time.
LAYERS = tuple(dict.fromkeys(entry.layer for entry in ENTRY_POINTS)) + (OTHER,)

#: Per-layer counts reported besides calls/self time/share, with units.
COUNTERS = (
    ("rollout.scheduler.steps", "count"),
    ("rollout.scheduler.serves", "count"),
    ("rollout.inference.engine_calls", "count"),
    ("rollout.inference.rows_per_call", "rows"),
    ("rollout.evalcache.hit_fraction", "fraction"),
    ("backend.ops", "count"),
    ("cuda.api_calls", "count"),
    ("profiler.records", "count"),
    ("tracedb.write.chunks", "count"),
    ("tracedb.write.bytes", "bytes"),
    ("tracedb.read.records", "count"),
    ("profiler.analysis.intervals", "count"),
    ("serving.protocol.frames", "count"),
    ("serving.protocol.bytes", "bytes"),
    ("serving.server.shed_fraction", "fraction"),
    ("serving.server.cache_hit_fraction", "fraction"),
    ("serving.simulation.events", "count"),
)

#: Metrics about the tracing itself, from the traced run.
TRACE_METRICS = (
    ("trace.untraced_op_s", "s"),
    ("trace.untraced_report_s", "s"),
    ("trace.traced_op_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans_per_op", "count"),
)


def boundary_counts(name_calls, counters):
    """Counts of one operation taken at the layer boundaries.

    ``name_calls`` are calls per entry-point name, ``counters`` what the
    ``observe`` hooks recorded.
    """
    def calls(prefix):
        return sum(n for name, n in name_calls.items() if name.startswith(prefix))

    return dict(counters,
                **{"backend.ops": calls("BackendEngine.execute_op") + calls("BackendEngine.account_op"),
                   "cuda.api_calls": calls("CudaRuntime."),
                   "profiler.records": calls("ShardWriter.add_")})


def per_layer_metric_names():
    """``(name, unit)`` of every per-layer metric, in BENCHMARK.json order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                  (f"{layer}.share", "fraction")]
    return names + list(COUNTERS) + list(TRACE_METRICS)
