#!/usr/bin/env python3
"""Wall-clock benchmark of the reproduction, end to end and layer by layer.

Run from the root of the repository::

    python3 perfbench/run.py --workload selfplay --seed 3 --seconds 24 --trace 0

The workloads are in ``workloads.py``.  After one untimed warm-up operation,
operations run back to back until ``--seconds`` have passed.  ``--trace 0``
reports the end-to-end metrics, medians with no tracing installed:

* ``setup_s`` -- imports plus construction of one operation, in each of
  several fresh interpreters;
* ``work_per_s`` -- work units per second of the main loop: training steps
  (``profile-td3``), moves (``selfplay``) or requests (``serve-*``);
* ``op_s`` -- seconds of one whole operation: its main loop plus the
  rendering of its result (finalize, ``analyze_db`` and the corrected tables
  for ``profile-td3``, the SLO report for ``serve-*``, the training arrays
  for ``selfplay``);
* ``peak_rss_mb`` -- peak resident memory of a fresh process that imported
  the program and ran one operation.

Every time is scaled by the reference workload of ``reference.py``, measured
around it, to cancel the host's changes of speed.  ``--trace 1`` runs half
the time untraced and half with spans around every layer's entry points
(``layers.py``) and reports the per-layer table: calls, self seconds and
share of the timed phase per operation, the layers' counters, and the
tracing overhead (traced median minus untraced median).

Every operation is checked: its virtual-time digest must match the first
operation of the run (and ``pins.json`` for the pinned seed), its invariants
must hold and, when traced, wrapper call counts must equal the program's own
counters.  An operation that raises or fails a check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment fingerprint,
every sample and, for traced runs, every span are written under
``.perfbench/results/``; temporary trace stores live in ``.perfbench/tmp/``
and are removed before exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 3
#: BLAS thread pools are pinned to one thread: the workloads run in one
#: process with no threads of their own.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"), ("op_s", "s"), ("peak_rss_mb", "MB"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=("setup", "memory"), help=argparse.SUPPRESS)
    return parser


def fingerprint() -> dict:
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------- set-up
def setup_probe(workload: str, seed: int, tmp_root: Path, kind: str) -> None:
    """Import the program and construct one operation; print the seconds taken.

    The reference is measured after set-up because it needs NumPy, whose
    import is part of set-up.  A ``memory`` probe then runs the operation and
    also prints the peak resident memory of this process, which ran nothing
    but this one operation of the workload.
    """
    start = time.perf_counter()
    from perfbench.workloads import Workload

    operation = Workload(workload, seed, tmp_root).new_operation()
    elapsed = time.perf_counter() - start
    from perfbench.reference import reference_s

    result = {"setup_s": elapsed, "reference_s": reference_s()}
    if kind == "memory":
        operation.main()
        operation.report()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    operation.close()
    print(json.dumps(result))


def measure_setup(workload: str, seed: int, tmp_root: Path):
    samples = []
    for index in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0",
             "--setup-probe", "memory" if index == 0 else "setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1]))
    return samples


# --------------------------------------------------------------- operations
class Runner:
    """Runs and checks operations of one workload, collecting samples."""

    def __init__(self, workload, pins) -> None:
        from perfbench.reference import NOMINAL_S, reference_s

        self.nominal_s = NOMINAL_S
        self.reference_s = reference_s
        self.workload = workload
        self.expected = pins.get(workload.name)
        self.attempted = 0
        self.failed = 0
        self.run_id = 0

    def run(self, tracer=None):
        """One checked operation; returns its sample, or None when it failed."""
        self.attempted += 1
        self.run_id += 1
        operation = None
        gc.collect()
        if tracer is not None:
            tracer.begin_run(self.run_id)
        try:
            operation = self.workload.new_operation()
            marks = []

            def timed_phase():
                start = time.perf_counter()
                operation.main()
                marks.append(time.perf_counter() - start)
                operation.report()
                marks.append(time.perf_counter() - start)

            before = self.reference_s()
            if tracer is None:
                timed_phase()
            else:
                tracer.root(timed_phase)
            reference = (before + self.reference_s()) / 2
            problems = self.check(operation, tracer)
            scale = self.nominal_s / reference
            sample = {"run": self.run_id, "units": operation.units, "reference_s": reference,
                      "main_wall_s": marks[0], "op_wall_s": marks[1],
                      "work_per_s": operation.units / (marks[0] * scale),
                      "report_s": (marks[1] - marks[0]) * scale, "op_s": marks[1] * scale,
                      "program": operation.program_counters()}
        except Exception as error:  # an operation that raises counts as failed
            problems = [f"raised {type(error).__name__}: {error}"]
        finally:
            if operation is not None:
                operation.close()
        if problems:
            self.failed += 1
            print(f"operation {self.run_id} failed: " + "; ".join(problems), file=sys.stderr)
            return None
        return sample

    def check(self, operation, tracer):
        from perfbench.layers import boundary_counts

        problems = list(operation.problems())
        digest = operation.digest()
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems.append(f"virtual-time digest {digest} != expected {self.expected}")
        if tracer is not None:
            profile = tracer.profile(self.run_id)
            silent = [layer for layer in operation.layers if not profile.layer_calls.get(layer)]
            if silent:
                problems.append(f"no calls into layers {silent}")
            if abs(sum(profile.self_s.values()) - profile.wall_s) > 1e-6 * profile.wall_s:
                problems.append(f"layer self times sum to {sum(profile.self_s.values())} s, "
                                f"the traced phase took {profile.wall_s} s")
            problems += operation.cross_check(
                profile.name_calls, boundary_counts(profile.name_calls, tracer.counters))
        return problems

    def until(self, deadline: float, samples: list, tracer=None, minimum: int = 1) -> None:
        while len(samples) < minimum or time.perf_counter() < deadline:
            sample = self.run(tracer)
            if sample is not None:
                samples.append(sample)
            elif self.failed >= 3 and not samples:
                return  # every operation fails: stop early, the result says so


# ------------------------------------------------------------------ metrics
def end_to_end(samples, setup_samples, nominal_s):
    """Medians over the run's operations (set-up: over its probes), with quartiles."""
    series = {
        "setup_s": [p["setup_s"] * nominal_s / p["reference_s"] for p in setup_samples],
        "work_per_s": [s["work_per_s"] for s in samples],
        "op_s": [s["op_s"] for s in samples],
    }
    for name, values in series.items():
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{name:<12} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
              f"({len(values)} samples)")
    values = {name: statistics.median(values) for name, values in series.items()}
    values["peak_rss_mb"] = setup_samples[0]["peak_rss_mb"]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, traced, untraced, nominal_s):
    """The per-layer table: per-operation means over the traced operations.

    Self seconds are normalized by the reference like every timing; calls
    and counters are exact and repeat on every operation of a seed.
    """
    from perfbench.layers import COUNTERS, LAYERS, boundary_counts, per_layer_metric_names

    count = len(traced)
    profiles = [tracer.profile(s["run"]) for s in traced]
    values = {}
    for layer in LAYERS:
        self_s = [p.self_s.get(layer, 0.0) for p in profiles]
        values[f"{layer}.calls"] = sum(p.layer_calls.get(layer, 0) for p in profiles) / count
        values[f"{layer}.self_s"] = sum(t * nominal_s / s["reference_s"]
                                        for t, s in zip(self_s, traced)) / count
        values[f"{layer}.share"] = sum(self_s) / sum(p.wall_s for p in profiles)

    counts = [boundary_counts(p.name_calls, tracer.run_counters.get(s["run"], {}))
              for p, s in zip(profiles, traced)]
    for name, _ in COUNTERS:
        source = [s["program"] for s in traced] if name in traced[0]["program"] else counts
        values[name] = sum(c.get(name, 0) for c in source) / count
    values["rollout.evalcache.hit_fraction"] = (sum(c.get("rollout.evalcache.hits", 0) for c in counts)
                                                / max(sum(c.get("rollout.evalcache.gets", 0)
                                                          for c in counts), 1))
    untraced_s = statistics.median(s["op_s"] for s in untraced)
    traced_s = statistics.median(s["op_s"] for s in traced)
    values["trace.untraced_op_s"] = untraced_s
    values["trace.untraced_report_s"] = statistics.median(s["report_s"] for s in untraced)
    values["trace.traced_op_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.spans_per_op"] = len(tracer.spans) / count
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metric_names()}


# --------------------------------------------------------------------- main
def measure(args, tmp_root: Path, results_dir: Path) -> dict:
    from perfbench.workloads import PIN_SEED, Workload, load_pins

    env = fingerprint()
    print("fingerprint: " + json.dumps(env, sort_keys=True))
    setup_samples = measure_setup(args.workload, args.seed, tmp_root) if not args.trace else []
    workload = Workload(args.workload, args.seed, tmp_root)
    runner = Runner(workload, load_pins() if args.seed == PIN_SEED else {})
    runner.run()  # warm-up: caches fill and lazy set-up finishes; checked, not timed
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": env}
    problems = []
    if not args.trace:
        samples = []
        runner.until(time.perf_counter() + args.seconds, samples, minimum=3)
        metrics = end_to_end(samples, setup_samples, runner.nominal_s) if samples else {}
        record.update(setup_samples=setup_samples, samples=samples)
    else:
        from perfbench.layers import ENTRY_POINTS
        from perfbench.tracer import Tracer

        untraced, traced = [], []
        start = time.perf_counter()
        runner.until(start + args.seconds / 2, untraced, minimum=2)
        tracer = Tracer()
        tracer.install(ENTRY_POINTS)
        try:
            runner.until(start + args.seconds, traced, tracer, minimum=2)
        finally:
            tracer.uninstall()
        leftovers = tracer.leftovers()
        if leftovers:
            problems.append(f"wrappers left installed: {leftovers}")
        metrics = per_layer(tracer, traced, untraced, runner.nominal_s) if traced and untraced else {}
        tracer.write_spans(results_dir / f"{args.workload}-seed{args.seed}-spans.csv.gz")
        record.update(untraced=untraced, traced=traced)
    for name, metric in metrics.items():
        print(f"{args.workload:>12} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = runner.attempted, runner.failed
    correct = failed == 0 and not problems and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return result


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    tmp_root = STATE_DIR / "tmp" / str(os.getpid())
    if args.setup_probe:  # before anything imports the program: imports are timed
        try:
            setup_probe(args.workload, args.seed, tmp_root, args.setup_probe)
        finally:
            shutil.rmtree(tmp_root, ignore_errors=True)
        return 0
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    try:
        results_dir = STATE_DIR / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        result = measure(args, tmp_root, results_dir)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
