"""``rls-experiment``: regenerate a table or figure of the paper from the command line.

Flags follow the experiment name, and each experiment accepts only its own
flags (``rls-experiment <experiment> --help`` lists them).  Examples::

    rls-experiment table1
    rls-experiment fig4 --algo TD3 --timesteps 150
    rls-experiment fig5
    rls-experiment fig8
    rls-experiment fig11a --timesteps 100
    rls-experiment batchsweep --leaf-batches 1,4,16,64
    rls-experiment schedsweep --workers 8 --leaf-batches 1,4,8
    rls-experiment schedsweep --flush-policy timeout --timeout-us 500
    rls-experiment schedsweep --replicas 2 --routing least-loaded
    rls-experiment replicasweep --replicas 1,2,4 --workers 8
    rls-experiment fig8 --scheduler event --replicas 2
    rls-experiment servesweep --rates 0.5,2.0 --clients 256 --replicas 1,2
    rls-experiment servesweep --arrival bursty --overloads shed-newest,block
    rls-experiment servesweep --quick   # CI smoke: small trace, fast
    rls-experiment zoosweep --sims Pong,Hopper --algos DQN,PPO
    rls-experiment zoosweep --worker-counts 4,8 --replicas 1,2
    rls-experiment zoosweep --quick     # CI smoke: 2 sims, 1 worker count
    rls-experiment cachesweep --worker-counts 4,8 --replicas 1,2
    rls-experiment cachesweep --quick   # CI smoke: 1 cell, cache off vs on
    rls-experiment faultsweep --fault-rates 0,150 --replicas 4
    rls-experiment faultsweep --quick   # CI smoke: fault-free vs one faulty cell
    rls-experiment findings          # run everything and check F.1-F.12
"""

from __future__ import annotations

import argparse
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple

from . import (
    findings,
    run_batch_sweep,
    run_cache_sweep,
    run_fault_sweep,
    run_fig4,
    run_fig5,
    run_fig7,
    run_fig8,
    run_fig11a,
    run_fig11b,
    run_replica_sweep,
    run_sched_sweep,
    run_serve_sweep,
    run_table1,
    run_zoo_sweep,
    table1,
)
from ..minigo.workers import SCHEDULERS
from ..rl.zoo import ZOO_ALGORITHMS
from ..rollout.inference import FLUSH_POLICIES, FLUSH_TIMEOUT, ROUTING_POLICIES
from ..serving import OVERLOAD_POLICIES
from ..sim import registry
from .common import DEFAULT_TIMESTEPS
from .faultsweep import DEFAULT_FAULT_POLICIES
from .servesweep import SERVE_ARRIVALS


def _comma_list(noun: str, convert: Callable[[str], Any] = str, *, choices=None,
                allow_zero: bool = False, single: bool = False):
    """argparse type: comma-separated ``noun`` — names from ``choices``, or
    positive (``allow_zero``: non-negative) numbers; ``single`` takes one value."""
    def parse(text: str):
        try:
            values = tuple(convert(value.strip()) for value in text.split(",") if value.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
        if choices is not None:
            bad = [value for value in values if value not in choices]
            if bad:
                raise argparse.ArgumentTypeError(
                    f"unknown {noun} {bad}; choose from {', '.join(choices)}")
        elif any(value < 0 or (value == 0 and not allow_zero) for value in values):
            raise argparse.ArgumentTypeError(
                f"{noun} must be {'non-negative' if allow_zero else 'positive'}, got {text!r}")
        if single and len(values) > 1:
            raise argparse.ArgumentTypeError(f"expected a single value for {noun}, got {text!r}")
        return values[0] if single else values
    return parse


#: Every flag, keyed by the run option it sets: (flag, add_argument kwargs).
ARGS = {
    "seed": ("--seed", dict(type=int, help="random seed (default: 0)")),
    "timesteps": ("--timesteps", dict(type=int, help="steps per workload")),
    "steps_per_worker": ("--timesteps", dict(type=int, help="env steps per worker")),
    "algo": ("--algo", dict(help="algorithm of the panel (TD3 or DDPG; default: TD3)")),
    "scheduler": ("--scheduler", dict(choices=SCHEDULERS,
                                      help="self-play scheduler (event implies batched inference)")),
    "leaf_batches": ("--leaf-batches", dict(type=_comma_list("leaf batch sizes", int),
                                            help="comma-separated leaf batch sizes")),
    "leaf_batch": ("--leaf-batches", dict(type=_comma_list("leaf batch sizes", int, single=True),
                                          help="one leaf batch size")),
    "num_workers": ("--workers", dict(type=int, help="self-play workers")),
    "worker_counts": ("--worker-counts", dict(type=_comma_list("worker counts", int),
                                              help="comma-separated worker counts")),
    "num_replicas": ("--replicas", dict(type=_comma_list("replica counts", int, single=True),
                                        help="one inference replica count")),
    "replica_counts": ("--replicas", dict(type=_comma_list("replica counts", int),
                                          help="comma-separated inference replica counts")),
    "routing": ("--routing", dict(choices=ROUTING_POLICIES, help="replica routing policy")),
    "flush_policy": ("--flush-policy", dict(choices=FLUSH_POLICIES,
                                            help="how the event-driven scheduler departs "
                                                 "inference batches")),
    "flush_timeout_us": ("--timeout-us", dict(type=float,
                                              help="partial-batch deadline in virtual us "
                                                   "(flush policy 'timeout')")),
    "multipliers": ("--rates", dict(type=_comma_list("rate multipliers", float),
                                    help="arrival rates as comma-separated multiples of "
                                         "measured capacity")),
    "num_clients": ("--clients", dict(type=int, help="synthetic client count")),
    "arrival": ("--arrival", dict(choices=SERVE_ARRIVALS, help="arrival process")),
    "overloads": ("--overloads", dict(type=_comma_list("overload policies",
                                                       choices=("none", *OVERLOAD_POLICIES)),
                                      help="comma-separated overload policies")),
    "sims": ("--sims", dict(type=_comma_list("simulators",
                                             choices=registry.available_simulators()),
                            help="comma-separated simulators")),
    "algorithms": ("--algos", dict(type=_comma_list("algorithm families",
                                                    choices=tuple(ZOO_ALGORITHMS)),
                                   help="comma-separated algorithm families")),
    "trace_dir": ("--trace-dir", dict(help="stream every batched cell's profiler trace "
                                           "into per-cell TraceDB directories under this path")),
    "evaluation_games": ("--eval-games", dict(type=_comma_list("evaluation game counts", int),
                                              help="comma-separated evaluation-round sizes")),
    "crash_rates": ("--fault-rates", dict(type=_comma_list("fault rates", float, allow_zero=True),
                                          help="comma-separated replica crash rates per "
                                               "virtual second; 0 is the fault-free control")),
    "policies": ("--fault-policies", dict(type=_comma_list("fault policies",
                                                           choices=DEFAULT_FAULT_POLICIES),
                                          help="comma-separated admission arms")),
}


@dataclass(frozen=True)
class Experiment:
    """One subcommand: its report function and the ``ARGS`` options it takes."""

    help: str
    run: Callable[..., str]                   #: options -> report text
    options: Tuple[str, ...] = ()
    quick: Optional[Mapping[str, Any]] = None  #: the ``--quick`` grid (CI smoke)
    out: Optional[str] = None                  #: default ``--out`` report path


def _report(run: Callable[..., Any]) -> Callable[..., str]:
    return lambda **options: run(**options).report()


def _replica_sweep(num_workers=None, routing=None, flush_policy=None, **options) -> str:
    """``--workers``/``--routing`` pin one grid value; a non-timeout
    ``--flush-policy`` drops the default partial-batch timeout."""
    if num_workers is not None:
        options["worker_counts"] = (num_workers,)
    if routing is not None:
        options["routings"] = (routing,)
    if flush_policy is not None:
        options["flush_policy"] = flush_policy
        if flush_policy != FLUSH_TIMEOUT:
            options.setdefault("flush_timeout_us", None)
    return run_replica_sweep(**options).report()


def _findings(timesteps: int = DEFAULT_TIMESTEPS, seed: int = 0) -> str:
    checks = findings.check_all(
        fig4_td3=run_fig4("TD3", timesteps=timesteps, seed=seed),
        fig4_ddpg=run_fig4("DDPG", timesteps=timesteps, seed=seed),
        fig5=run_fig5(timesteps=timesteps, seed=seed),
        fig7=run_fig7(timesteps=timesteps, seed=seed),
        fig8=run_fig8())
    return "\n".join(str(finding) for finding in checks.values())


_WORKLOAD = ("timesteps", "seed")

EXPERIMENTS = {
    "table1": Experiment("Table 1: RL framework configurations",
                         lambda: table1.report(run_table1())),
    "fig4": Experiment("Figure 4: RL framework comparison", _report(run_fig4),
                       ("algo", *_WORKLOAD)),
    "fig5": Experiment("Figure 5: RL algorithm survey", _report(run_fig5), _WORKLOAD),
    "fig7": Experiment("Figure 7: simulator survey", _report(run_fig7), _WORKLOAD),
    "fig8": Experiment("Figure 8: Minigo multi-process view", _report(run_fig8),
                       ("scheduler", "flush_policy", "flush_timeout_us", "num_replicas",
                        "routing")),
    "fig11a": Experiment("Figure 11a: overhead correction across algorithms",
                         _report(run_fig11a), _WORKLOAD),
    "fig11b": Experiment("Figure 11b: overhead correction across simulators",
                         _report(run_fig11b), _WORKLOAD),
    "batchsweep": Experiment("batched inference vs per-leaf evaluation",
                             _report(run_batch_sweep), ("leaf_batches", "seed")),
    "schedsweep": Experiment("sequential vs event-driven pool scheduler",
                             _report(run_sched_sweep),
                             ("leaf_batches", "num_workers", "num_replicas", "routing",
                              "flush_policy", "flush_timeout_us", "seed")),
    "replicasweep": Experiment("sharded inference over replicas x workers x routing",
                               _replica_sweep,
                               ("replica_counts", "num_workers", "routing", "leaf_batch",
                                "flush_policy", "flush_timeout_us", "seed")),
    "servesweep": Experiment(
        "serving tier under open-loop overload", _report(run_serve_sweep),
        ("multipliers", "overloads", "replica_counts", "num_clients", "arrival", "seed"),
        quick=dict(multipliers=(0.5, 2.0), overloads=("none", "shed-newest"),
                   replica_counts=(1,), num_clients=64, horizon_us=10_000.0),
        out="results/serve_sweep.txt"),
    "zoosweep": Experiment(
        "every sim x algorithm through the batched rollout stack", _report(run_zoo_sweep),
        ("sims", "algorithms", "worker_counts", "replica_counts", "steps_per_worker",
         "trace_dir", "seed"),
        quick=dict(sims=("Pong", "Hopper"), worker_counts=(4,), replica_counts=(1,),
                   steps_per_worker=6),
        out="results/zoo_sweep.txt"),
    "cachesweep": Experiment(
        "evaluation cache off vs on", _report(run_cache_sweep),
        ("worker_counts", "replica_counts", "evaluation_games", "seed"),
        quick=dict(worker_counts=(2,), replica_counts=(1,), evaluation_games=(2,),
                   max_moves=4),
        out="results/cache_sweep.txt"),
    "faultsweep": Experiment(
        "serving tier under injected replica faults", _report(run_fault_sweep),
        ("crash_rates", "policies", "replica_counts", "num_clients", "seed"),
        quick=dict(crash_rates=(0.0, 150.0), replica_counts=(4,), num_clients=64,
                   horizon_us=15_000.0),
        out="results/fault_sweep.txt"),
    "findings": Experiment("run everything and check findings F.1-F.12", _findings,
                           _WORKLOAD),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rls-experiment", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="experiment", metavar="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=experiment.help, description=experiment.help)
        for option in experiment.options:
            flag, kwargs = ARGS[option]
            sub.add_argument(flag, dest=option, **kwargs)
        if experiment.quick is not None:
            sub.add_argument("--quick", action="store_true",
                             help="smoke mode: a small grid (the CI configuration)")
        if experiment.out is not None:
            sub.add_argument("--out", default=experiment.out,
                             help=f"also write the report to this path "
                                  f"(default: {experiment.out})")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    experiment = EXPERIMENTS[args.experiment]
    options = {name: getattr(args, name) for name in experiment.options
               if getattr(args, name) is not None}
    if getattr(args, "quick", False):
        options = {**experiment.quick, **options}
    text = experiment.run(**options)
    print(text)
    if experiment.out is not None:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
