"""Experiment harness: regenerates every table and figure of the paper's evaluation."""

from .common import (
    DEFAULT_TIMESTEPS,
    WorkloadRun,
    WorkloadSpec,
    calibrate_workload,
    calibration_runner,
    run_workload,
)
from .batchsweep import (
    DEFAULT_LEAF_BATCHES,
    run_batch_sweep,
)
from .schedsweep import (
    DEFAULT_SCHED_LEAF_BATCHES,
    DEFAULT_SCHED_WORKERS,
    run_sched_sweep,
)
from .replicasweep import (
    DEFAULT_REPLICA_COUNTS,
    DEFAULT_REPLICA_ROUTINGS,
    DEFAULT_REPLICA_WORKERS,
    inference_bound_cost_config,
    run_replica_sweep,
)
from .cachesweep import (
    DEFAULT_CACHE_EVAL_GAMES,
    DEFAULT_CACHE_KWARGS,
    DEFAULT_CACHE_REPLICAS,
    DEFAULT_CACHE_WORKERS,
    run_cache_sweep,
)
from .faultsweep import (
    DEFAULT_FAULT_KWARGS,
    DEFAULT_FAULT_POLICIES,
    DEFAULT_FAULT_RATES,
    DEFAULT_FAULT_REPLICAS,
    run_fault_sweep,
)
from .servesweep import (
    DEFAULT_SERVE_KWARGS,
    DEFAULT_SERVE_MULTIPLIERS,
    DEFAULT_SERVE_OVERLOADS,
    DEFAULT_SERVE_REPLICAS,
    SERVE_ARRIVALS,
    run_serve_sweep,
)
from .zoosweep import (
    DEFAULT_ZOO_ALGOS,
    DEFAULT_ZOO_REPLICAS,
    DEFAULT_ZOO_SIMS,
    DEFAULT_ZOO_STEPS,
    DEFAULT_ZOO_WORKERS,
    run_zoo_sweep,
)
from .fig4 import FRAMEWORKS_BY_ALGO, Fig4Result, run_fig4
from .fig5 import SURVEY_ALGORITHMS, Fig5Result, run_fig5
from .fig7 import SURVEY_SIMULATORS, Fig7Result, run_fig7
from .fig8 import DEFAULT_MINIGO_CONFIG, Fig8Result, run_fig8
from .fig11 import (
    DEFAULT_FIG11_TIMESTEPS,
    FIG11A_ALGORITHMS,
    FIG11B_SIMULATORS,
    CorrectionValidation,
    Fig11Result,
    run_fig11a,
    run_fig11b,
    validate_workload,
)
from .findings import Finding, check_all
from .table1 import Table1Row, run_table1
from . import findings, table1

__all__ = [
    "DEFAULT_TIMESTEPS",
    "WorkloadRun",
    "WorkloadSpec",
    "calibrate_workload",
    "calibration_runner",
    "run_workload",
    "DEFAULT_LEAF_BATCHES",
    "run_batch_sweep",
    "DEFAULT_SCHED_LEAF_BATCHES",
    "DEFAULT_SCHED_WORKERS",
    "run_sched_sweep",
    "DEFAULT_REPLICA_COUNTS",
    "DEFAULT_REPLICA_ROUTINGS",
    "DEFAULT_REPLICA_WORKERS",
    "inference_bound_cost_config",
    "run_replica_sweep",
    "DEFAULT_CACHE_EVAL_GAMES",
    "DEFAULT_CACHE_KWARGS",
    "DEFAULT_CACHE_REPLICAS",
    "DEFAULT_CACHE_WORKERS",
    "run_cache_sweep",
    "DEFAULT_FAULT_KWARGS",
    "DEFAULT_FAULT_POLICIES",
    "DEFAULT_FAULT_RATES",
    "DEFAULT_FAULT_REPLICAS",
    "run_fault_sweep",
    "DEFAULT_SERVE_KWARGS",
    "DEFAULT_SERVE_MULTIPLIERS",
    "DEFAULT_SERVE_OVERLOADS",
    "DEFAULT_SERVE_REPLICAS",
    "SERVE_ARRIVALS",
    "run_serve_sweep",
    "DEFAULT_ZOO_ALGOS",
    "DEFAULT_ZOO_REPLICAS",
    "DEFAULT_ZOO_SIMS",
    "DEFAULT_ZOO_STEPS",
    "DEFAULT_ZOO_WORKERS",
    "run_zoo_sweep",
    "FRAMEWORKS_BY_ALGO",
    "Fig4Result",
    "run_fig4",
    "SURVEY_ALGORITHMS",
    "Fig5Result",
    "run_fig5",
    "SURVEY_SIMULATORS",
    "Fig7Result",
    "run_fig7",
    "DEFAULT_MINIGO_CONFIG",
    "Fig8Result",
    "run_fig8",
    "DEFAULT_FIG11_TIMESTEPS",
    "FIG11A_ALGORITHMS",
    "FIG11B_SIMULATORS",
    "CorrectionValidation",
    "Fig11Result",
    "run_fig11a",
    "run_fig11b",
    "validate_workload",
    "Finding",
    "check_all",
    "Table1Row",
    "run_table1",
    "findings",
    "table1",
]
