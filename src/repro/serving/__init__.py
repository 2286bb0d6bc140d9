"""repro.serving: the networked inference tier.

A message-based serving layer over :mod:`repro.rollout.inference`: a framed
wire protocol, a virtual-time server with per-client admission control and a
bounded ingress queue (block / shed-newest / shed-oldest / deadline-drop),
retrying clients, open-loop traffic models (Poisson / bursty MMPP / trace
replay), a deterministic event loop, and SLO reporting.  See the README's
"Networked serving" section for the tour.
"""

from .client import NO_RETRY, ClientStats, RetryPolicy, ServingClient, key_features
from .loadgen import (
    ArrivalProcess,
    BurstyProcess,
    LoadGenerator,
    PoissonProcess,
    TraceReplay,
)
from .protocol import (
    MSG_REPLY,
    MSG_REQUEST,
    PROTOCOL_VERSION,
    SHED_STATUSES,
    STATUS_OK,
    STATUS_SHED_DEADLINE,
    STATUS_SHED_QUEUE,
    STATUS_SHED_RATE,
    STATUSES,
    EvalReply,
    EvalRequest,
    IncompleteFrame,
    MessageStream,
    ProtocolError,
    decode_message,
    encode_reply,
    encode_request,
)
from .server import (
    OVERLOAD_BLOCK,
    OVERLOAD_DEADLINE_DROP,
    OVERLOAD_POLICIES,
    OVERLOAD_SHED_NEWEST,
    OVERLOAD_SHED_OLDEST,
    InferenceServer,
    ServerStats,
    TokenBucket,
    estimate_capacity_rows_per_sec,
)
from .simulation import ServingRunResult, run_serving
from .slo import DEFAULT_PERCENTILES, SLOReport, build_slo_report, percentiles

__all__ = [
    "ArrivalProcess",
    "BurstyProcess",
    "ClientStats",
    "DEFAULT_PERCENTILES",
    "EvalReply",
    "EvalRequest",
    "IncompleteFrame",
    "InferenceServer",
    "LoadGenerator",
    "MessageStream",
    "MSG_REPLY",
    "MSG_REQUEST",
    "NO_RETRY",
    "OVERLOAD_BLOCK",
    "OVERLOAD_DEADLINE_DROP",
    "OVERLOAD_POLICIES",
    "OVERLOAD_SHED_NEWEST",
    "OVERLOAD_SHED_OLDEST",
    "PoissonProcess",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RetryPolicy",
    "ServerStats",
    "ServingClient",
    "ServingRunResult",
    "SHED_STATUSES",
    "SLOReport",
    "STATUS_OK",
    "STATUS_SHED_DEADLINE",
    "STATUS_SHED_QUEUE",
    "STATUS_SHED_RATE",
    "STATUSES",
    "TokenBucket",
    "TraceReplay",
    "build_slo_report",
    "decode_message",
    "encode_reply",
    "encode_request",
    "estimate_capacity_rows_per_sec",
    "key_features",
    "percentiles",
    "run_serving",
]
