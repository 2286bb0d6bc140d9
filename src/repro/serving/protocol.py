"""Wire protocol of the networked inference tier.

The serving split promotes :class:`~repro.rollout.inference.InferenceService`
from an in-process object to a client/server boundary: requests and replies
cross it as **framed byte messages**, exactly as they would cross a socket.
The simulation stays in virtual time — no real network I/O happens — but
every request is genuinely serialized by the client and deserialized by the
server (and vice versa for replies), so the protocol layer is exercised on
the hot path, message framing over a byte stream is testable with real
split/coalesced reads, and client and server can never share mutable state
by accident: a decode always builds fresh arrays and a fresh metadata dict.
That last property is load-bearing — ticket metadata is shared by reference
with the in-process service (see :meth:`InferenceService.submit`), so the
wire decode is what guarantees a retried request can never alias the
attribution of its previous attempt.

Frame layout (little-endian)::

    magic   4s   b"RLSV"
    version B    PROTOCOL_VERSION
    type    B    MSG_REQUEST | MSG_REPLY
    header  I    length of the JSON header in bytes
    payload Q    length of the raw array payload in bytes
    ---- header: UTF-8 JSON (scalar fields + array dtypes/shapes)
    ---- payload: raw C-order array bytes, arrays concatenated in header order

Requests carry a client id, a per-client request id, a retry attempt
counter, the client's send time, an optional absolute deadline and a block
of feature rows.  Replies carry a :data:`STATUS_OK` result (priors/values
rows plus queueing attribution) or a shed/error status the client can react
to (retry with backoff, or give up).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

MAGIC = b"RLSV"
PROTOCOL_VERSION = 1

MSG_REQUEST = 1
MSG_REPLY = 2

_HEADER_STRUCT = struct.Struct("<4sBBIQ")

#: Sanity caps on the declared lengths.  A corrupted length field under an
#: intact magic would otherwise read as an :class:`IncompleteFrame` and
#: stall the stream forever waiting for gigabytes that never come.
MAX_HEADER_BYTES = 1 << 20    # 1 MiB of JSON header
MAX_PAYLOAD_BYTES = 1 << 28   # 256 MiB of array payload

#: Reply statuses.  Everything except OK is an overload signal the client
#: may retry; the status names the defence that fired.
STATUS_OK = "ok"                      #: served; priors/values attached
STATUS_SHED_RATE = "shed-rate"        #: per-client token bucket denied admission
STATUS_SHED_QUEUE = "shed-queue"      #: bounded ingress queue was full
STATUS_SHED_DEADLINE = "shed-deadline"  #: request expired in the ingress queue
STATUSES = (STATUS_OK, STATUS_SHED_RATE, STATUS_SHED_QUEUE, STATUS_SHED_DEADLINE)
SHED_STATUSES = (STATUS_SHED_RATE, STATUS_SHED_QUEUE, STATUS_SHED_DEADLINE)


@dataclass
class EvalRequest:
    """One client -> server evaluation request."""

    request_id: int               #: unique per client (stable across retries)
    client_id: str
    features: np.ndarray          #: float32 [rows, feature_dim]
    attempt: int = 0              #: retry attempt (0 = first send)
    send_us: float = 0.0          #: client virtual clock at (this) send
    first_send_us: float = 0.0    #: client virtual clock at the first send
    deadline_us: Optional[float] = None  #: absolute; None = no deadline
    metadata: Dict = field(default_factory=dict)
    #: stable hash of the queried state (see ``Env.state_key``); lets the
    #: server answer repeats from its admission cache.  None = uncacheable.
    state_key: Optional[int] = None

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def key(self) -> Tuple[str, int]:
        """(client_id, request_id): the reply-routing key."""
        return (self.client_id, self.request_id)


@dataclass
class EvalReply:
    """One server -> client reply."""

    request_id: int
    client_id: str
    status: str
    priors: Optional[np.ndarray] = None   #: float32 [rows, num_moves] when OK
    values: Optional[np.ndarray] = None   #: float32 [rows] when OK
    queue_delay_us: float = 0.0           #: arrival -> batch-start delay
    completion_us: float = 0.0            #: virtual time the reply left the server
    replica: int = -1                     #: serving replica index (-1 when shed)
    detail: str = ""                      #: human-readable shed/error context

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def shed(self) -> bool:
        return self.status in SHED_STATUSES

    @property
    def key(self) -> Tuple[str, int]:
        return (self.client_id, self.request_id)


def _pack(msg_type: int, header: Dict, arrays: List[np.ndarray]) -> bytes:
    blobs = [np.ascontiguousarray(a).tobytes() for a in arrays]
    payload = b"".join(blobs)
    header = dict(header)
    header["arrays"] = [
        {"dtype": str(np.ascontiguousarray(a).dtype), "shape": list(a.shape)}
        for a in arrays
    ]
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _HEADER_STRUCT.pack(MAGIC, PROTOCOL_VERSION, msg_type,
                               len(header_bytes), len(payload)) + header_bytes + payload


def _unpack_arrays(header: Dict, payload: bytes) -> List[np.ndarray]:
    arrays = []
    offset = 0
    for spec in header.get("arrays", []):
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape)) if shape else dtype.itemsize
        # .copy() detaches from the frame buffer: decoded arrays are fresh,
        # writable, and share no memory with the sender's arrays.
        arrays.append(np.frombuffer(payload, dtype=dtype, count=int(np.prod(shape)),
                                    offset=offset).reshape(shape).copy())
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(f"payload length mismatch: consumed {offset} of {len(payload)} bytes")
    return arrays


class ProtocolError(ValueError):
    """A malformed, truncated or version-incompatible frame."""


def encode_request(request: EvalRequest) -> bytes:
    """Serialize a request into one wire frame."""
    features = np.asarray(request.features, dtype=np.float32)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ProtocolError(f"expected non-empty [rows, features] array, got shape {features.shape}")
    header = {
        "request_id": request.request_id,
        "client_id": request.client_id,
        "attempt": request.attempt,
        "send_us": request.send_us,
        "first_send_us": request.first_send_us,
        "deadline_us": request.deadline_us,
        "metadata": request.metadata,
    }
    if request.state_key is not None:
        # Only keyed requests carry the field: keyless frames stay
        # byte-identical to the pre-cache protocol.
        header["state_key"] = request.state_key
    return _pack(MSG_REQUEST, header, [features])


def encode_reply(reply: EvalReply) -> bytes:
    """Serialize a reply into one wire frame."""
    if reply.status not in STATUSES:
        raise ProtocolError(f"unknown reply status {reply.status!r}")
    arrays: List[np.ndarray] = []
    if reply.status == STATUS_OK:
        if reply.priors is None or reply.values is None:
            raise ProtocolError("an OK reply must carry priors and values")
        arrays = [np.asarray(reply.priors, dtype=np.float32),
                  np.asarray(reply.values, dtype=np.float32)]
    header = {
        "request_id": reply.request_id,
        "client_id": reply.client_id,
        "status": reply.status,
        "queue_delay_us": reply.queue_delay_us,
        "completion_us": reply.completion_us,
        "replica": reply.replica,
        "detail": reply.detail,
    }
    return _pack(MSG_REPLY, header, arrays)


def decode_message(data: bytes) -> Tuple[Union[EvalRequest, EvalReply], int]:
    """Decode one frame from the head of ``data``.

    Returns ``(message, bytes_consumed)``.  Raises :class:`ProtocolError` on
    a malformed frame and :class:`IncompleteFrame` when ``data`` holds only a
    prefix of a frame (a stream reader should wait for more bytes).
    """
    if len(data) < _HEADER_STRUCT.size:
        raise IncompleteFrame(_HEADER_STRUCT.size - len(data))
    magic, version, msg_type, header_len, payload_len = _HEADER_STRUCT.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"declared header length {header_len} exceeds cap")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"declared payload length {payload_len} exceeds cap")
    total = _HEADER_STRUCT.size + header_len + payload_len
    if len(data) < total:
        raise IncompleteFrame(total - len(data))
    header_bytes = data[_HEADER_STRUCT.size:_HEADER_STRUCT.size + header_len]
    payload = data[_HEADER_STRUCT.size + header_len:total]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame header: {exc}") from exc
    try:
        return _decode_fields(msg_type, header, payload), total
    except ProtocolError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        # A corrupted header can parse as JSON yet carry the wrong shape —
        # missing keys, bad dtypes, non-numeric fields.  Every such frame is
        # malformed, never a crash: stream readers resynchronize past it.
        raise ProtocolError(f"bad frame content: {exc!r}") from exc


def _decode_fields(msg_type: int, header: Dict, payload: bytes
                   ) -> Union["EvalRequest", "EvalReply"]:
    arrays = _unpack_arrays(header, payload)
    if msg_type == MSG_REQUEST:
        if len(arrays) != 1:
            raise ProtocolError(f"a request frame carries one array, got {len(arrays)}")
        message: Union[EvalRequest, EvalReply] = EvalRequest(
            request_id=int(header["request_id"]),
            client_id=str(header["client_id"]),
            features=arrays[0],
            attempt=int(header["attempt"]),
            send_us=float(header["send_us"]),
            first_send_us=float(header["first_send_us"]),
            deadline_us=None if header["deadline_us"] is None else float(header["deadline_us"]),
            metadata=dict(header["metadata"]),
            state_key=(None if header.get("state_key") is None
                       else int(header["state_key"])),
        )
    elif msg_type == MSG_REPLY:
        status = str(header["status"])
        if status not in STATUSES:
            raise ProtocolError(f"unknown reply status {status!r}")
        if status == STATUS_OK and len(arrays) != 2:
            raise ProtocolError(f"an OK reply carries two arrays, got {len(arrays)}")
        message = EvalReply(
            request_id=int(header["request_id"]),
            client_id=str(header["client_id"]),
            status=status,
            priors=arrays[0] if arrays else None,
            values=arrays[1] if len(arrays) > 1 else None,
            queue_delay_us=float(header["queue_delay_us"]),
            completion_us=float(header["completion_us"]),
            replica=int(header["replica"]),
            detail=str(header["detail"]),
        )
    else:
        raise ProtocolError(f"unknown message type {msg_type}")
    return message


class IncompleteFrame(Exception):
    """Raised by :func:`decode_message` when more bytes are needed."""

    def __init__(self, missing: int) -> None:
        super().__init__(f"frame incomplete: at least {missing} more bytes needed")
        self.missing = missing


class MessageStream:
    """Reassembles frames from an arbitrarily-chunked byte stream.

    A TCP connection delivers bytes, not messages: one ``recv`` may hold half
    a frame or three frames and a tail.  ``feed`` buffers incoming chunks and
    returns every complete message, in order, leaving any trailing partial
    frame buffered for the next feed.

    A malformed frame (corrupt magic, bad version, mangled header …) no
    longer poisons the stream: the reader counts it in ``corrupt_frames``,
    scans forward to the next occurrence of the magic bytes, and resumes
    decoding there — so one corrupted frame costs exactly that frame, not
    every frame after it.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Corruption incidents skipped by the resynchronization scan: a
        #: frame whose magic survived but whose content is invalid counts
        #: one, and a contiguous run of magic-less garbage counts one (its
        #: bytes are indistinguishable from the tail of the frame whose
        #: header was destroyed).
        self.corrupt_frames = 0
        self._skipping = False  #: inside a garbage run already counted

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Union[EvalRequest, EvalReply]]:
        self._buffer.extend(data)
        messages: List[Union[EvalRequest, EvalReply]] = []
        view = bytes(self._buffer)
        offset = 0
        while offset < len(view):
            try:
                message, consumed = decode_message(view[offset:])
            except IncompleteFrame:
                break
            except ProtocolError:
                at_magic = view[offset:offset + len(MAGIC)] == MAGIC
                if at_magic or not self._skipping:
                    self.corrupt_frames += 1
                self._skipping = True
                resync = view.find(MAGIC, offset + 1)
                if resync == -1:
                    # No further magic: drop everything but a possible
                    # partial-magic tail and wait for more bytes.
                    offset = max(offset + 1, len(view) - (len(MAGIC) - 1))
                    break
                offset = resync
                continue
            self._skipping = False
            messages.append(message)
            offset += consumed
        if offset:
            del self._buffer[:offset]
        return messages
