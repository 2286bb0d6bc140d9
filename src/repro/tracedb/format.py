"""On-disk format of a TraceDB store.

A store directory contains

* ``tracedb_index.json`` — one JSON index describing every worker's shard:
  the ordered list of chunk files with their :class:`ChunkMeta` (record
  counts, covered time range, phases and categories present), plus the
  worker's trace metadata.
* ``shard_<worker>_<seq>.jsonl.gz`` — gzip-compressed JSONL chunk files.
  Each line is one record: ``{"t": "e"|"o"|"m", ...}`` for stack events,
  operation annotations and overhead markers respectively.  Uncompressed
  stores use plain ``.jsonl`` chunks with the same lines.

Every chunk is indexed with its statistics, so a filtered scan can always
decide from the index alone whether to load it.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..profiler.events import Event, OverheadMarker

INDEX_FILE = "tracedb_index.json"
STORE_FORMAT = "tracedb-v1"
CHUNK_PREFIX = "shard"

#: Default number of buffered records before a shard flushes a chunk.
DEFAULT_CHUNK_EVENTS = 50_000

# Record type tags (one JSONL line per record).
RECORD_EVENT = "e"
RECORD_OPERATION = "o"
RECORD_MARKER = "m"


@dataclass(frozen=True)
class ChunkMeta:
    """Index entry for one (non-empty) chunk file."""

    file: str
    worker: str
    seq: int
    num_events: int
    num_operations: int
    num_markers: int
    start_us: float
    end_us: float
    phases: Tuple[str, ...]
    categories: Tuple[str, ...]

    # ------------------------------------------------------------- filtering
    def may_contain(
        self,
        *,
        phase: Optional[str] = None,
        categories: Optional[Sequence[str]] = None,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
    ) -> bool:
        """Whether the chunk can hold records matching the filters."""
        if phase is not None and phase not in self.phases:
            return False
        if categories is not None and not set(categories) & set(self.categories):
            return False
        if start_us is not None and self.end_us <= start_us:
            return False
        if end_us is not None and self.start_us >= end_us:
            return False
        return True

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "worker": self.worker,
            "seq": self.seq,
            "num_events": self.num_events,
            "num_operations": self.num_operations,
            "num_markers": self.num_markers,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "phases": list(self.phases),
            "categories": list(self.categories),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ChunkMeta":
        """Decode an index entry; unknown keys (such as the ``"legacy"``
        flag older stores carry) are ignored."""
        return cls(
            file=str(data["file"]),
            worker=str(data["worker"]),
            seq=int(data["seq"]),                              # type: ignore[arg-type]
            num_events=int(data["num_events"]),                # type: ignore[arg-type]
            num_operations=int(data["num_operations"]),        # type: ignore[arg-type]
            num_markers=int(data["num_markers"]),              # type: ignore[arg-type]
            start_us=float(data["start_us"]),                  # type: ignore[arg-type]
            end_us=float(data["end_us"]),                      # type: ignore[arg-type]
            phases=tuple(str(p) for p in data["phases"]),      # type: ignore[union-attr]
            categories=tuple(str(c) for c in data["categories"]),  # type: ignore[union-attr]
        )


@dataclass
class ChunkPayload:
    """Decoded contents of one chunk file."""

    events: List[Event] = field(default_factory=list)
    operations: List[Event] = field(default_factory=list)
    markers: List[OverheadMarker] = field(default_factory=list)


# ------------------------------------------------------------------- chunks
def chunk_filename(worker: str, seq: int, *, compress: bool = True) -> str:
    suffix = ".jsonl.gz" if compress else ".jsonl"
    return f"{CHUNK_PREFIX}_{worker}_{seq:05d}{suffix}"


def _open_chunk_for_write(path: Path, compress: bool):
    if not compress:
        return open(path, "wt", encoding="utf-8")
    # Pin the gzip header mtime so identical payloads produce identical
    # bytes — recovery paths compare stores byte-for-byte.
    return io.TextIOWrapper(
        gzip.GzipFile(path, "wb", mtime=0), encoding="utf-8")


def write_chunk(path: Path, payload: ChunkPayload, *, compress: bool = True) -> None:
    with _open_chunk_for_write(path, compress) as handle:
        for event in payload.events:
            handle.write(json.dumps({"t": RECORD_EVENT, **event.to_dict()}) + "\n")
        for op in payload.operations:
            handle.write(json.dumps({"t": RECORD_OPERATION, **op.to_dict()}) + "\n")
        for marker in payload.markers:
            handle.write(json.dumps({"t": RECORD_MARKER, **marker.to_dict()}) + "\n")


def read_chunk(path: Path) -> ChunkPayload:
    """Decode one ``.jsonl`` or ``.jsonl.gz`` chunk file."""
    name = path.name
    if name.endswith(".jsonl.gz"):
        opener = gzip.open
    elif name.endswith(".jsonl"):
        opener = open
    else:
        raise ValueError(f"not a TraceDB chunk (expected .jsonl or .jsonl.gz): {path}")
    payload = ChunkPayload()
    with opener(path, "rt", encoding="utf-8") as handle:  # type: ignore[operator]
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("t")
            if kind == RECORD_EVENT:
                payload.events.append(Event.from_dict(record))
            elif kind == RECORD_OPERATION:
                payload.operations.append(Event.from_dict(record))
            elif kind == RECORD_MARKER:
                payload.markers.append(OverheadMarker.from_dict(record))
            else:  # pragma: no cover - future format versions
                raise ValueError(f"unknown record type {kind!r} in {path}")
    return payload


def build_meta(file: str, worker: str, seq: int, payload: ChunkPayload) -> ChunkMeta:
    """Compute the index statistics for one (non-empty) chunk's records."""
    starts: List[float] = [e.start_us for e in payload.events]
    ends: List[float] = [e.end_us for e in payload.events]
    starts += [op.start_us for op in payload.operations]
    ends += [op.end_us for op in payload.operations]
    starts += [m.time_us for m in payload.markers]
    ends += [m.time_us for m in payload.markers]
    phases = {e.phase for e in payload.events} | {op.phase for op in payload.operations}
    phases |= {m.phase for m in payload.markers}
    categories = {e.category for e in payload.events}
    return ChunkMeta(
        file=file,
        worker=worker,
        seq=seq,
        num_events=len(payload.events),
        num_operations=len(payload.operations),
        num_markers=len(payload.markers),
        start_us=min(starts),
        end_us=max(ends),
        phases=tuple(sorted(phases)),
        categories=tuple(sorted(categories)),
    )


# -------------------------------------------------------------------- index
@dataclass
class WorkerEntry:
    """One worker's shard in the store index."""

    chunks: List[ChunkMeta] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)


def write_index(directory: Path, workers: Mapping[str, WorkerEntry]) -> None:
    """Atomically (re)write the store index."""
    index = {
        "format": STORE_FORMAT,
        "workers": {
            worker: {
                "chunks": [meta.to_dict() for meta in entry.chunks],
                "metadata": dict(entry.metadata),
            }
            for worker, entry in workers.items()
        },
    }
    path = directory / INDEX_FILE
    tmp = directory / (INDEX_FILE + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(index, handle, indent=2)
    os.replace(tmp, path)


def read_index(directory: Path) -> Dict[str, WorkerEntry]:
    """Read a store index; :class:`FileNotFoundError` when there is none."""
    index_path = directory / INDEX_FILE
    if not index_path.exists():
        raise FileNotFoundError(f"no TraceDB index found in {directory}")
    with open(index_path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return {
        worker: WorkerEntry(
            chunks=[ChunkMeta.from_dict(m) for m in entry.get("chunks", [])],
            metadata=dict(entry.get("metadata", {})),
        )
        for worker, entry in raw.get("workers", {}).items()
    }
