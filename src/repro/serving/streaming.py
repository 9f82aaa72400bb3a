"""Streamed series spool: append-only on-disk chunks for memory-bounded runs.

A long serving run is dominated in memory by its per-query arrays (the
latency tracker's completion/latency buffers, one float64 pair per query) —
a 24-hour million-user day is O(10^8) queries, two orders of magnitude past
what one process can hold.  The *spool* bounds that: the engine flushes
per-query buffers and per-interval series to numbered, append-only ``.npz``
chunk files as the run progresses, and the merge step
(:func:`repro.serving.sharding.merge_stream`) reads the chunks back —
one tenant at a time — to reconstruct the exact in-memory
:class:`~repro.serving.engine.SimulationResult` the unstreamed run would
have produced.  Bit-exactness is the contract: streaming moves bytes, it
never changes them.

Spool layout (one directory per sharded run)::

    <stream_dir>/
      meta.json                  # run manifest: shard count, tenant names
      shard-000/
        meta.json                # shard manifest: status, tenants, capacity
        cluster-000000.npz       # cluster-probe point chunks
        tenant-000/
          meta.json              # tenant scalars (written last: commit marker)
          queries-000000.npz     # tracker spills: completion times + latencies
          queries-000001.npz
          series-000000.npz      # per-interval series chunks

Durability discipline: every chunk is written to a ``*.tmp`` sibling and
atomically renamed into place, and every ``meta.json`` is written *after*
the data it describes — so a worker crash leaves at most one ``*.tmp``
orphan (ignored by readers) or a directly truncated final chunk (detected
on read).  :func:`iter_chunks` raises :class:`SpoolTruncatedError` on a
corrupt chunk by default; ``recover=True`` salvages the intact prefix
instead, which is what crash-recovery tooling wants.
"""

from __future__ import annotations

import io
import json
import os
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "SpoolError",
    "SpoolTruncatedError",
    "StreamConfig",
    "SpoolWriter",
    "claim_spool",
    "iter_chunks",
    "chunk_paths",
    "read_meta",
]

_CHUNK_PATTERN = re.compile(r"^(?P<stream>[a-z]+)-(?P<index>\d{6})\.npz$")

#: Spool files a worker may write, in one place so readers and writers agree.
META_NAME = "meta.json"


class SpoolError(RuntimeError):
    """The spool is structurally unusable (missing manifests, bad layout)."""


class SpoolTruncatedError(SpoolError):
    """A chunk file is corrupt or truncated (typically a crash mid-write)."""


@dataclass(frozen=True)
class StreamConfig:
    """How a run streams its series to disk.

    ``directory`` is the *shard* directory the engine writes into; the
    executor allocates one per worker under the run's ``stream_dir``.
    ``spill_threshold`` is the tracker-sample count that triggers a
    per-query chunk flush (larger: fewer, bigger chunks);
    ``flush_series_every`` is the number of sample intervals batched into
    one series chunk.
    """

    directory: Path
    spill_threshold: int = 1 << 18
    flush_series_every: int = 512

    def __post_init__(self) -> None:
        object.__setattr__(self, "directory", Path(self.directory))
        if self.spill_threshold < 1:
            raise ValueError("spill_threshold must be at least 1")
        if self.flush_series_every < 1:
            raise ValueError("flush_series_every must be at least 1")


class SpoolWriter:
    """Appends numbered ``.npz`` chunks (and one ``meta.json``) to a directory.

    One writer per directory; chunk streams are named (``queries``,
    ``series``, ``cluster``) and numbered independently.  Writes are
    write-to-temp-then-rename, so readers never observe a half-written
    chunk under its final name.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._counters: dict[str, int] = {}

    def append(self, stream: str, **arrays: np.ndarray) -> Path:
        """Write one chunk of ``stream`` and return its final path."""
        if not arrays:
            raise ValueError("a chunk needs at least one array")
        index = self._counters.get(stream, 0)
        path = self.directory / f"{stream}-{index:06d}.npz"
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        temp = path.with_name(path.name + ".tmp")
        temp.write_bytes(buffer.getvalue())
        os.replace(temp, path)
        self._counters[stream] = index + 1
        return path

    def write_meta(self, meta: dict) -> Path:
        """Atomically write the directory's ``meta.json`` (the commit marker)."""
        path = self.directory / META_NAME
        temp = path.with_name(path.name + ".tmp")
        temp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        os.replace(temp, path)
        return path


def claim_spool(directory: str | Path) -> Path:
    """Create a run's spool directory, refusing one that already holds files.

    Chunks are numbered from zero and read back by name, so chunks left by
    an earlier run would silently merge into this one.  An absent or empty
    directory is accepted; creating it here surfaces an unusable path as an
    ``OSError`` before any worker starts.
    """
    directory = Path(directory)
    if directory.is_dir() and any(directory.iterdir()):
        raise SpoolError(
            f"{directory}: spool directory is not empty; pass a new or empty one"
        )
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def chunk_paths(directory: str | Path, stream: str) -> list[Path]:
    """The stream's chunk files in index order (``*.tmp`` orphans ignored)."""
    directory = Path(directory)
    found = {}
    if not directory.is_dir():
        return []
    for entry in directory.iterdir():
        match = _CHUNK_PATTERN.match(entry.name)
        if match and match.group("stream") == stream:
            found[int(match.group("index"))] = entry
    indices = sorted(found)
    # Chunk numbering is dense by construction; a gap means a chunk vanished
    # (not a crash tail, which only ever truncates the *last* chunk).
    for position, index in enumerate(indices):
        if position != index:
            raise SpoolError(
                f"{directory}: chunk stream {stream!r} is missing chunk "
                f"{position:06d} (found indices {indices})"
            )
    return [found[index] for index in indices]


def _load_chunk(path: Path) -> dict[str, np.ndarray]:
    try:
        with np.load(path) as data:
            return {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, KeyError) as error:
        raise SpoolTruncatedError(
            f"{path}: corrupt or truncated chunk ({error}); a crash mid-write "
            "leaves at most one of these at the end of a stream — re-read "
            "with recover=True to salvage the intact prefix"
        ) from None


def iter_chunks(
    directory: str | Path, stream: str, recover: bool = False
) -> Iterator[dict[str, np.ndarray]]:
    """Yield the stream's chunks in order.

    With ``recover=False`` (the default) a corrupt chunk raises
    :class:`SpoolTruncatedError`.  With ``recover=True`` a corrupt *final*
    chunk is dropped (the crash-mid-spool case) and the intact prefix is
    yielded; a corrupt chunk followed by intact ones still raises, because
    that is data corruption, not a crash tail.
    """
    paths = chunk_paths(directory, stream)
    for position, path in enumerate(paths):
        try:
            yield _load_chunk(path)
        except SpoolTruncatedError:
            if recover and position == len(paths) - 1:
                return
            raise


def read_meta(directory: str | Path, what: str = "spool directory") -> dict:
    """The directory's ``meta.json``; a missing one marks an incomplete write."""
    path = Path(directory) / META_NAME
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise SpoolError(
            f"{directory}: no {META_NAME} — the {what} was never completed "
            "(worker crash?); nothing to merge here"
        ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise SpoolError(f"{path}: unreadable manifest ({error})") from None
