"""Crash-safe streaming result sink: the one durable store of a sweep.

A sweep run with a stream directory **appends** every completed grid point
to an on-disk segment file as one self-validating record, durable up to a
configurable fsync cadence.  The directory is the only thing a resume reads
— a ``kill -9`` at any byte offset resumes from exactly what reached the
disk — and the merged table is produced by a **streaming** k-way merge
whose memory is O(segments), not O(points), so 10⁴–10⁶-point grids never
have to fit in memory.

Record format (one per line, "length-prefixed-and-checksummed JSONL")::

    llllllll cccccccc {"schema_version":2,"index":4,...}\n
    ^8-hex   ^8-hex   ^payload: compact JSON, CRC32 = cccccccc,
    payload          exactly llllllll bytes, newline-terminated
    length

A record's payload (:func:`point_run_to_payload`) holds the point's
``index``, axis ``values``, ``label``, ``elapsed_seconds``, its resolved
single-point ``spec`` — once — and one :meth:`RunResult.to_dict` per
repetition.  Each result leaves out ``metadata["spec"]`` and writes its
``history`` as columns: one list per
:class:`~repro.core.metrics.RoundRecord` field, in field order.
:func:`point_run_from_payload` re-attaches the spec to every result, so a
decoded point equals the one the runner produced.  A sink reads only its
own :data:`SINK_SCHEMA`; a directory written under another schema raises
:class:`SinkError` and must be re-run into a fresh directory.

The fixed-width header makes every record self-delimiting, and the CRC
makes torn tails *detectable at the exact byte*: on open, a sink scans each
segment, keeps every record that validates, and truncates the file at the
first byte of the first invalid record — the torn bytes are quarantined to
``<segment>.torn`` for post-mortems, never silently dropped.  A sweep
killed with ``SIGKILL`` at any byte offset therefore resumes from exactly
the set of records that reached the disk.

Segments and the write-ahead manifest
-------------------------------------

Records are appended to **segment files** (``segment-0000.jsonl``, ...).
Within one segment, grid indices are strictly ascending: when a record
arrives out of order (parallel sweeps complete points out of order), the
sink seals the active segment and rolls a new one, so every segment is a
sorted run and :func:`merge_streams` is a true heap merge holding one
record per segment.  Each new segment is registered in the sink's
**manifest** (``manifest.json``) *before* its first byte is written; the
manifest commit is an atomic rename followed by a directory fsync
(:func:`~repro.dist.durability.atomic_write_text`), and it carries the
scenario's :func:`spec_fingerprint` so a stream directory can only ever be
resumed by the exact scenario that produced it.

Shards and reassembly
---------------------

Sharded sweeps write disjoint manifests (``manifest-<tag>.json`` with
``segment-<tag>-*.jsonl``), so hosts can share one collection directory or
combine theirs with ``rsync``.  An untagged sink opened with ``resume=True``
**adopts** every tagged manifest it finds: their records count as
recovered and their segments join the merge, so one unsharded resume pass
reassembles the whole grid without re-running anything.  Adoption is
read-only — a shard on a shared filesystem may still be writing — so a
torn tail in another tag's segment is an error naming the shard resume
that repairs it, never something this sink truncates.

Durability and degradation
--------------------------

``fsync_every=N`` fsyncs the active segment after every N appended records
(default 1: every completed point is durable before the sweep moves on).
A *transient* fsync failure is retried at the next cadence point and
surfaces as :class:`SinkWriteError` only if it still fails at close;
``ENOSPC`` — from a write or an fsync — is not transient: the sink rolls
the segment back to its last record boundary, fsyncs what fits, and raises
:class:`SinkFullError` naming the directory, leaving everything written so
far durable and resumable.
"""

from __future__ import annotations

import errno
import hashlib
import heapq
import json
import logging
import os
import re
import zlib
from dataclasses import replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import ConfigurationError, ReproError
from ..core.metrics import RunResult
from ..spec.run import PointRun
from ..spec.scenario import ScenarioSpec
from .durability import PathLike, atomic_write_text, fsync_dir, fsync_fileobj

__all__ = [
    "SINK_SCHEMA",
    "SinkError",
    "SinkFullError",
    "SinkWriteError",
    "spec_fingerprint",
    "encode_record",
    "iter_records",
    "scan_segment",
    "StreamingResultSink",
    "merge_streams",
    "stream_payloads",
    "point_run_to_payload",
    "point_run_from_payload",
    "streamed_table",
]

logger = logging.getLogger("repro.dist")

#: Version stamped into every record and manifest; bumped on breaking changes.
#: A sink reads exactly this version: there is one decoder.
SINK_SCHEMA = 2

#: ``{length:08x} {crc32:08x} `` — 8 hex digits, space, 8 hex digits, space.
_HEADER_BYTES = 18
_HEADER_RE = re.compile(rb"^[0-9a-f]{8} [0-9a-f]{8} $")


class SinkError(ReproError):
    """A streaming result sink is inconsistent or was misused."""


class SinkWriteError(SinkError):
    """A sink write or fsync failed and could not be retried successfully."""


class SinkFullError(SinkError):
    """The sink's filesystem is out of space (``ENOSPC``).

    Everything appended before the failure has been flushed and fsynced, so
    the stream directory is left durable and **resumable**: free space (or
    point the resume at a larger volume and copy the directory), then re-run
    with ``resume=True`` — completed points are not re-executed.
    """

    def __init__(self, directory: PathLike, index: Optional[int] = None) -> None:
        self.directory = str(directory)
        self.index = index
        at_point = f" while streaming point {index}" if index is not None else ""
        super().__init__(
            f"stream directory {self.directory} is out of disk space"
            f"{at_point}; everything already appended is durable — free "
            "space and resume with the same directory (resume=True, "
            "CLI: --resume)"
        )


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """A stable content hash of the full-grid scenario spec.

    Key-sorted canonical JSON hashed with SHA-256: two specs fingerprint
    equal iff their serialised forms are identical, so a stream directory
    can only be resumed by the exact scenario that produced it.
    """
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- record framing --------------------------------------------------------------


def encode_record(payload: Dict[str, object]) -> bytes:
    """Frame one point payload as a length-prefixed, CRC32-checksummed line."""
    record = {"schema_version": SINK_SCHEMA, **payload}
    body = json.dumps(record, separators=(",", ":")).encode("utf-8")
    header = b"%08x %08x " % (len(body), zlib.crc32(body) & 0xFFFFFFFF)
    return header + body + b"\n"


def _check_schema(version: object, what: str) -> None:
    """Refuse a record or manifest of any schema but :data:`SINK_SCHEMA`."""
    if version != SINK_SCHEMA:
        raise SinkError(
            f"{what} was written by sink schema {version!r}; this build reads "
            f"schema {SINK_SCHEMA} only — re-run the sweep into a fresh "
            "stream directory"
        )


def _read_record(handle) -> Optional[Dict[str, object]]:
    """Read and validate one record; ``None`` = invalid/torn from here on.

    Raises ``StopIteration``-style by returning ``None`` for *any* framing
    defect — short header, malformed header, short payload, missing
    newline, CRC mismatch, or unparsable JSON — because an append-only file
    written through :func:`encode_record` can only be damaged at its tail.
    """
    header = handle.read(_HEADER_BYTES)
    if len(header) == 0:
        raise EOFError  # clean end of segment
    if len(header) < _HEADER_BYTES or not _HEADER_RE.match(header):
        return None
    length = int(header[:8], 16)
    crc = int(header[9:17], 16)
    body = handle.read(length + 1)
    if len(body) != length + 1 or body[-1:] != b"\n":
        return None
    body = body[:-1]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(body)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or "index" not in record:
        return None
    _check_schema(record.get("schema_version"), "stream record")
    return record


def iter_records(path: PathLike) -> Iterator[Dict[str, object]]:
    """Yield the validated record payloads of one segment file, in order.

    Strict: an invalid (torn) record raises :class:`SinkError` — read-only
    consumers must not guess past damage.  Open the directory through
    :class:`StreamingResultSink` (``resume=True``) first to repair torn
    tails; after recovery every segment iterates cleanly.
    """
    source = Path(path)
    with source.open("rb") as handle:
        while True:
            try:
                record = _read_record(handle)
            except EOFError:
                return
            if record is None:
                raise SinkError(
                    f"segment {source} holds a torn or corrupt record; "
                    "open the stream directory with resume=True to "
                    "quarantine the damage before reading"
                )
            yield record


def scan_segment(path: PathLike) -> Tuple[List[int], int, bool]:
    """Validate a segment sequentially without retaining payloads.

    Returns ``(indices, valid_end, torn)``: the grid indices of the records
    that validate (in file order), the byte offset just past the last valid
    record, and whether damaged bytes follow that offset.  Memory is one
    record at a time — the scan never holds the segment.
    """
    source = Path(path)
    indices: List[int] = []
    valid_end = 0
    torn = False
    size = source.stat().st_size
    with source.open("rb") as handle:
        while True:
            try:
                record = _read_record(handle)
            except EOFError:
                break
            if record is None:
                torn = True
                break
            indices.append(int(record["index"]))
            valid_end = handle.tell()
    if not torn and valid_end != size:  # trailing garbage after a clean tail
        torn = valid_end < size
    return indices, valid_end, torn


def _segment_seq(tag: str, name: str) -> Optional[int]:
    """The sequence number of segment file ``name`` under ``tag``, if it is one."""
    middle = re.escape(f"{tag}-") if tag else ""
    match = re.fullmatch(rf"segment-{middle}(\d{{4,}})\.jsonl", name)
    return int(match.group(1)) if match else None


def _read_manifest(path: Path, fingerprint: Optional[str]) -> Dict[str, object]:
    """Load one manifest, checking its schema and, if given, its fingerprint."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        # Manifests are only ever replaced atomically, so damage here means
        # external interference, not a crash — fail loudly.
        raise SinkError(
            f"stream manifest {path} is unreadable ({error}); the "
            "directory cannot be trusted"
        ) from error
    _check_schema(manifest.get("schema_version"), f"stream manifest {path}")
    if fingerprint is not None and manifest.get("fingerprint") != fingerprint:
        raise ConfigurationError(
            f"stream manifest {path} belongs to a different scenario (spec "
            "fingerprint mismatch); point the run at a fresh directory or "
            "delete the stale stream"
        )
    return manifest


# -- the sink --------------------------------------------------------------------


class StreamingResultSink:
    """Append completed grid points durably; recover from any crash state.

    Parameters
    ----------
    directory:
        The stream directory; created (with parents) on demand.
    spec:
        The full-grid scenario.  Its fingerprint is committed into the
        manifest and verified on resume (and on every adopted shard
        manifest).
    fsync_every:
        Fsync the active segment after every N appended records (default 1
        — every record durable before the sweep proceeds).  Larger values
        trade the durability window for throughput; a crash can lose at
        most the last ``fsync_every - 1`` appended records plus the one in
        flight.
    durable:
        ``False`` disables all fsync calls (segments *and* manifest) for
        tests and throwaway runs; torn-tail recovery still works.
    tag:
        Distinguishes manifests of sharded sweeps sharing one collection
        directory (``manifest-<tag>.json`` + ``segment-<tag>-*.jsonl``).
    resume:
        Recover the directory's existing records (repairing torn tails)
        and continue after them.  An untagged sink also adopts every
        tagged shard manifest, read-only, so one resume reassembles a
        sharded sweep.  Without ``resume``, a directory that already holds
        records for this scenario is refused — silently appending would
        duplicate grid points.
    append_hook / fsync_hook:
        Fault-injection seams (:mod:`repro.faultinject`): called with the
        record's grid index just before the write / just before each fsync.
        An ``OSError`` they raise is handled exactly like a real one.
    """

    def __init__(
        self,
        directory: PathLike,
        spec: ScenarioSpec,
        *,
        fsync_every: int = 1,
        durable: bool = True,
        tag: str = "",
        resume: bool = False,
        append_hook: Optional[Callable[[int], None]] = None,
        fsync_hook: Optional[Callable[[int], None]] = None,
    ) -> None:
        if not isinstance(fsync_every, int) or fsync_every < 1:
            raise ConfigurationError(
                f"fsync_every must be a positive int, got {fsync_every!r}"
            )
        if tag and not re.fullmatch(r"[A-Za-z0-9_-]+", tag):
            raise ConfigurationError(
                f"sink tag must be alphanumeric/_/-, got {tag!r}"
            )
        self.directory = Path(directory)
        self.fingerprint = spec_fingerprint(spec)
        self.fsync_every = fsync_every
        self.durable = durable
        self.tag = tag
        self._append_hook = append_hook
        self._fsync_hook = fsync_hook
        self.directory.mkdir(parents=True, exist_ok=True)

        self._handle = None  # raw FileIO of the active segment
        self._active_path: Optional[Path] = None
        self._active_size = 0
        self._last_index: Optional[int] = None  # last index in active segment
        self._unsynced = 0
        self._last_appended: Optional[int] = None
        self._frozen = False
        self._closed = False
        self.records_appended = 0
        self.fsync_calls = 0
        self.fsync_failures = 0
        self.torn_quarantined: List[str] = []

        self._segments: List[str] = []
        self._adopted: List[Path] = []  # other tags' segments, read-only
        self._next_seq = 0
        recovered: List[int] = []
        manifest = (
            _read_manifest(self.manifest_path, self.fingerprint)
            if self.manifest_path.exists()
            else None
        )
        shards = {} if tag else {
            path.stem[len("manifest-") :]: _read_manifest(path, self.fingerprint)
            for path in sorted(self.directory.glob("manifest-*.json"))
        }
        if manifest is not None or shards or self._existing_segment_names():
            if not resume:
                raise ConfigurationError(
                    f"stream directory {self.directory} already holds "
                    "records for this scenario; pass resume=True to "
                    "continue it, or use a fresh directory"
                )
            recovered = self._recover(manifest, shards)
        self.recovered_indices = frozenset(recovered)
        self.records_recovered = len(recovered)

    # -- naming ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        name = f"manifest-{self.tag}.json" if self.tag else "manifest.json"
        return self.directory / name

    def _segment_name(self, seq: int) -> str:
        middle = f"{self.tag}-" if self.tag else ""
        return f"segment-{middle}{seq:04d}.jsonl"

    def _existing_segment_names(self) -> List[str]:
        names = [
            path.name
            for path in self.directory.glob("segment-*.jsonl")
            if _segment_seq(self.tag, path.name) is not None
        ]
        return sorted(names)

    # -- manifest ----------------------------------------------------------------

    def _commit_manifest(self) -> None:
        manifest = {
            "schema_version": SINK_SCHEMA,
            "fingerprint": self.fingerprint,
            "tag": self.tag,
            "segments": list(self._segments),
            "fsync_every": self.fsync_every,
        }
        atomic_write_text(
            self.manifest_path,
            json.dumps(manifest, indent=2) + "\n",
            durable=self.durable,
        )

    # -- recovery ----------------------------------------------------------------

    def _recover(
        self,
        manifest: Optional[Dict[str, object]],
        shards: Dict[str, Dict[str, object]],
    ) -> List[int]:
        """Adopt the directory's segments, repairing this sink's torn tails.

        The manifest's segment list is authoritative; segment files it does
        not know about (possible only when a non-durable manifest commit was
        lost to a crash) are adopted in name order so their records are not
        orphaned.  Every segment is scanned record-by-record; the torn tail
        — if any — is moved to ``<segment>.torn`` and the segment truncated
        to its last valid record boundary.

        ``shards`` maps the tag of every tagged manifest in the directory to
        that manifest (untagged sinks only).  Their segments are scanned but
        never written: a torn tail there raises, naming the shard resume
        that repairs it.  Across all segments, a grid index may be recorded
        once.
        """
        listed = list(manifest.get("segments", [])) if manifest else []
        for name in listed:
            if _segment_seq(self.tag, name) is None:
                raise SinkError(
                    f"stream manifest {self.manifest_path} lists a foreign "
                    f"segment name {name!r}"
                )
        orphans = [n for n in self._existing_segment_names() if n not in listed]
        if orphans:
            logger.warning(
                "stream directory %s holds %d segment(s) missing from the "
                "manifest (lost non-durable commit?); adopting %s",
                self.directory,
                len(orphans),
                ", ".join(orphans),
            )
        self._segments = listed + orphans
        if orphans:
            self._commit_manifest()
        segments = [(self.tag, name) for name in self._segments]
        for tag, shard_manifest in shards.items():
            for name in shard_manifest.get("segments", []):
                if _segment_seq(tag, name) is None:
                    raise SinkError(
                        f"stream manifest of shard {tag!r} in {self.directory} "
                        f"lists a foreign segment name {name!r}"
                    )
                segments.append((tag, name))
        owners: Dict[int, str] = {}  # grid index -> segment that records it
        for tag, name in segments:
            path = self.directory / name
            if not path.exists():
                # Write-ahead commit without a first byte: the crash landed
                # between the manifest rename and the segment creation.
                continue
            indices, valid_end, torn = scan_segment(path)
            if torn and tag != self.tag:
                shard = re.fullmatch(r"(\d+)of(\d+)", tag)
                repair = (
                    f"run-spec --shard {shard[1]}/{shard[2]} --stream-dir "
                    f"{self.directory} --resume"
                    if shard is not None
                    else f"a sink with tag={tag!r} and resume=True"
                )
                raise SinkError(
                    f"segment {path} of shard {tag!r} ends in a torn record; "
                    "an unsharded resume only reads other shards' files — "
                    f"repair it with {repair}, then resume again"
                )
            if torn:
                self._quarantine_tail(path, valid_end)
            previous = None
            for index in indices:
                if previous is not None and index <= previous:
                    raise SinkError(
                        f"segment {path} is not an ascending run (index "
                        f"{index} after {previous}); segments written by "
                        "this sink are always sorted — the file was "
                        "modified externally"
                    )
                previous = index
                if index in owners:
                    raise SinkError(
                        f"grid point {index} is recorded in both "
                        f"{owners[index]} and {name} of {self.directory}; "
                        "the directory was written by overlapping sweeps "
                        "and cannot be merged"
                    )
                owners[index] = name
            if tag != self.tag:
                self._adopted.append(path)
        self._next_seq = (
            max((_segment_seq(self.tag, name) for name in self._segments), default=-1)
            + 1
        )
        return list(owners)

    def _quarantine_tail(self, path: Path, valid_end: int) -> None:
        size = path.stat().st_size
        quarantine = path.with_name(path.name + ".torn")
        with path.open("rb") as source:
            source.seek(valid_end)
            tail = source.read()
        # lint: disable=DUR001 -- quarantine copy of an already-torn tail;
        # the bytes are forensic evidence, not a durable artefact
        with quarantine.open("ab") as target:
            target.write(tail)
            if self.durable:
                fsync_fileobj(target)
        # lint: disable=DUR001 -- in-place truncation to the last record
        # boundary, fsynced below on the sink's own durability setting
        with path.open("rb+") as handle:
            handle.truncate(valid_end)
            if self.durable:
                fsync_fileobj(handle)
        if self.durable:
            fsync_dir(self.directory)
        self.torn_quarantined.append(quarantine.name)
        logger.warning(
            "segment %s held a torn tail (%d byte(s) past offset %d); "
            "quarantined to %s and truncated — every record before the "
            "tear is kept",
            path,
            size - valid_end,
            valid_end,
            quarantine,
        )

    # -- appending ---------------------------------------------------------------

    def _roll_segment(self) -> None:
        """Seal the active segment and open a fresh one (write-ahead)."""
        self._seal_active()
        name = self._segment_name(self._next_seq)
        self._next_seq += 1
        self._segments.append(name)
        # Write-ahead: the manifest knows the segment before its first byte
        # exists, so recovery can never encounter an unlisted durable record.
        self._commit_manifest()
        path = self.directory / name
        # lint: disable=DUR001 -- the designed raw append path: records are
        # CRC-framed, fsynced on the fsync_every cadence, and the segment is
        # registered write-ahead in the durable manifest before its first byte
        self._handle = path.open("ab", buffering=0)
        self._active_path = path
        self._active_size = 0
        self._last_index = None
        if self.durable:
            fsync_dir(self.directory)

    def _seal_active(self) -> None:
        if self._handle is None:
            return
        self._fsync_active(strict=True)
        self._handle.close()
        self._handle = None
        self._active_path = None

    def _fsync_active(self, strict: bool = False) -> None:
        """Fsync the active segment; transient failures retry at next cadence."""
        if self._handle is None or self._unsynced == 0:
            return
        try:
            if self._fsync_hook is not None:
                self._fsync_hook(
                    self._last_appended if self._last_appended is not None else -1
                )
            self.fsync_calls += 1
            os.fsync(self._handle.fileno())
        except OSError as error:
            self.fsync_failures += 1
            if error.errno == errno.ENOSPC:
                raise SinkFullError(self.directory, self._last_appended) from error
            if strict:
                raise SinkWriteError(
                    f"fsync of {self._active_path} keeps failing ({error}); "
                    f"the last {self._unsynced} record(s) may not be durable"
                ) from error
            logger.warning(
                "fsync of %s failed transiently (%s); will retry at the "
                "next cadence point",
                self._active_path,
                error,
            )
            return
        self._unsynced = 0

    def append(self, payload: Dict[str, object]) -> Tuple[Path, int, int]:
        """Durably append one completed point; returns (path, start, end).

        Rolls to a fresh segment when ``payload["index"]`` would break the
        active segment's ascending-run invariant.  On ``ENOSPC`` the
        partial write is rolled back to the last record boundary, what fits
        is fsynced, and :class:`SinkFullError` is raised; other ``OSError``
        s roll back likewise and surface as :class:`SinkWriteError`.
        """
        if self._closed:
            raise SinkError("cannot append to a closed sink")
        if self._frozen:
            # Crash simulation (fault injection): the process is "dead" from
            # the torn write onward, so later completions never reach disk —
            # exactly what resume must tolerate.
            return (self._active_path or self.directory, 0, 0)
        index = int(payload["index"])
        try:
            if self._append_hook is not None:
                self._append_hook(index)
            if self._handle is None or (
                self._last_index is not None and index <= self._last_index
            ):
                self._roll_segment()
            data = encode_record(payload)
            start = self._active_size
            written = 0
            while written < len(data):
                written += self._handle.write(data[written:])
        except OSError as error:
            self._rollback_active()
            if error.errno == errno.ENOSPC:
                self._fsync_active(strict=False)
                raise SinkFullError(self.directory, index) from error
            raise SinkWriteError(
                f"append of point {index} to {self._active_path} failed: "
                f"{error}"
            ) from error
        self._active_size += len(data)
        self._last_index = index
        self._last_appended = index
        self.records_appended += 1
        self._unsynced += 1
        if self._unsynced >= self.fsync_every and self.durable:
            self._fsync_active(strict=False)
        return (self._active_path, start, start + len(data))

    def _rollback_active(self) -> None:
        """Truncate a failed append back to the last record boundary."""
        if self._handle is None:
            return
        try:
            os.ftruncate(self._handle.fileno(), self._active_size)
        except OSError:  # pragma: no cover - nothing more can be done
            logger.warning(
                "could not roll back a failed append on %s; the torn tail "
                "will be quarantined on the next resume",
                self._active_path,
            )

    def freeze(self) -> None:
        """Silently drop all further appends (crash-simulation machinery)."""
        self._frozen = True

    def close(self, strict: bool = True) -> None:
        """Flush and fsync everything; ``strict=False`` never raises."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._handle is not None:
                if self.durable:
                    self._fsync_active(strict=strict)
                self._handle.close()
                self._handle = None
        except SinkError:
            if strict:
                raise

    # -- reading -----------------------------------------------------------------

    def segment_paths(self) -> List[Path]:
        """This sink's segment files in creation order, then adopted shards'."""
        own = [
            self.directory / name
            for name in self._segments
            if (self.directory / name).exists()
        ]
        return own + self._adopted

    def iter_merged(self) -> Iterator[Dict[str, object]]:
        """All of this sink's records (adopted ones too), by grid index."""
        return merge_streams(self.segment_paths())

    def stats(self) -> Dict[str, object]:
        """JSON-safe provenance of what this sink did."""
        return {
            "directory": str(self.directory),
            "tag": self.tag or None,
            "segments": len(self._segments),
            "records_appended": self.records_appended,
            "records_recovered": self.records_recovered,
            "fsync_every": self.fsync_every,
            "durable": self.durable,
            "fsync_calls": self.fsync_calls,
            "fsync_failures": self.fsync_failures,
            "torn_quarantined": list(self.torn_quarantined),
        }


# -- streaming merge -------------------------------------------------------------


def merge_streams(
    segments: Sequence[PathLike],
) -> Iterator[Dict[str, object]]:
    """K-way merge segment files by grid index in O(segments) memory.

    Every segment written by :class:`StreamingResultSink` is an ascending
    run, so the merge is a plain heap merge holding **one record per
    segment** — memory is O(1) in the number of points, which is what lets
    a million-point grid merge on a laptop.  A segment that is not
    ascending, or a grid index that appears in more than one segment, is an
    error: duplicates would silently prefer one shard's record over
    another's.
    """
    streams = []
    for path in segments:
        streams.append(_ascending(iter_records(path), Path(path)))
    last: Optional[int] = None
    for record in heapq.merge(*streams, key=lambda r: int(r["index"])):
        index = int(record["index"])
        if last is not None and index == last:
            raise SinkError(
                f"grid point {index} appears in more than one stream "
                "segment; overlapping sweeps wrote this directory"
            )
        last = index
        yield record


def _ascending(
    records: Iterator[Dict[str, object]], path: Path
) -> Iterator[Dict[str, object]]:
    previous: Optional[int] = None
    for record in records:
        index = int(record["index"])
        if previous is not None and index <= previous:
            raise SinkError(
                f"segment {path} is not an ascending run (index {index} "
                f"after {previous}); was the file modified externally?"
            )
        previous = index
        yield record


def stream_payloads(
    directory: PathLike, spec: Optional[ScenarioSpec] = None
) -> Iterator[Dict[str, object]]:
    """Merge every manifest's segments in ``directory``, by grid index.

    This is the multi-shard entry point: hosts running ``shard="i/k"`` with
    distinct sink tags can share (or later combine into) one directory, and
    this merges all of their sorted segments in one streaming pass.  When
    ``spec`` is given, every manifest's fingerprint is verified against it.
    """
    base = Path(directory)
    manifests = sorted(base.glob("manifest*.json"))
    if not manifests:
        raise SinkError(f"{base} holds no stream manifest")
    expected = spec_fingerprint(spec) if spec is not None else None
    segments: List[Path] = []
    for path in manifests:
        manifest = _read_manifest(path, expected)
        for name in manifest.get("segments", []):
            segment = base / name
            if segment.exists():
                segments.append(segment)
    return merge_streams(segments)


def point_run_to_payload(
    point_run: PointRun, elapsed_seconds: float
) -> Dict[str, object]:
    """The wire/stream payload of one completed point.

    The point spec is written once.  Each result is encoded by
    :meth:`RunResult.to_dict` without ``metadata["spec"]``, which repeats
    that spec; :func:`point_run_from_payload` re-attaches it.
    """
    results = []
    for result in point_run.results:
        metadata = {k: v for k, v in result.metadata.items() if k != "spec"}
        results.append(replace(result, metadata=metadata).to_dict())
    return {
        "index": point_run.index,
        "values": point_run.values,
        "label": point_run.label,
        "spec": point_run.spec.to_dict(),
        "elapsed_seconds": elapsed_seconds,
        "results": results,
    }


def point_run_from_payload(payload: Dict[str, object]) -> PointRun:
    """Rebuild a :class:`PointRun` from the wire/stream payload.

    Fresh and streamed points both pass through this single
    deserialisation path, so a resumed or streamed sweep is bit-identical
    to an uninterrupted in-memory one.  Every result gets its own
    ``spec.to_dict()`` back as ``metadata["spec"]``, as the runner recorded
    it.
    """
    spec = ScenarioSpec.from_dict(payload["spec"])
    results = []
    for encoded in payload["results"]:
        result = RunResult.from_dict(encoded)
        result.metadata["spec"] = spec.to_dict()
        results.append(result)
    return PointRun(
        index=int(payload["index"]),
        values=dict(payload["values"]),
        label=payload["label"],
        spec=spec,
        results=results,
    )


def streamed_table(
    spec: ScenarioSpec,
    directory: PathLike,
    provenance: Optional[Dict[str, object]] = None,
):
    """Build the scenario summary table from a stream directory, streaming.

    Byte-identical to ``run_spec(spec, ...).to_table()`` for the same
    completed points, but holds **one point's results at a time**: records
    flow from the k-way merge straight into aggregate rows.  This is the
    memory-bounded consumption path for grids too large to materialise.
    """
    from ..spec.run import build_scenario_table

    points = (
        point_run_from_payload(payload)
        for payload in stream_payloads(directory, spec)
    )
    return build_scenario_table(spec, points, provenance)
