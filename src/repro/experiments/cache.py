"""On-disk caches: traces and replay results.

Tracing a 64-rank application takes seconds and the evaluation replays
the same three traces dozens of times (every bandwidth-bisection step,
every bus count).  Three content-addressed directory caches make both
costs one-time:

* :class:`TraceCache` persists original traces as packed columnar
  ``.rct`` files (:mod:`repro.trace.columnar`) keyed by a content hash
  of (application, parameters, scale, tracer settings, package
  version);
* :class:`TraceStore` is the digest-addressed twin used by the
  parallel engine's zero-copy dispatch: the parent publishes each
  trace's compact encoding once, and every worker decodes it straight
  into the replay plan — no record objects, no re-serialization;
* :class:`SimResultCache` persists replay results keyed by a content
  hash of the *trace itself* plus the full
  :class:`~repro.dimemas.machine.MachineConfig`, so a repeated grid
  point is free across processes and sessions.  An entry has two
  files: the ``.json`` result envelope and a one-line ``.dur`` sidecar
  carrying just the simulated makespan.  Which ones a replay writes
  depends on who asked for it: a pool worker replaying a point for
  duration-only consumers (bandwidth bisection, sweeps) publishes the
  sidecar alone, since nobody reads its envelope; result-mode points
  and :class:`~repro.experiments.pipeline.AppExperiment` publish both.
  Duration lookups read the sidecar first and fall back to the
  envelope only when the sidecar is missing or bad.

Every cache publishes atomically, in the caller's thread: it writes
to a per-process unique staging name, then renames it into place with
:meth:`~pathlib.Path.replace`.  An entry is on disk when the call
returns, and concurrent workers of the parallel experiment engine can
share one cache directory: when two processes build the same key, both
writes succeed and the last rename wins with identical content.  A
trace entry is streamed into its staging file
(:meth:`~repro.trace.columnar.ColumnarTrace.write`), each access
profile straight from its array, so a publish holds no second copy of
the profiles.  A publish that fails removes its staging file.

The caches are also **self-healing**: every entry is published with a
schema version and a content checksum, and every entry is read in one
place (``_DegradableCache._read``), where a bad entry is a miss:
anything that fails to load — truncated by a killed writer,
bit-flipped on disk, or written by an older schema — is unlinked with
one logged warning and counted in its cache's ``rebuilt``, whatever
its kind, and the rebuild publishes over it.  Orphaned
``*.tmp`` staging files left behind by dead writers are swept when a
cache directory is opened (a staging name carries its writer's PID).
A corrupted cache can therefore slow a warm run down, but never crash
it or poison results.

The caches **degrade instead of dying**: a read-only cache directory,
a full disk (ENOSPC), or any other persistent I/O failure stops the
cache publishing for the rest of the process — one structured
warning, a ``cache.degraded`` metric, and the campaign continues
without persistence rather than crashing mid-grid.  A degraded cache
keeps no copy of its entries in memory: what the process built stays
in the memos of its experiments
(:class:`~repro.experiments.pipeline.AppExperiment`), which are
consulted before any cache.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
from collections import OrderedDict
from dataclasses import asdict, fields
from pathlib import Path
from typing import BinaryIO, Callable

from .. import __version__
from ..dimemas.machine import MachineConfig
from ..dimemas.results import SimResult
from ..obs import get_registry, span as _span
from ..trace.columnar import (
    ColumnarTrace,
    columnar_of,
    decode as _columnar_decode,
    from_traceset as _columnar_from_traceset,
)
from ..trace.records import TraceSet

__all__ = [
    "SimResultCache", "TraceCache", "TraceStore", "content_key",
    "sweep_cache_dir", "trace_digest",
]

_log = logging.getLogger("repro.experiments.cache")

#: On-disk entry schema.  Bumping it discards (and rebuilds) every
#: entry written by earlier code instead of misreading it.
SCHEMA_VERSION = 1


def content_key(**fields) -> str:
    """Stable hash of describing fields (JSON-canonicalized, versioned)."""
    blob = json.dumps(
        {"_version": __version__, **fields},
        sort_keys=True, default=repr,
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


#: Per-process staging serial: every publish stages under a name of
#: its own, so two publishes of one entry by this process (from two
#: threads of an embedding program, say) never write one staging file.
_stage_seq = itertools.count()

#: What :func:`_stage_and_publish` writes: text, bytes, or a writer
#: that streams the entry into a binary file.
_Payload = str | bytes | Callable[[BinaryIO], object]


def _stage_and_publish(path: Path, data: _Payload) -> None:
    """Atomically publish ``data`` at ``path``.

    The staging name embeds the writer's PID plus a per-process serial,
    so concurrent writers never clobber each other's half-written file;
    the final rename is atomic within a filesystem.  A write or rename
    that raises removes the staging file before the error propagates:
    its writer is alive, so no orphan sweep would.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(_stage_seq)}.tmp")
    try:
        with open(tmp, "wb") as f:
            if callable(data):
                data(f)
            else:
                f.write(data.encode() if isinstance(data, str) else data)
        tmp.replace(path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass  # never created
        raise


def _writer_alive(token: str) -> bool:
    """Whether the writer of a staging token ``<pid>[-<serial>]`` is
    still running (``os.kill(pid, 0)`` succeeds or is refused)."""
    pid = token.partition("-")[0]
    if not pid.isdigit():
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM)
    return True


def _sweep_orphan_tmps(directory: Path) -> int:
    """Remove ``*.tmp`` staging files whose writer process is gone.

    A worker killed mid-write leaves its staging file behind forever
    (the atomic rename never ran).  Files belonging to still-running
    writers are left alone; they may be mid-publish right now.  Returns
    how many orphans were removed.
    """
    swept = 0
    for tmp in directory.glob("*.tmp"):
        parts = tmp.name.rsplit(".", 2)  # <entry-name>.<token>.tmp
        alive = len(parts) == 3 and _writer_alive(parts[1])
        if not alive:
            try:
                tmp.unlink()
                swept += 1
            except OSError:
                pass  # another opener swept it first
    if swept:
        _log.info("swept %d orphaned staging file(s) in %s", swept, directory)
    return swept


def sweep_cache_dir(cache_dir: str | Path) -> int:
    """Remove leftover staging files under a cache root (interrupt path).

    Sweeps the ``traces``, ``replays`` and ``dispatch`` subdirectories
    for staging files of dead writers *and* of the calling process
    itself — after a Ctrl-C or SIGTERM the caller's own half-written
    staging file is garbage too.  Returns how many files were removed.
    """
    root = Path(cache_dir)
    removed = 0
    own = str(os.getpid())
    for sub in (root / "traces", root / "replays", root / "dispatch"):
        if not sub.is_dir():
            continue
        for tmp in sub.glob("*.tmp"):
            parts = tmp.name.rsplit(".", 2)  # <entry-name>.<token>.tmp
            token = parts[1] if len(parts) == 3 else ""
            if token.partition("-")[0] == own:
                try:
                    tmp.unlink()
                    removed += 1
                except OSError:
                    pass
        removed += _sweep_orphan_tmps(sub)
    return removed


class _DegradableCache:
    """Base of the three caches: one directory of entries, one reader,
    one publish rule and one set of counters.

    Every entry is read through :meth:`_read`.  A missing entry is a
    plain miss; one that cannot be read or fails its check is unlinked
    with one warning (``cache.discarded``) and counted in ``rebuilt``,
    whatever its kind, and the rebuild publishes over it.

    A read-only cache directory, ENOSPC, or any other write failure
    *degrades* the cache for the rest of the process: one structured
    warning, a ``cache.degraded`` metric, and no further publishes, so
    the campaign keeps going without persistence instead of crashing
    mid-grid.  Reads still try the directory (a read-only directory
    serves hits fine).  Nothing is held in memory in place of the
    directory: what this process built stays in the memos of its
    :class:`~repro.experiments.pipeline.AppExperiment`\\ s.
    """

    #: Metric-name prefix of this cache's registry counters.
    METRIC_PREFIX = "cache"
    #: Suffixes of this cache's entry files: ``len()`` counts the keys
    #: with a file of any of them, and ``clear()`` deletes those files.
    SUFFIXES: tuple[str, ...] = ()

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        #: True once this cache stopped publishing (I/O failure).
        self.degraded = False
        #: Diagnostics: how often the cache answered / missed, and how
        #: many entries had to be discarded.  Mirrored into the process
        #: metrics registry (and funneled to the parent by pool workers)
        #: under ``<METRIC_PREFIX>.*``.
        self.hits = 0
        self.misses = 0
        self.rebuilt = 0
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _sweep_orphan_tmps(self.directory)
        except OSError as exc:
            self._degrade(f"cache dir unusable: {exc}")

    def _count(self, what: str) -> None:
        setattr(self, what, getattr(self, what) + 1)
        get_registry().counter(f"{self.METRIC_PREFIX}.{what}").inc()

    def _degrade(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        _log.warning(
            "%s cache degraded (%s); entries built by this process will "
            "not be persisted", self.METRIC_PREFIX, reason,
        )
        get_registry().counter("cache.degraded").inc()

    def _publish(self, path: Path, data: _Payload) -> bool:
        """Best-effort atomic publish; False when degraded."""
        if self.degraded:
            return False
        try:
            _stage_and_publish(path, data)
        except OSError as exc:
            self._degrade(f"write failed: {exc}")
            return False
        return True

    def _read(self, path: Path, parse: Callable[[bytes], object]):
        """``parse`` of the entry at ``path``, or None when it is absent
        or bad.

        Absent (``FileNotFoundError``, or ``NotADirectoryError`` under
        an unusable directory) is a plain miss.  Any other read error,
        or a ``ValueError`` from ``parse``, makes the entry bad: it is
        unlinked with one warning and counted in ``rebuilt``.  A failed
        unlink (a concurrent reader discarded it first, or the
        directory is read-only) leaves nothing to do.
        """
        try:
            data = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError as exc:
            reason = f"unreadable: {exc}"
        else:
            try:
                return parse(data)
            except ValueError as exc:
                reason = str(exc)
        _log.warning("discarding corrupt cache entry %s (%s)", path, reason)
        get_registry().counter("cache.discarded").inc()
        self._count("rebuilt")
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def _entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return [p for p in self.directory.iterdir()
                if p.suffix in self.SUFFIXES]

    def __len__(self) -> int:
        return len({p.stem for p in self._entries()})

    def clear(self) -> int:
        """Delete every entry; returns how many ``len()`` counted."""
        entries = self._entries()
        for p in entries:
            p.unlink()
        return len({p.stem for p in entries})


def trace_digest(trace: "TraceSet | ColumnarTrace") -> str:
    """Stable content hash of a trace (its packed columnar encoding).

    Memoized per trace object through :func:`columnar_of`: one packing
    pays for every replay cache lookup against that trace.  The digest
    is the same one :class:`~repro.trace.columnar.ColumnarTrace`
    reports, so the result cache, the replay-plan LRU, and the dispatch
    store all agree on trace identity.
    """
    return columnar_of(trace).digest


def _decode_traceset(data: bytes) -> TraceSet:
    return _columnar_decode(data).to_traceset()


class TraceCache(_DegradableCache):
    """A directory of content-addressed ``.rct`` trace files.

    Entries are packed columnar encodings (:mod:`repro.trace.columnar`)
    whose container carries its own magic, schema version, and payload
    checksums; an entry that is truncated, corrupted, or from another
    schema version fails :func:`~repro.trace.columnar.decode` and is
    discarded and rebuilt instead of crashing the run.  A miss is
    built and streamed to disk, access profiles included, in the
    caller's thread before :meth:`load_or_build` returns.
    """

    METRIC_PREFIX = "cache.trace"
    SUFFIXES = (".rct",)

    @staticmethod
    def key(**fields) -> str:
        """Stable hash of the describing fields (JSON-canonicalized)."""
        return content_key(**fields)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.rct"

    def load_or_build(self, key: str, builder: Callable[[], TraceSet]) -> TraceSet:
        """Return the cached trace for ``key`` or build and store it.

        A bad entry — decode failure, checksum mismatch, stale schema —
        is discarded and rebuilt; it never propagates to the caller.
        A built trace is on disk, profiles included, when this returns
        (unless the cache has degraded).
        """
        path = self.path_for(key)
        trace = self._read(path, _decode_traceset)
        if trace is not None:
            self._count("hits")
            return trace
        self._count("misses")
        with _span("cache.trace.build", key=key):
            trace = builder()
        col = _columnar_from_traceset(trace, with_profiles=True)
        self._publish(path, col.write)
        return trace

    def flush(self) -> None:
        """No-op: :meth:`load_or_build` publishes before it returns, so
        nothing is ever pending.  Kept for callers that still call it.
        """


class TraceStore(_DegradableCache):
    """Digest-addressed store of packed columnar traces.

    The dispatch half of the parallel engine's zero-copy path: the
    parent :meth:`put`\\ s each distinct trace's encoding exactly once
    (the name *is* the content digest, so re-publishing is a no-op),
    and workers :meth:`get` it back as a
    :class:`~repro.trace.columnar.ColumnarTrace` ready to replay.
    Decoded traces are held in a small per-process LRU so a worker
    replaying many platform variations of one trace decodes it once.
    """

    METRIC_PREFIX = "cache.dispatch"
    SUFFIXES = (".rct",)

    #: Decoded-trace LRU bound — a worker typically cycles through a
    #: handful of (app, variant) traces per campaign.
    LRU_MAX = 16

    def __init__(self, directory: str | Path):
        super().__init__(directory)
        self._lru: "OrderedDict[str, ColumnarTrace]" = OrderedDict()

    def path_for(self, digest: str) -> Path:
        return self.directory / f"{digest}.rct"

    def _remember(self, digest: str, col: ColumnarTrace) -> None:
        self._lru[digest] = col
        self._lru.move_to_end(digest)
        while len(self._lru) > self.LRU_MAX:
            self._lru.popitem(last=False)

    def put(self, col: ColumnarTrace) -> str:
        """Publish a packed trace; returns its digest (the address).

        Idempotent and concurrency-safe: equal content encodes to equal
        bytes under equal names, so racing writers are harmless.  A
        degraded store publishes nothing, so no worker can read the
        digest back: callers check :attr:`degraded` and fall back to
        spec-based dispatch (a worker handed a digest it cannot read
        replays the point from its spec).
        """
        digest = col.digest
        if self.has(digest):
            return digest
        self._remember(digest, col)
        self._publish(self.path_for(digest), col.write)
        return digest

    def has(self, digest: str) -> bool:
        """Whether the store already holds ``digest`` (no decode).

        The parent asks this before building a trace it only needs for
        :meth:`put`: a digest the store holds ships as is.
        """
        return digest in self._lru or self.path_for(digest).exists()

    def get(self, digest: str) -> ColumnarTrace | None:
        """The stored trace under ``digest``, or None.

        A corrupt entry is discarded and reported as absent — the
        worker replays the point from its spec instead, so
        dispatch-store damage costs time, never correctness.
        """
        col = self._lru.get(digest)
        if col is None:
            col = self._read(self.path_for(digest), _columnar_decode)
        if col is None:
            self._count("misses")
            return None
        self._remember(digest, col)
        self._count("hits")
        return col


def _parse_duration(data: bytes) -> float:
    """The makespan of a ``.dur`` sidecar line (checksum verified)."""
    fields = dict(part.split("=", 1)
                  for part in data.decode().strip().split(";") if "=" in part)
    body = fields.get("d")
    if (
        fields.get("v") != str(SCHEMA_VERSION)
        or body is None
        or fields.get("sha256") != hashlib.sha256(body.encode()).hexdigest()[:16]
    ):
        raise ValueError("duration sidecar checksum/schema mismatch")
    return float(body)


def _parse_digest(data: bytes) -> str:
    """The trace digest of a ``.digest`` index file: 24 hex digits."""
    digest = data.decode().strip()
    if len(digest) != 24 or digest.strip("0123456789abcdef"):
        raise ValueError(f"malformed digest {digest[:40]!r}")
    return digest


class SimResultCache(_DegradableCache):
    """A directory of content-addressed replay results (``.json``).

    The key covers the trace *content* and every field of the platform
    (plus the package version), so no two distinct simulations can
    alias — unlike a key on selected fields, adding a new
    :class:`MachineConfig` knob can never silently reuse stale results.
    Restored results are bit-identical to freshly simulated ones
    (floats round-trip exactly through JSON ``repr`` encoding).

    Entries are JSON envelopes ``{"schema", "sha256", "result"}``; the
    checksum covers the canonicalized payload, so a truncated or
    bit-flipped entry (or one written by another schema version) is
    discarded and re-simulated instead of crashing or — worse —
    silently returning garbage numbers.  The ``.dur`` sidecar carries
    its own checksum; a key may have a sidecar and no envelope (a
    duration-only replay), and ``len()`` counts keys with either.
    """

    METRIC_PREFIX = "cache.replay"
    SUFFIXES = (".json", ".dur")

    @staticmethod
    def key_for_digest(digest: str, machine: MachineConfig) -> str:
        """Result key from an already-known trace digest.

        The machine enters as ``dataclasses.asdict`` would give it; only
        the perturbation schedule is nested, so only it is converted
        (``asdict`` deep-copies every field, a lookup's main cost).
        """
        platform = {f.name: getattr(machine, f.name) for f in fields(machine)}
        if machine.perturb is not None:
            platform["perturb"] = asdict(machine.perturb)
        blob = json.dumps(
            {
                "_version": __version__,
                "trace": digest,
                "machine": platform,
            },
            sort_keys=True, default=repr,
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:24]

    @classmethod
    def key(cls, trace: TraceSet, machine: MachineConfig) -> str:
        """Content hash of (trace, full platform, package version)."""
        return cls.key_for_digest(trace_digest(trace), machine)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _dur_path(self, key: str) -> Path:
        return self.directory / f"{key}.dur"

    @staticmethod
    def _canonical(payload: dict) -> str:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def _dur_line(duration: float) -> str:
        body = repr(duration)
        digest = hashlib.sha256(body.encode()).hexdigest()[:16]
        return f"v={SCHEMA_VERSION};sha256={digest};d={body}\n"

    @classmethod
    def _parse_envelope(cls, data: bytes) -> SimResult:
        envelope = json.loads(data)
        if not isinstance(envelope, dict) or envelope.get("schema") != SCHEMA_VERSION:
            raise ValueError("unknown or pre-checksum schema")
        if envelope.get("sha256") != hashlib.sha256(
            cls._canonical(envelope.get("result", {})).encode()
        ).hexdigest():
            raise ValueError("payload checksum mismatch")
        return SimResult.from_dict(envelope["result"])

    def load(self, key: str) -> SimResult | None:
        """The cached result under ``key``, or None (counts hit/miss).

        A bad entry — unparseable, wrong schema version, checksum
        mismatch — is discarded and reported as a miss, so the caller
        re-simulates and the rebuilt entry replaces it.
        """
        result = self._read(self.path_for(key), self._parse_envelope)
        self._count("misses" if result is None else "hits")
        return result

    def store(self, key: str, result: SimResult) -> None:
        """Publish a result under ``key``: the envelope, then its
        ``.dur`` sidecar (atomic, concurrency-safe)."""
        payload = result.to_dict()
        envelope = {
            "schema": SCHEMA_VERSION,
            "sha256": hashlib.sha256(self._canonical(payload).encode()).hexdigest(),
            "result": payload,
        }
        if self._publish(
            self.path_for(key),
            json.dumps(envelope, separators=(",", ":")),
        ):
            self.store_duration(key, result.duration)

    def store_duration(self, key: str, duration: float) -> None:
        """Publish only the ``.dur`` sidecar of ``key`` (atomic).

        One checksummed line, parsed by :meth:`load_duration` without
        touching the (much larger) result envelope.
        """
        self._publish(self._dur_path(key), self._dur_line(duration))

    def publish(self, key: str, result: SimResult, full: bool) -> None:
        """Publish a replay under ``key``: envelope and sidecar of a
        ``full`` result, the sidecar alone for a duration — nobody reads
        a duration replay's envelope, whose serialization would cost as
        much as the replay."""
        if full:
            self.store(key, result)
        else:
            self.store_duration(key, result.duration)

    def load_duration(self, key: str) -> float | None:
        """The cached makespan under ``key``, or None (counts hit/miss).

        Duration-only consumers (bandwidth bisection, sweep grids) call
        this instead of :meth:`load`: the one-line ``.dur`` sidecar is
        ~100x smaller than the result envelope.  Floats round-trip
        exactly through ``repr``, so the value is bit-identical to
        ``load(key).duration``.  Without a good sidecar the envelope is
        consulted, when there is one, and heals the sidecar.
        """
        duration = self._read(self._dur_path(key), _parse_duration)
        if duration is not None:
            self._count("hits")
            return duration
        if not self.path_for(key).exists():
            self._count("misses")
            return None
        result = self.load(key)
        if result is None:
            return None
        self.store_duration(key, result.duration)
        return result.duration

    def load_or_simulate(
        self,
        trace: TraceSet,
        machine: MachineConfig,
        runner: Callable[[TraceSet, MachineConfig], SimResult] | None = None,
    ) -> SimResult:
        """Return the cached result for (trace, machine) or replay.

        ``runner`` overrides the replay callable (testing hook);
        defaults to :func:`repro.dimemas.replay.simulate`.
        """
        key = self.key(trace, machine)
        result = self.load(key)
        if result is not None:
            return result
        if runner is None:
            from ..dimemas.replay import simulate as runner
        result = runner(trace, machine)
        self.store(key, result)
        return result

    # -- spec -> trace-digest index ----------------------------------------
    # A warm cache hit normally still needs the trace (its digest is
    # half of the result key), and rebuilding or re-transforming a
    # trace costs far more than the replay lookup it feeds.  The index
    # persists "experiment spec -> trace digest", so repeated grid
    # points short-circuit to a single JSON read with no trace at all.
    # Spec keys are versioned content hashes (via ``content_key``),
    # and traces/transforms are deterministic functions of the spec,
    # so an index entry can only go stale across a version bump --
    # which changes every key anyway.

    def get_digest(self, spec_key: str) -> str | None:
        """Trace digest recorded for an experiment spec, if any.

        A digest file that does not hold one well-formed hex digest
        (torn write, corruption) is discarded and treated as absent.
        """
        return self._read(self.directory / f"{spec_key}.digest", _parse_digest)

    def put_digest(self, spec_key: str, digest: str) -> None:
        """Record the trace digest of an experiment spec (atomic)."""
        self._publish(self.directory / f"{spec_key}.digest", digest)

    def clear(self) -> int:
        """Delete all cached results and the spec->digest index;
        returns how many results ``len()`` counted."""
        if self.directory.is_dir():
            for p in self.directory.glob("*.digest"):
                p.unlink()
        return super().clear()
