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
schema version and a content checksum, and a bad entry is a miss:
anything that fails to load — truncated by a killed writer,
bit-flipped on disk, or written by an older schema — is unlinked with
one logged warning, and the rebuild publishes over it.  Orphaned
``*.tmp`` staging files left behind by dead writers are swept when a
cache directory is opened (a staging name carries its writer's PID).
A corrupted cache can therefore slow a warm run down, but never crash
it or poison results.

The caches **degrade instead of dying**: a read-only cache directory,
a full disk (ENOSPC), or any other persistent I/O failure switches the
cache to in-memory operation for the rest of the process — one
structured warning, a ``cache.degraded`` metric, and the campaign
continues without persistence rather than crashing mid-grid.

Traces recorded with ``record_streams=True`` are *not* cacheable (raw
access streams are not serialized) and bypass the trace cache.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO, Callable

from .. import __version__
from ..dimemas.machine import MachineConfig
from ..dimemas.results import SimResult
from ..obs import get_registry, span as _span
from ..trace.columnar import (
    ColumnarFormatError,
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


def _discard(path: Path, reason: str) -> None:
    """Unlink a cache entry that failed its check, with one warning.

    The caller counts it as a miss, and the rebuild publishes over it.
    A failed unlink (a concurrent reader discarded it first, or the
    directory is read-only) leaves nothing to do: the entry stays a
    miss.
    """
    _log.warning("discarding corrupt cache entry %s (%s)", path, reason)
    get_registry().counter("cache.discarded").inc()
    try:
        path.unlink()
    except OSError:
        pass


class _DegradableCache:
    """Mixin: degrade to in-memory operation on persistent I/O failure.

    A read-only cache directory, ENOSPC, or any other write failure
    switches the cache to a process-local dict for the rest of the run:
    one structured warning, a ``cache.degraded`` metric, and the
    campaign keeps going without persistence instead of crashing
    mid-grid.  Reads still try the directory (a read-only dir
    serves hits fine); only the write path goes memory-only.
    """

    METRIC_PREFIX = "cache"

    def _init_store(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        #: True once this cache stopped persisting (I/O failure);
        #: entries built afterwards live in ``_mem`` only.
        self.degraded = False
        self._mem: dict[str, object] = {}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _sweep_orphan_tmps(self.directory)
        except OSError as exc:
            self._degrade(f"cache dir unusable: {exc}")

    def _degrade(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        _log.warning(
            "%s cache degraded to in-memory operation (%s); entries built "
            "by this process will not be persisted",
            self.METRIC_PREFIX, reason,
        )
        get_registry().counter("cache.degraded").inc()

    def _publish(self, path: Path, data: _Payload) -> bool:
        """Best-effort atomic publish; False when running in-memory."""
        if self.degraded:
            return False
        try:
            _stage_and_publish(path, data)
        except OSError as exc:
            self._degrade(f"write failed: {exc}")
            return False
        return True


def trace_digest(trace: "TraceSet | ColumnarTrace") -> str:
    """Stable content hash of a trace (its packed columnar encoding).

    Memoized per trace object through :func:`columnar_of`: one packing
    pays for every replay cache lookup against that trace.  The digest
    is the same one :class:`~repro.trace.columnar.ColumnarTrace`
    reports, so the result cache, the replay-plan LRU, and the dispatch
    store all agree on trace identity.
    """
    return columnar_of(trace).digest


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

    #: Metric-name prefix of this cache's registry counters.
    METRIC_PREFIX = "cache.trace"

    def __init__(self, directory: str | Path):
        self._init_store(directory)
        #: Diagnostics: how often the cache answered / had to build,
        #: and how many entries had to be discarded and rebuilt.
        #: Mirrored into the process metrics registry (and funneled to
        #: the parent by pool workers) under ``cache.trace.*``.
        self.hits = 0
        self.misses = 0
        self.rebuilt = 0

    def _count(self, what: str) -> None:
        setattr(self, what, getattr(self, what) + 1)
        get_registry().counter(f"{self.METRIC_PREFIX}.{what}").inc()

    @staticmethod
    def key(**fields) -> str:
        """Stable hash of the describing fields (JSON-canonicalized)."""
        return content_key(**fields)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.rct"

    def _verified_load(self, path: Path) -> TraceSet | None:
        """Decode an entry; None (after discarding it) when unusable."""
        try:
            data = path.read_bytes()
        except OSError as exc:
            _discard(path, f"unreadable: {exc}")
            return None
        try:
            return _columnar_decode(data).to_traceset()
        except ColumnarFormatError as exc:
            _discard(path, f"corrupt columnar entry: {exc}")
            return None

    def load_or_build(self, key: str, builder: Callable[[], TraceSet]) -> TraceSet:
        """Return the cached trace for ``key`` or build and store it.

        A bad entry — decode failure, checksum mismatch, stale schema —
        is discarded and rebuilt; it never propagates to the caller.
        A built trace is on disk, profiles included, when this returns
        (or held in memory if the cache has degraded).
        """
        hit = self._mem.get(key)
        if hit is not None:
            self._count("hits")
            return hit
        path = self.path_for(key)
        if path.exists():
            trace = self._verified_load(path)
            if trace is not None:
                self._count("hits")
                return trace
            self._count("rebuilt")
        self._count("misses")
        with _span("cache.trace.build", key=key):
            trace = builder()
        col = _columnar_from_traceset(trace, with_profiles=True)
        if not self._publish(path, col.write):
            self._mem[key] = trace
        return trace

    def flush(self) -> None:
        """No-op: :meth:`load_or_build` publishes before it returns, so
        nothing is ever pending.  Kept for callers that still call it.
        """

    def clear(self) -> int:
        """Delete all cached traces; returns how many were removed."""
        n = len(self._mem)
        self._mem.clear()
        if self.directory.is_dir():
            for p in self.directory.glob("*.rct"):
                p.unlink()
                n += 1
        return n

    def __len__(self) -> int:
        on_disk = (
            sum(1 for _ in self.directory.glob("*.rct"))
            if self.directory.is_dir() else 0
        )
        return on_disk + len(self._mem)


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

    #: Decoded-trace LRU bound — a worker typically cycles through a
    #: handful of (app, variant) traces per campaign.
    LRU_MAX = 16

    def __init__(self, directory: str | Path):
        self._init_store(directory)
        self._lru: "OrderedDict[str, ColumnarTrace]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _count(self, what: str) -> None:
        setattr(self, what, getattr(self, what) + 1)
        get_registry().counter(f"{self.METRIC_PREFIX}.{what}").inc()

    def path_for(self, digest: str) -> Path:
        return self.directory / f"{digest}.rct"

    def put(self, col: ColumnarTrace) -> str:
        """Publish a packed trace; returns its digest (the address).

        Idempotent and concurrency-safe: equal content encodes to equal
        bytes under equal names, so racing writers are harmless.  When
        the store is degraded the trace is held in memory — only this
        process can read it back, which callers detect via
        :attr:`degraded` and fall back to spec-based dispatch (a worker
        handed a digest it cannot read replays the point from its
        spec).
        """
        digest = col.digest
        if self.has(digest):
            return digest
        self._lru[digest] = col
        while len(self._lru) > self.LRU_MAX:
            self._lru.popitem(last=False)
        if not self._publish(self.path_for(digest), col.write):
            self._mem[digest] = col
        return digest

    def has(self, digest: str) -> bool:
        """Whether the store already holds ``digest`` (no decode).

        The parent asks this before building a trace it only needs for
        :meth:`put`: a digest the store holds ships as is.
        """
        return (digest in self._lru or digest in self._mem
                or self.path_for(digest).exists())

    def get(self, digest: str) -> ColumnarTrace | None:
        """The stored trace under ``digest``, or None.

        A corrupt entry is discarded and reported as absent — the
        worker replays the point from its spec instead, so
        dispatch-store damage costs time, never correctness.
        """
        hit = self._lru.get(digest)
        if hit is None:
            hit = self._mem.get(digest)
        if hit is not None:
            self._lru[digest] = hit
            self._lru.move_to_end(digest)
            self._count("hits")
            return hit
        path = self.path_for(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError as exc:
            _discard(path, f"unreadable: {exc}")
            self._count("misses")
            return None
        try:
            col = _columnar_decode(data)
        except ColumnarFormatError as exc:
            _discard(path, f"corrupt columnar entry: {exc}")
            self._count("misses")
            return None
        self._lru[digest] = col
        while len(self._lru) > self.LRU_MAX:
            self._lru.popitem(last=False)
        self._count("hits")
        return col

    def __len__(self) -> int:
        on_disk = (
            sum(1 for _ in self.directory.glob("*.rct"))
            if self.directory.is_dir() else 0
        )
        return on_disk + len(self._mem)


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

    #: Metric-name prefix of this cache's registry counters.
    METRIC_PREFIX = "cache.replay"

    def __init__(self, directory: str | Path):
        self._init_store(directory)
        self._mem_digests: dict[str, str] = {}
        #: Makespans held in memory when their sidecar could not be
        #: published (degraded); only :meth:`load_duration` reads them.
        self._mem_durations: dict[str, float] = {}
        #: Mirrored into the metrics registry under ``cache.replay.*``.
        self.hits = 0
        self.misses = 0
        self.rebuilt = 0

    def _count(self, what: str) -> None:
        setattr(self, what, getattr(self, what) + 1)
        get_registry().counter(f"{self.METRIC_PREFIX}.{what}").inc()

    @staticmethod
    def key_for_digest(digest: str, machine: MachineConfig) -> str:
        """Result key from an already-known trace digest."""
        blob = json.dumps(
            {
                "_version": __version__,
                "trace": digest,
                "machine": asdict(machine),
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

    def load(self, key: str) -> SimResult | None:
        """The cached result under ``key``, or None (counts hit/miss).

        A bad entry — unparseable, wrong schema version, checksum
        mismatch — is discarded and reported as a miss, so the caller
        re-simulates and the rebuilt entry replaces it.
        """
        held = self._mem.get(key)
        if held is not None:
            self._count("hits")
            return SimResult.from_dict(held)
        path = self.path_for(key)
        if path.exists():
            try:
                envelope = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                _discard(path, f"unreadable/unparseable: {exc}")
            else:
                if (
                    not isinstance(envelope, dict)
                    or envelope.get("schema") != SCHEMA_VERSION
                ):
                    _discard(path, "unknown or pre-checksum schema")
                elif envelope.get("sha256") != hashlib.sha256(
                    self._canonical(envelope.get("result", {})).encode()
                ).hexdigest():
                    _discard(path, "payload checksum mismatch")
                else:
                    self._count("hits")
                    return SimResult.from_dict(envelope["result"])
            self._count("rebuilt")
        self._count("misses")
        return None

    def store(self, key: str, result: SimResult) -> None:
        """Publish a result under ``key`` (atomic, concurrency-safe).

        When the cache is degraded the payload dict is held in memory
        instead — restored results stay bit-identical either way, since
        both paths round-trip through the same ``to_dict`` encoding.
        """
        payload = result.to_dict()
        envelope = {
            "schema": SCHEMA_VERSION,
            "sha256": hashlib.sha256(self._canonical(payload).encode()).hexdigest(),
            "result": payload,
        }
        if not self._publish(
            self.path_for(key),
            json.dumps(envelope, separators=(",", ":")),
        ):
            self._mem[key] = payload
        else:
            self.store_duration(key, result.duration)

    def store_duration(self, key: str, duration: float) -> None:
        """Publish only the ``.dur`` sidecar of ``key`` (atomic).

        One checksummed line, parsed by :meth:`load_duration` without
        touching the (much larger) result envelope.  This is all a
        duration-only replay publishes; :meth:`store` calls it for the
        sidecar of every full result.  When the cache is degraded the
        makespan is held in memory, where :meth:`load_duration` finds
        it and :meth:`load` never looks.
        """
        if not self._publish(self._dur_path(key), self._dur_line(duration)):
            self._mem_durations[key] = duration

    def load_duration(self, key: str) -> float | None:
        """The cached makespan under ``key``, or None (counts hit/miss).

        Duration-only consumers (bandwidth bisection, sweep grids) call
        this instead of :meth:`load`: the one-line ``.dur`` sidecar is
        ~100x smaller than the result envelope.  Floats round-trip
        exactly through ``repr``, so the value is bit-identical to
        ``load(key).duration``.  A malformed sidecar is discarded and
        the full entry is consulted (healing the sidecar on success);
        with no full entry it counts as rebuilt, like a bad entry in
        :meth:`load`.
        """
        held = self._mem.get(key)
        if held is not None:
            self._count("hits")
            return held["duration"]
        duration = self._mem_durations.get(key)
        if duration is not None:
            self._count("hits")
            return duration
        path = self._dur_path(key)
        # A sidecar read below and not returned has been discarded.
        found = True
        try:
            line = path.read_text()
        except FileNotFoundError:
            found = False
            line = None
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
            _discard(path, f"unreadable duration sidecar: {exc}")
            line = None
        if line is not None:
            fields = dict(
                part.split("=", 1)
                for part in line.strip().split(";")
                if "=" in part
            )
            body = fields.get("d")
            if (
                fields.get("v") == str(SCHEMA_VERSION)
                and body is not None
                and fields.get("sha256")
                == hashlib.sha256(body.encode()).hexdigest()[:16]
            ):
                try:
                    duration = float(body)
                except ValueError:
                    _discard(path, f"malformed duration {body[:40]!r}")
                else:
                    self._count("hits")
                    return duration
            else:
                _discard(path, "duration sidecar checksum/schema mismatch")
        if not self.path_for(key).exists():
            if found:
                self._count("rebuilt")
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
        held = self._mem_digests.get(spec_key)
        if held is not None:
            return held
        path = self.directory / f"{spec_key}.digest"
        try:
            digest = path.read_text().strip()
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
            _discard(path, f"unreadable digest file: {exc}")
            return None
        if not digest:
            return None
        if len(digest) != 24 or any(c not in "0123456789abcdef" for c in digest):
            _discard(path, f"malformed digest {digest[:40]!r}")
            return None
        return digest

    def put_digest(self, spec_key: str, digest: str) -> None:
        """Record the trace digest of an experiment spec (atomic)."""
        if not self._publish(self.directory / f"{spec_key}.digest", digest):
            self._mem_digests[spec_key] = digest

    def clear(self) -> int:
        """Delete all cached results (and the spec->digest index);
        returns how many results were removed."""
        n = len(self._mem)
        self._mem.clear()
        self._mem_digests.clear()
        self._mem_durations.clear()
        if self.directory.is_dir():
            for p in self.directory.glob("*.json"):
                p.unlink()
                n += 1
            for p in self.directory.glob("*.digest"):
                p.unlink()
            for p in self.directory.glob("*.dur"):
                p.unlink()
        return n

    def __len__(self) -> int:
        keys = set(self._mem) | set(self._mem_durations)
        if self.directory.is_dir():
            keys.update(p.stem for pattern in ("*.json", "*.dur")
                        for p in self.directory.glob(pattern))
        return len(keys)
