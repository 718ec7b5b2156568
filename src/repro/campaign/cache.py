"""Content-addressed on-disk cache for campaign artefacts.

Artefacts (JSON-serializable dicts, e.g. the flow artefact a campaign
job produces) are stored under a SHA-256 key derived from everything
the result can depend on:

* the **circuit fingerprint** (:meth:`repro.netlist.circuit.Circuit.
  fingerprint` — netlist content, superseding the in-process
  ``Circuit.version`` counter for cross-process keys);
* the canonical **config hash**
  (:meth:`repro.core.config.FlowConfig.config_hash`; runtime knobs
  such as tracing and chaos are not config fields, so they never miss);
* the **code fingerprint** (:func:`repro.utils.hashing.
  package_fingerprint` — any edit to the ``repro`` sources invalidates
  every prior artefact);
* an artefact ``kind`` tag, versioned so schema changes never read
  stale layouts.

Layout: ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps
directory listings fast on large sweeps).  Writes are atomic
(temp file + ``os.replace``) and verified: each entry carries a
``digest`` of its artefact, the freshly written temp file is read
back before the replace (a torn write is caught *before* it can
shadow the key), and transient write failures are retried through
:func:`repro.chaos.retry_call`.  A corrupt entry found on read — bad
JSON, missing keys, digest mismatch — degrades to a miss and is
**quarantined**: renamed to ``<key>.corrupt`` (kept for forensics,
invisible to :meth:`~ResultCache.entries`/GC) so subsequent lookups
recompute instead of re-parsing the same wreck forever.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any

import repro.chaos as chaos
from repro.chaos import retry_call
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.utils.hashing import package_fingerprint, stable_digest

__all__ = ["ResultCache", "CacheStats"]

#: The shape of every :meth:`ResultCache.key` (a SHA-256 hex digest).
_KEY = re.compile(r"[0-9a-f]{64}")


def _cache_counter(outcome: str):
    return get_registry().counter(
        "repro_cache_ops_total",
        "Result-cache operations by outcome "
        "(hit/miss/store/corrupt).",
        labels={"outcome": outcome})


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0


class ResultCache:
    """Content-addressed JSON artefact store rooted at ``root``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # keys and paths
    # ------------------------------------------------------------------ #

    def key(self, kind: str, circuit_fingerprint: str, config_hash: str,
            code_fingerprint: str | None = None) -> str:
        """The content-addressed key for one (kind, inputs) tuple."""
        return stable_digest({
            "kind": kind,
            "circuit": circuit_fingerprint,
            "config": config_hash,
            "code": code_fingerprint if code_fingerprint is not None
            else package_fingerprint(),
        })

    @staticmethod
    def is_key(key: str) -> bool:
        """Whether ``key`` has the shape :meth:`key` produces."""
        return _KEY.fullmatch(key) is not None

    def path(self, key: str) -> Path:
        """On-disk location of ``key``'s entry."""
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #

    def get(self, key: str) -> dict[str, Any] | None:
        """The artefact stored under ``key``, or ``None`` on a miss.

        Corrupt entries count as misses — a cache must never be able
        to wedge a campaign — but are additionally **quarantined**
        (renamed to ``<key>.corrupt``) so the next lookup goes
        straight to recomputation instead of re-parsing the wreck.
        An unreadable file (gone, permissions) is a plain miss and is
        left alone.
        """
        path = self.path(key)
        with span("cache.get", key=key[:12]) as sp:
            try:
                data = path.read_bytes()
            except OSError:
                self.stats.misses += 1
                _cache_counter("miss").inc()
                sp.attrs["outcome"] = "miss"
                return None
            data = chaos.mangle("cache.read", data)
            try:
                entry = json.loads(data)
                artefact = entry["artefact"]
                digest = entry.get("digest")
                # Entries written before the digest field are trusted
                # as-is; a present digest must match the artefact.
                if digest is not None \
                        and stable_digest(artefact) != digest:
                    raise ValueError("artefact digest mismatch")
            except (ValueError, KeyError, TypeError):
                self._quarantine(path)
                self.stats.misses += 1
                self.stats.corrupt += 1
                _cache_counter("corrupt").inc()
                sp.attrs["outcome"] = "corrupt"
                return None
            self.stats.hits += 1
            _cache_counter("hit").inc()
            sp.attrs["outcome"] = "hit"
            return artefact

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the key's way (best effort)."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # pragma: no cover - raced removal
            pass

    def put(self, key: str, artefact: dict[str, Any],
            meta: dict[str, Any] | None = None) -> Path:
        """Atomically store ``artefact`` under ``key`` (verified).

        ``meta`` (e.g. the human-readable key ingredients) is kept
        alongside for debuggability but never read back on the hot
        path.  The entry carries a content ``digest`` of the artefact;
        the temp file is read back and compared before the atomic
        replace, so a torn or corrupted write never shadows the key —
        it is retried (:func:`repro.chaos.retry_call`) instead.
        """
        path = self.path(key)
        with span("cache.put", key=key[:12]):
            path.parent.mkdir(parents=True, exist_ok=True)
            entry = {"key": key, "meta": meta or {},
                     "artefact": artefact,
                     "digest": stable_digest(artefact)}
            data = json.dumps(entry, sort_keys=True).encode()
            retry_call(lambda: self._write_verified(path, data),
                       site="cache.write")
        self.stats.stores += 1
        _cache_counter("store").inc()
        return path

    @staticmethod
    def _write_verified(path: Path, data: bytes) -> None:
        """One write attempt: temp file, read-back check, replace."""
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(chaos.mangle("cache.write", data))
            if Path(tmp_name).read_bytes() != data:
                raise OSError("torn cache write detected on read-back")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - replaced/gone
                pass
            raise

    def gc(self, max_bytes: int) -> tuple[int, int]:
        """Evict LRU-by-mtime entries until the cache fits ``max_bytes``.

        Only well-formed key files count and get evicted — manifests
        (top-level) and stray temp files are never touched.  The mtime
        order makes this an LRU on *write* time: campaigns re-``put``
        nothing on hits, so untouched artefacts age out first while a
        long-lived ``.repro-cache/`` stops growing without bound.

        Returns ``(entries evicted, bytes freed)``.  A vanished file
        (concurrent eviction) is skipped, never an error.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries: list[tuple[float, str, int]] = []
        total = 0
        for key in self.entries():
            path = self.path(key)
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced eviction
                continue
            entries.append((stat.st_mtime, key, stat.st_size))
            total += stat.st_size
        entries.sort()
        evicted = 0
        freed = 0
        for _mtime, key, size in entries:
            if total - freed <= max_bytes:
                break
            try:
                self.path(key).unlink()
            except OSError:  # pragma: no cover - raced eviction
                continue
            evicted += 1
            freed += size
        return evicted, freed

    def gc_older_than(self, max_age_s: float,
                      now: float | None = None) -> tuple[int, int]:
        """Evict every entry whose mtime is older than ``max_age_s``.

        The age-based companion to :meth:`gc`: instead of a size
        budget, drop artefacts not written for ``max_age_s`` seconds
        (``repro campaign gc --max-age-days``).  Same guarantees —
        only well-formed key files are touched, vanished files are
        skipped.  Returns ``(entries evicted, bytes freed)``.
        """
        if max_age_s < 0:
            raise ValueError("max_age_s must be >= 0")
        cutoff = (time.time() if now is None else now) - max_age_s
        evicted = 0
        freed = 0
        for key in self.entries():
            path = self.path(key)
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced eviction
                continue
            if stat.st_mtime >= cutoff:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced eviction
                continue
            evicted += 1
            freed += stat.st_size
        return evicted, freed

    def entries(self) -> list[str]:
        """All stored keys (sorted; directory scan, test/CLI use only).

        Only well-formed key files count — a ``.tmp-*`` file left by a
        kill between ``mkstemp`` and ``os.replace`` is not an entry
        (``pathlib`` globs match dotfiles).
        """
        if not self.root.is_dir():
            return []
        return sorted(
            p.stem for p in self.root.glob("*/*.json")
            if self.is_key(p.stem) and p.parent.name == p.stem[:2])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultCache root={str(self.root)!r} {self.stats}>"
