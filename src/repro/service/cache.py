"""Solution memo cache: keyed by request identity, LRU, optionally durable.

The whole campaign stack is deterministic by construction (that is what
makes journal resume possible), so a solve request's canonical
identity fully determines its solution — memoization is *exact*, not
heuristic.  The cache holds JSON-safe solution payloads keyed by
:func:`~repro.service.protocol.solve_request_key`:

* in memory: a bounded LRU (``capacity`` entries, least-recently-*used*
  eviction) guarded by one lock, with hit/miss/eviction counters.  Each
  entry is an :class:`~repro.service.protocol.EncodedJSON`, encoded
  once when stored, so a hit's reply writes the solution's bytes
  without encoding them again;
* optionally on disk: every store is also published atomically through
  :class:`~repro.durability.DurableFile` as
  ``<cache_dir>/<key>.json`` carrying a self-fingerprint, so a cache
  directory survives restarts, is crash-consistent (a killed writer
  leaves only a stale temp file, never a torn entry), and a corrupt or
  tampered entry is detected and ignored rather than served.

Opening a persistent cache sweeps the directory for stale temp files a
crashed writer left behind (counted in ``stats()``), and an optional
:class:`~repro.resilience.CircuitBreaker` guards the disk tier: while
it is open the cache degrades to memory-only — disk errors stop
surfacing on the request path — and probes re-enable the tier once the
filesystem recovers.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict

from ..durability.atomic import DurableFile, find_stale_temps
from ..durability.fingerprint import fingerprint_json
from .protocol import EncodedJSON

__all__ = ["MemoCache"]


class MemoCache:
    """LRU memo cache for solution payloads, with an optional disk tier.

    ``capacity=0`` disables caching entirely (every ``get`` misses and
    ``put`` is a no-op) while keeping the counters live, so a service
    configured cache-less still reports meaningful statistics.
    """

    def __init__(
        self,
        capacity: int = 256,
        cache_dir: str | None = None,
        *,
        breaker=None,
    ) -> None:
        if capacity < 0:
            raise ValueError(
                f"MemoCache.capacity must be >= 0, got {capacity!r}"
            )
        self.capacity = capacity
        self.cache_dir = cache_dir
        self._breaker = breaker
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, EncodedJSON] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._evictions = 0
        self._stores = 0
        self._disk_rejects = 0
        self._disk_errors = 0
        self._disk_skipped = 0
        self._stale_temps_removed = 0
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            self._sweep_stale_temps()

    def _sweep_stale_temps(self) -> None:
        """Remove temp files a crashed writer left mid-publish.

        Safe by construction: :class:`DurableFile` temps become real
        entries only through the rename, so at open time any remaining
        temp belongs to a writer that no longer exists.
        """
        try:
            stale = find_stale_temps(self.cache_dir)
        except OSError:
            return
        for temp in stale:
            try:
                os.unlink(temp)
            except OSError:
                continue
            self._stale_temps_removed += 1

    # ------------------------------------------------------------------
    def get(self, key: str) -> EncodedJSON | None:
        """The cached solution for ``key``, or None on a miss.

        A memory hit refreshes the entry's LRU position.  On a memory
        miss with a disk tier configured, a valid disk entry is promoted
        into memory and counted as both a miss (of the memory tier) and
        a ``disk_hit``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry
            self._misses += 1
        value = self._load_disk(key)
        if value is None:
            return None
        value = EncodedJSON(value)
        with self._lock:
            self._disk_hits += 1
            self._insert(key, value)
        return value

    def put(self, key: str, value: dict) -> dict:
        """Store ``value`` under ``key`` (and durably, with a disk tier).

        Returns the stored :class:`EncodedJSON` — reply with it, not
        with ``value``, and the solution is encoded once — or ``value``
        itself when caching is disabled.
        """
        if self.capacity == 0:
            return value
        if type(value) is not EncodedJSON:
            value = EncodedJSON(value)
        with self._lock:
            self._stores += 1
            self._insert(key, value)
        self._store_disk(key, value)
        return value

    def _insert(self, key: str, value: EncodedJSON) -> None:
        """Insert under the lock, evicting the least recently used."""
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _disk_allowed(self) -> bool:
        """Whether the disk tier may be touched right now."""
        if self._breaker is None or self._breaker.allow():
            return True
        with self._lock:
            self._disk_skipped += 1
        return False

    def _store_disk(self, key: str, value: dict) -> None:
        if self.cache_dir is None or not self._disk_allowed():
            return
        document = {
            "key": key,
            "solution": value,
            "crc32c": fingerprint_json(value),
        }
        try:
            with DurableFile(self._disk_path(key), "w") as fh:
                json.dump(document, fh, sort_keys=True)
        except OSError:
            # Degraded mode: the entry stays memory-only, the request
            # still succeeds, and the breaker tracks the disk's health.
            with self._lock:
                self._disk_errors += 1
            if self._breaker is not None:
                self._breaker.record_failure()
            return
        if self._breaker is not None:
            self._breaker.record_success()

    def _load_disk(self, key: str) -> dict | None:
        if self.cache_dir is None or not self._disk_allowed():
            return None
        try:
            with open(self._disk_path(key), encoding="utf-8") as fh:
                document = json.load(fh)
        except FileNotFoundError:
            # An ordinary miss — evidence the disk works, not that it
            # is broken.
            if self._breaker is not None:
                self._breaker.record_success()
            return None
        except OSError:
            with self._lock:
                self._disk_errors += 1
            if self._breaker is not None:
                self._breaker.record_failure()
            return None
        except json.JSONDecodeError:
            # Readable but corrupt: a data problem, not a disk outage.
            if self._breaker is not None:
                self._breaker.record_success()
            return None
        if self._breaker is not None:
            self._breaker.record_success()
        solution = document.get("solution") if isinstance(document, dict) else None
        if (
            not isinstance(solution, dict)
            or document.get("key") != key
            or document.get("crc32c") != fingerprint_json(solution)
        ):
            # Corrupt or tampered entry: never serve it, count it.
            with self._lock:
                self._disk_rejects += 1
            return None
        return solution

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counters for the ``/status`` endpoint (a JSON-safe snapshot)."""
        with self._lock:
            snapshot = {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "disk_hits": self._disk_hits,
                "disk_rejects": self._disk_rejects,
                "disk_errors": self._disk_errors,
                "disk_skipped": self._disk_skipped,
                "stale_temps_removed": self._stale_temps_removed,
                "stores": self._stores,
                "evictions": self._evictions,
                "persistent": self.cache_dir is not None,
            }
        if self._breaker is not None:
            snapshot["disk_breaker"] = self._breaker.state
        return snapshot
