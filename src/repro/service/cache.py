"""Solution memo cache: keyed by request identity, in-memory LRU.

The whole campaign stack is deterministic by construction (that is what
makes journal resume possible), so a solve request's canonical
identity fully determines its solution — memoization is *exact*, not
heuristic.  The cache holds JSON-safe solution payloads keyed by
:func:`~repro.service.protocol.solve_request_key` in a bounded LRU
(``capacity`` entries, least-recently-*used* eviction) guarded by one
lock, with hit/miss/eviction counters.  Each entry is an
:class:`~repro.service.protocol.EncodedJSON`, encoded once when stored,
so a hit's reply writes the solution's bytes without encoding them
again.

The cache lives and dies with its process.  Durability across restarts
is the request ledger's job (:mod:`repro.service.recovery`): it records
each executed solve's reply and serves it to retries under the same
idempotency key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .protocol import EncodedJSON

__all__ = ["MemoCache"]


class MemoCache:
    """LRU memo cache for solution payloads.

    ``capacity=0`` disables caching entirely (every ``get`` misses and
    ``put`` is a no-op) while keeping the counters live, so a service
    configured cache-less still reports meaningful statistics.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(
                f"MemoCache.capacity must be >= 0, got {capacity!r}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, EncodedJSON] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._stores = 0

    # ------------------------------------------------------------------
    def get(self, key: str) -> EncodedJSON | None:
        """The cached solution for ``key``, or None on a miss.

        A hit refreshes the entry's LRU position.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: str, value: dict) -> dict:
        """Store ``value`` under ``key``, evicting the least recently used.

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
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return value

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counters for the ``/status`` endpoint (a JSON-safe snapshot)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
            }
