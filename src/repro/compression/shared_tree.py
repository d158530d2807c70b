"""Shared Huffman tree across blocks and iterations (Section 4.3).

Building a Huffman tree costs roughly constant time regardless of block
size (the alphabet is fixed), so for small fine-grained blocks the build
dominates compression.  The fix: build one tree per process from the
*previous* iteration's quantization-code histogram and reuse it for every
block of the current iteration.  Values the shared tree cannot code fall
back to the outlier channel, so correctness never depends on tree
freshness — only the compression ratio degrades as the data drifts
(Figure 6 quantifies this).

:class:`SharedTreeManager` owns the lifecycle: accumulate histograms while
an iteration compresses, then :meth:`end_iteration` rebuilds the tree for
the next one (or keeps it, per the configured rebuild period).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import huffman
from .kernels import CodecBackend, resolve_backend

__all__ = ["SharedTreeManager", "degradation_ratio"]


@dataclass
class _TreeState:
    codebook: huffman.Codebook
    built_at_iteration: int


class SharedTreeManager:
    """Per-process lifecycle manager for the shared Huffman tree.

    Args:
        num_symbols: alphabet size (``2 * radius + 1`` including the
            outlier sentinel).
        sentinel: the outlier-escape symbol; always granted a code so any
            block can be encoded with any tree generation.
        rebuild_period: rebuild the tree from fresh histograms every this
            many iterations (1 = rebuild each iteration from the previous
            one, the paper's recommended trade-off).
        backend: codec kernel backend (name, instance, or None for the
            ``numpy`` default); shared trees are length-limited to the
            backend's fast decode-table depth so every block they code
            stays on the vectorized path.
    """

    def __init__(
        self,
        num_symbols: int,
        sentinel: int,
        rebuild_period: int = 1,
        backend: str | CodecBackend | None = None,
    ) -> None:
        if rebuild_period < 1:
            raise ValueError("rebuild_period must be >= 1")
        self.num_symbols = num_symbols
        self.sentinel = sentinel
        self.rebuild_period = rebuild_period
        self.backend = resolve_backend(backend)
        self._pending = np.zeros(num_symbols, dtype=np.int64)
        self._state: _TreeState | None = None
        self._iteration = 0

    @property
    def codebook(self) -> huffman.Codebook | None:
        """The current shared tree, or None before any data was seen."""
        return self._state.codebook if self._state else None

    @property
    def tree_age(self) -> int:
        """Iterations elapsed since the current tree was built."""
        if self._state is None:
            return 0
        return self._iteration - self._state.built_at_iteration

    def observe(self, histogram: np.ndarray) -> None:
        """Record one block's quantization-code histogram."""
        hist = np.asarray(histogram, dtype=np.int64)
        if hist.size != self.num_symbols:
            raise ValueError(
                f"histogram has {hist.size} bins, expected {self.num_symbols}"
            )
        self._pending += hist

    def end_iteration(self) -> bool:
        """Close the current iteration; maybe rebuild.  Returns True if
        the tree was rebuilt."""
        self._iteration += 1
        if not self.backend.uses_codebook:
            # Self-coding backends (deflate/zlib) never consume a shared
            # tree — building one would be pure waste.
            return False
        due = (
            self._state is None
            or self.tree_age >= self.rebuild_period
        )
        rebuilt = False
        if due and self._pending.sum() > 0:
            self._state = _TreeState(
                codebook=huffman.build_codebook(
                    self._pending,
                    force_symbols=(self.sentinel,),
                    max_length=self.backend.build_max_length,
                ),
                built_at_iteration=self._iteration,
            )
            rebuilt = True
        if rebuilt:
            self._pending[:] = 0
        return rebuilt


def degradation_ratio(
    histogram: np.ndarray,
    shared: huffman.Codebook,
    outlier_bits: float = 128.0,
) -> float:
    """Compression-ratio factor of coding ``histogram`` with ``shared``
    instead of a tree built from ``histogram`` itself.

    Returns ``native_bits / shared_bits`` (1.0 = no degradation, smaller =
    worse).  Symbols the shared tree cannot code pay ``outlier_bits`` each
    (position + value in the outlier channel).  This is the quantity
    Figure 6 plots across iterations.
    """
    native = huffman.build_codebook(histogram)
    native_bits, _ = huffman.estimate_encoded_bits(histogram, native)
    shared_bits, escapes = huffman.estimate_encoded_bits(histogram, shared)
    shared_total = shared_bits + escapes * outlier_bits
    if shared_total <= 0:
        return 1.0
    if native_bits <= 0:
        return 1.0
    return native_bits / shared_total
