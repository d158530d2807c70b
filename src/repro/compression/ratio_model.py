"""Pre-compression prediction of ratio and compression time (Section 4.4).

The framework must know, *before* compressing, (a) each block's compressed
size — to reserve its offset in the shared file and to balance I/O — and
(b) each compression task's duration — to schedule it.  The paper uses the
ratio-quality model of Jin et al. (ICDE '22) and the throughput model of
Jin et al. (SC '22); we reproduce their structure:

* **ratio**: quantize a strided sample of the block, take the histogram,
  and price it either with the shared tree's actual code lengths or with
  its Shannon entropy (a tight proxy for an optimal per-block tree), plus
  outlier and header costs and a calibrated lossless-stage factor;
* **time**: a throughput constant plus a per-block setup cost, with the
  Huffman-tree build added when no shared tree is used — this constant
  term is exactly why tiny blocks hurt without the shared tree (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import huffman
from .kernels.base import num_chunks
from .sz import SZCompressor

__all__ = ["RatioEstimate", "RatioModel", "CompressionThroughputModel"]

#: Bits charged per outlier (flat index + raw delta in the outlier arrays).
OUTLIER_BITS = 128.0


@dataclass(frozen=True)
class RatioEstimate:
    """Predicted compression outcome for one block."""

    ratio: float
    compressed_nbytes: int
    bits_per_value: float
    outlier_fraction: float


class RatioModel:
    """Sample-based compression-ratio estimator."""

    def __init__(
        self,
        compressor: SZCompressor,
        sample_limit: int = 65536,
        lossless_factor: float = 0.9,
        header_bytes: int | None = None,
        safety_factor: float = 1.10,
    ) -> None:
        # header_bytes overrides the per-block overhead estimate; by
        # default it comes from the backend (its fixed_overhead_bytes)
        # plus the actual serialized size of the codebook the sample
        # histogram yields — the run-length books blocks embed are a few
        # dozen bytes, not the ~260 B the flat layout cost.
        self.compressor = compressor
        self.sample_limit = sample_limit
        self.lossless_factor = lossless_factor
        self.header_bytes = header_bytes
        # Reservations use a small safety margin so overflow stays the
        # "rare occurrence" Section 4.4 describes; the cost is slack in
        # the shared file, not coordination.
        self.safety_factor = safety_factor

    def _sample(self, values: np.ndarray) -> np.ndarray:
        """A contiguous-chunk sample preserving Lorenzo delta statistics."""
        if values.size <= self.sample_limit:
            return values
        # Take evenly spaced slabs along axis 0 so in-slab neighbour
        # relationships (which drive the delta histogram) are intact.
        rows = values.shape[0] if values.ndim > 1 else values.size
        row_values = values.size // rows
        want_rows = max(1, self.sample_limit // max(1, row_values))
        stride = max(1, rows // want_rows)
        if values.ndim == 1:
            return values[: self.sample_limit]
        return values[::stride][:want_rows]

    def predict(
        self,
        values: np.ndarray,
        error_bound: float,
        shared_codebook: huffman.Codebook | None = None,
    ) -> RatioEstimate:
        """Estimate the compressed size of ``values`` without compressing."""
        sample = np.ascontiguousarray(self._sample(values))
        hist = self.compressor.histogram(sample, error_bound)
        total = int(hist.sum())
        if total == 0:
            return RatioEstimate(1.0, values.nbytes, 8.0 * values.itemsize, 0.0)

        backend = self.compressor.backend
        sentinel = self.compressor.sentinel
        outliers = int(hist[sentinel])
        codebook_bytes = 0
        if shared_codebook is not None and backend.uses_codebook:
            # Escaped symbols are rerouted to the sentinel, so each pays
            # the sentinel's code length *and* the outlier channel.
            bits, escapes = huffman.estimate_encoded_bits(
                hist, shared_codebook, sentinel=sentinel
            )
            outliers += escapes
            coded_bits = float(bits)
        elif backend.uses_codebook:
            # Native tree: price the sample histogram with the codebook
            # it would actually get, and the codebook blob at the size
            # it actually serializes to.
            codebook = huffman.build_codebook(
                hist,
                force_symbols=(sentinel,),
                max_length=backend.build_max_length,
            )
            bits, _ = huffman.estimate_encoded_bits(hist, codebook)
            # The full block's histogram drifts from the sample's, and
            # its (slightly different) codebook prices it a bit worse
            # than the sample's codebook prices the sample.
            coded_bits = float(bits) * 1.03
            codebook_bytes = len(huffman.codebook_to_bytes(codebook))
        else:
            # Self-coding formats: entropy scaled by the backend's
            # measured coding efficiency (deflate lands under the
            # per-symbol bound on runs; zlib's coding is looser).
            probs = hist[hist > 0] / total
            entropy = float(-(probs * np.log2(probs)).sum())
            coded_bits = (
                max(entropy, 1.0) * total * backend.ratio_entropy_factor
            )

        payload_bits = coded_bits + outliers * OUTLIER_BITS
        payload_bytes = payload_bits / 8.0 * self.lossless_factor
        bits_per_value = payload_bits / total

        original = values.nbytes
        # Huffman blocks carry the v4 chunk index: one uint16 delta per
        # chunk, deflated when long enough to beat zlib's fixed cost —
        # then about one byte each (the high byte hardly varies).
        chunks = (
            num_chunks(values.size, self.compressor.chunk_size)
            if backend.uses_codebook
            else 0
        )
        chunk_bytes = min(2 * chunks, 64 + chunks)
        overhead = (
            self.header_bytes
            if self.header_bytes is not None
            else backend.fixed_overhead_bytes + codebook_bytes
        )
        predicted = int(
            (
                original * (payload_bytes / (total * values.itemsize))
            )
            * self.safety_factor
            + overhead
            + chunk_bytes
        )
        predicted = max(predicted, overhead)
        ratio = original / predicted if predicted else 1.0
        return RatioEstimate(
            ratio=ratio,
            compressed_nbytes=predicted,
            bits_per_value=bits_per_value,
            outlier_fraction=outliers / total,
        )


@dataclass(frozen=True)
class CompressionThroughputModel:
    """Calibrated duration model for compression tasks.

    The defaults approximate SZ3 on one POWER9 core (the paper compresses
    on CPU cores while GPUs compute): ~250 MB/s steady-state throughput, a
    fixed per-block setup cost, and a constant Huffman-tree build cost
    paid only when no shared tree is available (Section 4.3 observes the
    build time is nearly independent of block size because the alphabet is
    fixed).
    """

    throughput_bytes_per_s: float = 250e6
    setup_s: float = 0.0005
    tree_build_s: float = 0.004

    def compression_time(
        self, nbytes: int, shared_tree: bool = True
    ) -> float:
        """Predicted duration of compressing ``nbytes`` of raw data."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        t = self.setup_s + nbytes / self.throughput_bytes_per_s
        if not shared_tree:
            t += self.tree_build_s
        return t
