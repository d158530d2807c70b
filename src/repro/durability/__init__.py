"""Crash-consistent durability: checksums, atomic commits, journaling.

The write path the paper conceals (compress on the fly, write from a
background thread) is also the write path a crash can tear at any
instant.  This package makes it crash-consistent and verifiable:

* :mod:`~repro.durability.checksum` — CRC32C computed at compression
  time and verified end to end on load;
* :mod:`~repro.durability.atomic` — :class:`DurableFile` temp + fsync +
  rename replacement so readers never observe a torn file;
* :mod:`~repro.durability.journal` — the one CRC'd, append-only
  record log (:class:`RecordLog`) and the write-ahead campaign journal
  behind ``repro campaign --journal/--resume``, one of its two record
  schemas (the other is the service's request ledger);
* :mod:`~repro.durability.fingerprint` — canonical JSON hashed two
  ways: the CRC32C integrity stamp (journal spec checks) and the
  BLAKE2b-128 lookup key (the scheduling service's
  memo-cache, ledger and retry keys);
* :mod:`~repro.durability.verify` — the ``repro verify`` scrubber
  (imported lazily: it pulls in the compression and io stacks, which
  themselves checksum through this package).
"""

from .atomic import (
    DurableFile,
    atomic_write_bytes,
    atomic_write_text,
    find_stale_temps,
    fsync_dir,
    temp_path_for,
)
from .checksum import crc32c, crc32c_combine, crc32c_hex
from .fingerprint import fingerprint_json, identity_json
from .journal import (
    CampaignJournal,
    JournalError,
    RecordLog,
    canonical_json,
    decode_record,
    encode_record,
    read_journal,
)

__all__ = [
    "crc32c",
    "crc32c_combine",
    "crc32c_hex",
    "fingerprint_json",
    "identity_json",
    "DurableFile",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
    "find_stale_temps",
    "temp_path_for",
    "CampaignJournal",
    "RecordLog",
    "JournalError",
    "canonical_json",
    "read_journal",
    "encode_record",
    "decode_record",
    # lazy (see __getattr__): the scrubber imports io + compression
    "VerifyReport",
    "verify_snapshot",
    "verify_journal",
    "verify_ledger",
    "verify_path",
]

_LAZY = {
    "VerifyReport",
    "verify_snapshot",
    "verify_journal",
    "verify_ledger",
    "verify_path",
}


def __getattr__(name: str):
    if name in _LAZY:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
