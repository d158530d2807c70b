"""Cross-engine equivalence: sim and process must agree on everything
except wall-clock.

The contract under test (ISSUE 6): the same CampaignSpec + seed run
under the ``sim`` and ``process`` engines produces

* identical compressed-block CRC32Cs (the data planes are byte-equal),
* structurally equal campaign reports (timings excepted), and
* byte-identical journal records, so a journal written under one
  engine resumes under it identically to an uninterrupted run.
"""

import dataclasses

import pytest

from repro.durability import CampaignJournal
from repro.engines import CampaignSpec, run_campaign
from repro.framework.report import campaign_result_to_dict


def small_spec(**overrides) -> CampaignSpec:
    base = dict(
        nodes=1,
        ppn=2,
        iterations=4,
        seed=13,
        data_edge=8,
        data_fields=2,
        data_block_bytes=2048,
    )
    base.update(overrides)
    return CampaignSpec(**base)


@pytest.fixture(scope="module")
def paired_reports(tmp_path_factory):
    """One campaign run under both engines (module-scoped: it is the
    expensive part of this suite)."""
    d1 = tmp_path_factory.mktemp("sim-data")
    d2 = tmp_path_factory.mktemp("process-data")
    sim = run_campaign(
        small_spec(engine="sim", data_dir=str(d1))
    )
    process = run_campaign(
        small_spec(engine="process", data_dir=str(d2), workers=2)
    )
    return sim, process


class TestCrossEngineEquivalence:
    def test_identical_block_crc32cs(self, paired_reports):
        sim, process = paired_reports
        assert sim.block_crc32c  # non-empty: the data plane really ran
        assert sim.block_crc32c == process.block_crc32c

    def test_identical_compressed_sizes(self, paired_reports):
        sim, process = paired_reports
        assert sim.data.num_blocks == process.data.num_blocks
        assert sim.data.raw_bytes == process.data.raw_bytes
        assert sim.data.compressed_bytes == process.data.compressed_bytes

    def test_structurally_equal_reports(self, paired_reports):
        sim, process = paired_reports
        # campaign_result_to_dict holds only modelled values — no wall
        # clock — so equality here is exact, not approximate.
        assert campaign_result_to_dict(
            sim.result
        ) == campaign_result_to_dict(process.result)

    def test_wall_clock_is_the_only_difference(self, paired_reports):
        sim, process = paired_reports
        assert sim.modelled_time_s == process.modelled_time_s
        assert sim.engine != process.engine


class TestJournalEquivalence:
    def test_identical_journal_records(self, tmp_path):
        """Everything but the header line (which names the engine) is
        byte-identical across engines."""
        paths = {}
        for engine in ("sim", "process"):
            path = tmp_path / f"{engine}.journal"
            report = run_campaign(
                small_spec(engine=engine, iterations=3),
                journal_path=str(path),
            )
            report.close()
            paths[engine] = path.read_bytes().splitlines()
        assert paths["sim"][1:] == paths["process"][1:]
        assert paths["sim"][0] != paths["process"][0]

    @pytest.mark.parametrize("engine", ["sim", "process"])
    def test_resume_matches_uninterrupted_run(self, tmp_path, engine):
        """Truncate a journal mid-campaign; the resumed run must equal
        the uninterrupted one and choose its engine from the header."""
        spec = small_spec(engine=engine, iterations=4)
        journal_path = tmp_path / "full.journal"
        full = run_campaign(spec, journal_path=str(journal_path))
        full.close()
        lines = journal_path.read_bytes().splitlines(keepends=True)
        # begin + 2 committed iterations (plan+commit each): crash here.
        truncated = tmp_path / "crashed.journal"
        truncated.write_bytes(b"".join(lines[:5]))

        resumed = run_campaign(resume_path=str(truncated))
        resumed.close()
        assert resumed.engine == engine
        assert campaign_result_to_dict(
            resumed.result
        ) == campaign_result_to_dict(full.result)
        # The resumed journal completed: it now equals the full one.
        assert truncated.read_bytes() == journal_path.read_bytes()
        replay = CampaignJournal.resume(str(truncated))
        assert replay.is_complete
        replay.close()
