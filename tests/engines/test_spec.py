"""CampaignSpec: validation, canonical fingerprint, journal header."""

import dataclasses
import json

import pytest

from repro.durability import canonical_json
from repro.engines import CampaignSpec
from repro.framework import ours_config


class TestValidation:
    def test_defaults_are_valid(self):
        spec = CampaignSpec()
        assert spec.app == "nyx"
        assert spec.engine == "sim"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("app", "lammps"),
            ("nodes", 0),
            ("nodes", 2.5),
            ("ppn", -1),
            ("iterations", -3),
            ("solution", "theirs"),
            ("seed", "one"),
            ("engine", ""),
            ("faults", [1, 2]),
            ("config", "ours"),
            ("data_edge", 1),
            ("data_fields", 0),
            ("data_block_bytes", 0),
            ("workers", 0),
            ("task_deadline_s", 0.0),
            ("task_deadline_s", -1.0),
            ("max_task_retries", -1),
            ("max_task_retries", 1.5),
            ("engine", "mpi"),
        ],
    )
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"CampaignSpec.{field}"):
            CampaignSpec(**{field: value})

    def test_speculative_frac_is_retired(self):
        # The task deadline is the one straggler rule.
        with pytest.raises(TypeError, match="speculative_frac"):
            CampaignSpec(speculative_frac=0.5)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CampaignSpec().nodes = 8


class TestFingerprint:
    def test_canonical_json_serializable(self):
        spec = CampaignSpec(config=ours_config(), data_dir="/tmp/x")
        text = canonical_json(spec.to_json_dict())
        assert json.loads(text)["app"] == "nyx"

    def test_fingerprint_stable_and_sensitive(self):
        a = CampaignSpec(seed=3)
        b = CampaignSpec(seed=3)
        c = CampaignSpec(seed=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_data_dir_location_not_in_fingerprint(self):
        # The data plane's *shape* is identity; its directory is not.
        a = CampaignSpec(data_dir="/tmp/a")
        b = CampaignSpec(data_dir="/tmp/b")
        assert a.fingerprint() == b.fingerprint()

    def test_supervision_knobs_not_in_fingerprint(self):
        # Deadlines and retries shape *how* the data plane runs,
        # never *what* bytes it produces: not campaign identity.
        a = CampaignSpec()
        b = CampaignSpec(task_deadline_s=None, max_task_retries=9)
        assert a.fingerprint() == b.fingerprint()
        assert "task_deadline_s" not in json.dumps(a.to_json_dict())

    def test_supervision_knob_defaults(self):
        spec = CampaignSpec()
        assert spec.task_deadline_s == 30.0
        assert spec.max_task_retries == 2
        assert CampaignSpec(task_deadline_s=None).task_deadline_s is None


class TestJournalHeader:
    def test_round_trip(self):
        spec = CampaignSpec(
            app="warpx", nodes=2, ppn=3, iterations=4, seed=9,
            engine="process",
        )
        header = spec.journal_header()
        assert header["spec_crc32c"] == spec.control_fingerprint()
        # No data plane configured, so the control identity is the
        # full identity — and the rebuilt spec passes the resume check.
        assert spec.control_fingerprint() == spec.fingerprint()
        rebuilt = CampaignSpec.from_journal_header(header)
        assert rebuilt == spec
        assert rebuilt.control_fingerprint() == header["spec_crc32c"]

    def test_data_plane_excluded_from_control_identity(self):
        spec = CampaignSpec(app="nyx", seed=3)
        with_data = dataclasses.replace(spec, data_dir="/tmp/out")
        assert with_data.fingerprint() != spec.fingerprint()
        assert with_data.control_fingerprint() == spec.control_fingerprint()
        assert (
            with_data.journal_header()["spec_crc32c"]
            == spec.journal_header()["spec_crc32c"]
        )

    def test_legacy_header_defaults_to_sim(self):
        # Pre-engine journals have no "engine" key.
        header = CampaignSpec(app="hacc").journal_header()
        del header["engine"]
        assert CampaignSpec.from_journal_header(header).engine == "sim"
