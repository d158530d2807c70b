"""The benchmark modules import cleanly and still define every test whose
median a CI step reads."""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

#: Every pytest-benchmark test a CI step reads ``stats.median`` from.
_GATED = {
    "bench_codec_micro.py": (
        "test_huffman_decode[pure]",
        "test_huffman_decode[numpy]",
        "test_huffman_decode_64k[pure]",
        "test_huffman_decode_64k[numpy]",
        "test_sz_decompress_64k",
        "test_encode[pure]",
        "test_encode[numpy]",
        "test_encode[skewed-pure]",
        "test_encode[skewed-numpy]",
    ),
    "bench_durability.py": (
        "test_crc32c_pieces[small]",
        "test_crc32c_pieces[small_bytewise]",
        "test_crc32c_pieces[payload]",
        "test_crc32c_pieces[payload_bytewise]",
        "test_crc32c_pieces[half_payload]",
    ),
    "bench_core_schedule.py": (
        "test_extjohnson_bf[144]",
        "test_extjohnson_bf[576]",
        "test_two_lists_greedy[kernel]",
        "test_two_lists_greedy[reference]",
    ),
    "bench_service.py": (
        "test_solve_cold",
        "test_solve_cached",
        "test_http_hit_roundtrip",
    ),
}


def test_benchmarks_collect_every_gated_test():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q",
            # The ini file's own -q would fold the ids into counts.
            "-o", "addopts=", "-p", "no:cacheprovider", "benchmarks/",
        ],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    collected = set(result.stdout.split())
    missing = [
        f"benchmarks/{module}::{test}"
        for module, tests in _GATED.items()
        for test in tests
        if f"benchmarks/{module}::{test}" not in collected
    ]
    assert not missing, missing
