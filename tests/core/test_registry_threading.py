"""The algorithm tables are constant, and solve() is safe under threads.

The scheduling service dispatches ``solve()`` from a worker pool while
other callers list the algorithms; the tables are read-only mappings,
so no caller can change what another one sees.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    ALGORITHMS,
    DEFAULT_ALGORITHM,
    REGISTRY,
    AlgorithmInfo,
    ext_johnson,
    get_algorithm_info,
    list_algorithms,
    solve,
)
from tests.conftest import figure1_instance


class TestConstantTables:
    @pytest.mark.parametrize("table", [REGISTRY, ALGORITHMS])
    def test_assignment_raises(self, table):
        with pytest.raises(TypeError):
            table["test-alias"] = AlgorithmInfo("test-alias", ext_johnson)
        with pytest.raises(TypeError):
            del table[DEFAULT_ALGORITHM]
        assert "test-alias" not in table

    def test_exact_entries_stay_out_of_heuristic_table(self):
        exact = [name for name, info in REGISTRY.items() if info.exact]
        assert exact == ["Exhaustive", "ILP"]
        assert not set(exact) & set(ALGORITHMS)
        assert list_algorithms(include_exact=True) == [
            *list_algorithms(), *exact,
        ]


class TestThreadedStress:
    def test_concurrent_solve_list(self):
        """Concurrent solves and listings: every solve sees a working
        algorithm and every listing the full table."""
        instance = figure1_instance()
        errors: list[BaseException] = []
        start = threading.Barrier(8)
        stop = threading.Event()

        def solver():
            try:
                start.wait()
                for _ in range(60):
                    result = solve(instance, DEFAULT_ALGORITHM)
                    assert result.makespan is not None
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def lister():
            try:
                start.wait()
                while not stop.is_set():
                    names = list_algorithms(include_exact=True)
                    assert names == list(REGISTRY)
                    for name in names:
                        assert get_algorithm_info(name).name == name
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        solvers = [threading.Thread(target=solver) for _ in range(4)]
        listers = [threading.Thread(target=lister) for _ in range(4)]
        for t in solvers + listers:
            t.start()
        for t in solvers:
            t.join(timeout=60)
        stop.set()
        for t in listers:
            t.join(timeout=60)
        assert not errors, errors[0]
