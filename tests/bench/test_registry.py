"""Registry: decorator registration, quick variants, selection, discovery."""

from __future__ import annotations

import pytest

from repro.bench import REGISTRY, BenchRegistry, bench_case, discover_benchmarks


def _register_pair(registry: BenchRegistry):
    @bench_case(
        "alpha.full_only",
        group="alpha",
        params={"edge": 128},
        warmup=0,
        repeats=2,
        registry=registry,
    )
    def full_only(edge=128):
        return edge

    @bench_case(
        "alpha.sized",
        group="alpha",
        params={"edge": 128, "iterations": 4},
        quick={"edge": 16},
        registry=registry,
    )
    def sized(edge=128, iterations=4):
        return edge * iterations

    return full_only, sized


class TestRegistration:
    def test_decorator_returns_function_unchanged(self):
        registry = BenchRegistry()
        full_only, _ = _register_pair(registry)
        assert full_only(edge=2) == 2
        assert len(registry) == 2
        assert "alpha.sized" in registry

    def test_duplicate_name_different_function_rejected(self):
        registry = BenchRegistry()
        _register_pair(registry)
        with pytest.raises(ValueError, match="already registered"):
            @bench_case("alpha.sized", registry=registry)
            def other():
                pass

    def test_reregistration_of_same_function_is_idempotent(self):
        registry = BenchRegistry()

        def make():
            @bench_case("beta.case", registry=registry, repeats=5)
            def beta_case():
                pass

        make()
        make()
        assert registry.get("beta.case").repeats == 5

    def test_unknown_name_lists_known(self):
        registry = BenchRegistry()
        _register_pair(registry)
        with pytest.raises(KeyError, match="alpha.sized"):
            registry.get("nope")


class TestResolve:
    def test_full_params(self):
        registry = BenchRegistry()
        _, _ = _register_pair(registry)
        bench = registry.get("alpha.sized").resolve(quick=False)
        assert bench.kwargs == {"edge": 128, "iterations": 4}

    def test_quick_overrides_merge_over_params(self):
        registry = BenchRegistry()
        _register_pair(registry)
        bench = registry.get("alpha.sized").resolve(quick=True)
        assert bench.kwargs == {"edge": 16, "iterations": 4}

    def test_quick_true_keeps_full_params(self):
        registry = BenchRegistry()

        @bench_case("g.case", params={"n": 3}, quick=True, registry=registry)
        def case(n=3):
            pass

        assert registry.get("g.case").resolve(quick=True).kwargs == {"n": 3}

    def test_no_quick_variant_raises(self):
        registry = BenchRegistry()
        _register_pair(registry)
        with pytest.raises(ValueError, match="no quick variant"):
            registry.get("alpha.full_only").resolve(quick=True)


class TestSelect:
    def test_quick_selection_excludes_full_only(self):
        registry = BenchRegistry()
        _register_pair(registry)
        names = [c.name for c in registry.select(quick=True)]
        assert names == ["alpha.sized"]

    def test_filter_is_substring_over_group_and_name(self):
        registry = BenchRegistry()
        _register_pair(registry)
        assert [
            c.name for c in registry.select(filter="FULL")
        ] == ["alpha.full_only"]
        assert [
            c.name for c in registry.select(filter="alpha/")
        ] == ["alpha.full_only", "alpha.sized"]
        assert registry.select(filter="zzz") == []

    def test_ordering_by_group_then_name(self):
        registry = BenchRegistry()

        @bench_case("z.last", group="zeta", registry=registry)
        def z():
            pass

        _register_pair(registry)
        names = [c.name for c in registry.select()]
        assert names == ["alpha.full_only", "alpha.sized", "z.last"]


class TestDiscovery:
    def test_discovers_the_migrated_figure_scripts(self):
        imported, errors = discover_benchmarks()
        assert errors == []
        assert "benchmarks.bench_fig5_buffer" in imported
        for name in (
            "table1.scheduler_sweep",
            "fig4.blocksize_campaign",
            "fig5.buffer_plan",
            "fig11.weak_scaling",
        ):
            assert name in REGISTRY, name
        # Every migrated case ships a CI-sized quick variant.
        quick = {c.name for c in REGISTRY.select(quick=True)}
        assert "fig5.buffer_plan" in quick
        assert "fig11.weak_scaling" in quick

    def test_missing_directory_reports_not_raises(self, tmp_path):
        imported, errors = discover_benchmarks(tmp_path / "absent")
        assert imported == []
        assert errors and "no benchmarks" in errors[0]
