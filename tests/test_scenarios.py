"""Meta-tests for the scenario layer (repro.experiments.scenarios)."""

import pytest

from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    ensure_registered,
    get_scenario,
    register_scenario,
    resolve_scenario,
    run_scenario,
    scenario_names,
)
from tests.conftest import walk_reports

ensure_registered()

#: Scenarios whose result objects carry no Report (they publish counter
#: profiles / energy shares instead); checked via their own payloads.
REPORTLESS = {"fig13", "fig17"}


class TestCatalogue:
    def test_all_campaigns_registered(self):
        assert scenario_names() == [
            "fig3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "sec6g", "scalability", "mt-serving", "mt-saturation",
        ]

    def test_catalogue_metadata_is_declared_everywhere(self):
        # ``python -m repro catalogue`` renders these three fields; every
        # registered spec must declare them (empty tuples would print as
        # blank catalogue cells).
        for name, spec in SCENARIOS.items():
            assert spec.backends, name
            assert spec.drivers, name
            assert spec.sweep_axes, name

    def test_every_spec_is_fully_described(self):
        for spec in SCENARIOS.values():
            assert spec.title
            assert spec.description
            assert callable(spec.build_jobs)
            assert callable(spec.collect)
            assert callable(spec.present)

    def test_resolution_accepts_names_aliases_and_module_spellings(self):
        assert resolve_scenario("fig16") == "fig16"
        assert resolve_scenario("fig16_prealignment") == "fig16"
        assert resolve_scenario("fig12-fm-seeding") == "fig12"
        assert resolve_scenario("summary") == "sec6g"
        assert resolve_scenario("scaling") == "scalability"
        assert resolve_scenario("nope") is None

    def test_get_scenario_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("fig99")

    def test_register_collision_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(ScenarioSpec(
                name="fig12", title="dup", description="dup",
                build_jobs=lambda scale: [], collect=lambda scale, r: r,
            ))


class TestEndToEnd:
    # ``quick_wheel_results`` (conftest.py): one serial quick-scale pass
    # over the whole catalogue, shared by the assertions below.
    @pytest.fixture
    def quick_results(self, quick_wheel_results):
        assert list(quick_wheel_results) == list(SCENARIOS)
        return quick_wheel_results

    def test_every_scenario_yields_a_result(self, quick_results):
        for name, result in quick_results.items():
            assert result is not None, name

    def test_report_scenarios_yield_nonempty_reports(self, quick_results):
        for name, result in quick_results.items():
            if name in REPORTLESS:
                continue
            reports = list(walk_reports(result))
            assert reports, f"{name} produced no Reports"
            assert all(report.runtime_cycles > 0 for report in reports), (
                f"{name} produced a zero-cycle report"
            )

    def test_reportless_scenarios_yield_nonempty_payloads(self, quick_results):
        fig13 = quick_results["fig13"]
        assert fig13.without_coalescing and fig13.with_coalescing
        fig17 = quick_results["fig17"]
        assert all(fig17.shares[system] for system in ("beacon-d", "beacon-s"))

    def test_run_scenario_resolves_aliases(self):
        result = run_scenario("fig13_coalescing", ExperimentScale.quick(),
                              runner=ParallelSweepRunner(jobs=1))
        assert result.imbalance_with < result.imbalance_without


class TestCli:
    def test_run_subcommand_executes_scenario(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig13", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "coalescing" in out
        assert "imbalance" in out

    def test_run_subcommand_accepts_alias(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig13-coalescing", "--quick"]) == 0
        assert "fig13" in capsys.readouterr().out

    def test_run_subcommand_rejects_unknown(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["run", "fig99", "--quick"])

    def test_run_subcommand_requires_target(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["run"])
