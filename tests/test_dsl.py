"""Tests for the scenario DSL (repro.experiments.dsl)."""

import copy
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.dsl import (
    DRIVER_PARAMS,
    PAYLOAD_KINDS,
    SCHEMA_FIELDS,
    SWEEP_AXES,
    PayloadError,
    compile_payload,
    load_scenario_file,
    parse_payload_text,
    register_payload,
    run_sweep_point,
    schema_reference,
    validate_payload,
)
from repro.experiments.tenants import MultiTenantResult
from repro.perf.harness import fingerprint


def sweep_payload(**overrides):
    """A minimal valid ``kind: sweep`` payload (dict, copy per test)."""
    payload = {
        "scenario": "dsl-sweep-test",
        "kind": "sweep",
        "backends": ["beacon-d"],
        "workload": {"driver": "hash-seeding", "datasets": ["Pt"],
                     "params": {"k": 13}},
        "sweep": [{"axis": "num_switches", "values": [1, 2]}],
    }
    payload.update(overrides)
    return payload


def tenant_payload(**overrides):
    """A minimal valid ``kind: multi-tenant`` payload."""
    payload = {
        "scenario": "dsl-mt-test",
        "kind": "multi-tenant",
        "backends": ["beacon-d"],
        "seed": 11,
        "tenants": [
            {"name": "aligner",
             "arrival": {"process": "poisson", "rate": 0.2},
             "mix": {"fm-seeding": 3, "hash-seeding": 1}, "queries": 8},
            {"name": "counter",
             "arrival": {"process": "uniform", "rate": 0.15},
             "mix": {"kmer-counting": 1}, "queries": 5},
        ],
        "sweep": {"tenant_counts": [2], "arrival_scales": [1.0]},
    }
    payload.update(overrides)
    return payload


class TestValidationAccepts:
    def test_minimal_sweep_payload_normalizes(self):
        payload = validate_payload(sweep_payload())
        assert payload.name == "dsl-sweep-test"
        assert payload.kind == "sweep"
        assert payload.backends == ("beacon-d",)
        assert payload.workload.driver == "hash-seeding"
        assert payload.workload.params == (("k", 13),)
        assert payload.sweep_axes[0].axis == "num_switches"
        assert payload.sweep_axes[0].values == (1, 2)

    def test_defaults_fill_in(self):
        payload = validate_payload({
            "scenario": "tiny", "backends": ["beacon-s"],
            "workload": {"driver": "fm-seeding"},
        })
        assert payload.kind == "sweep"
        assert payload.title == "tiny"
        assert payload.seed == 0
        assert payload.optimizations == "full"
        assert payload.workload.datasets == ("Pt",)
        assert payload.sweep_axes == ()

    def test_backend_aliases_normalize_to_canonical_names(self):
        payload = validate_payload({
            "scenario": "alias", "backends": ["ddr"],
            "workload": {"driver": "fm-seeding"},
        })
        assert payload.backends == ("ddr-ndp",)

    def test_multi_tenant_payload_normalizes(self):
        payload = validate_payload(tenant_payload())
        assert payload.kind == "multi-tenant"
        assert [t.name for t in payload.tenants] == ["aligner", "counter"]
        assert payload.tenants[0].mix == (("fm-seeding", 3.0),
                                          ("hash-seeding", 1.0))
        assert payload.tenant_sweep.tenant_counts == (2,)
        assert payload.tenant_sweep.arrival_scales == (1.0,)

    def test_trace_arrival_round_trips(self):
        data = tenant_payload()
        data["tenants"][0]["arrival"] = {"process": "trace",
                                         "trace": [50, 125, 300]}
        payload = validate_payload(data)
        assert payload.tenants[0].arrival.process == "trace"
        assert payload.tenants[0].arrival.trace == (50, 125, 300)


#: One rejection case per validation rule: (payload, expected error path).
REJECTIONS = [
    ("not a mapping", ["nope"], "<payload>"),
    ("unknown top-level field", sweep_payload(bogus=1), "bogus"),
    ("missing scenario", {"backends": ["beacon-d"]}, "scenario"),
    ("bad scenario name", sweep_payload(scenario="Bad Name"), "scenario"),
    ("non-str title", sweep_payload(title=7), "title"),
    ("bad kind", sweep_payload(kind="batch"), "kind"),
    ("non-list aliases", sweep_payload(aliases="x"), "aliases"),
    ("non-str alias", sweep_payload(aliases=[1]), "aliases[0]"),
    ("negative seed", sweep_payload(seed=-1), "seed"),
    ("bool seed", sweep_payload(seed=True), "seed"),
    ("missing backends", {"scenario": "x",
                          "workload": {"driver": "fm-seeding"}}, "backends"),
    ("empty backends", sweep_payload(backends=[]), "backends"),
    ("non-str backend", sweep_payload(backends=[3]), "backends[0]"),
    ("unknown backend", sweep_payload(backends=["beacon-d", "tpu"]),
     "backends[1]"),
    ("cpu serving multi-tenant", tenant_payload(backends=["cpu"]),
     "backends[0]"),
    ("missing workload", {"scenario": "x", "backends": ["beacon-d"]},
     "workload"),
    ("unknown workload field",
     sweep_payload(workload={"driver": "fm-seeding", "reads": 9}),
     "workload.reads"),
    ("missing driver", sweep_payload(workload={}), "workload.driver"),
    ("unknown driver", sweep_payload(workload={"driver": "assembly"}),
     "workload.driver"),
    ("empty datasets",
     sweep_payload(workload={"driver": "fm-seeding", "datasets": []}),
     "workload.datasets"),
    ("unknown dataset",
     sweep_payload(workload={"driver": "fm-seeding", "datasets": ["Zz"]}),
     "workload.datasets[0]"),
    ("param unknown for driver",
     sweep_payload(workload={"driver": "fm-seeding", "params": {"k": 13}}),
     "workload.params.k"),
    ("non-positive param",
     sweep_payload(workload={"driver": "hash-seeding", "params": {"k": 0}}),
     "workload.params.k"),
    ("bad optimizations", sweep_payload(optimizations="most"),
     "optimizations"),
    ("sweep not a list", sweep_payload(sweep={"axis": "pe_divisor"}),
     "sweep"),
    ("unknown sweep field",
     sweep_payload(sweep=[{"axis": "pe_divisor", "values": [1], "step": 2}]),
     "sweep[0].step"),
    ("unknown axis", sweep_payload(sweep=[{"axis": "voltage",
                                           "values": [1]}]),
     "sweep[0].axis"),
    ("duplicate axis",
     sweep_payload(sweep=[{"axis": "pe_divisor", "values": [1]},
                          {"axis": "pe_divisor", "values": [2]}]),
     "sweep[1].axis"),
    ("empty axis values", sweep_payload(sweep=[{"axis": "pe_divisor",
                                                "values": []}]),
     "sweep[0].values"),
    ("non-int axis value", sweep_payload(sweep=[{"axis": "pe_divisor",
                                                 "values": [1.5]}]),
     "sweep[0].values[0]"),
    ("non-positive scale value",
     sweep_payload(sweep=[{"axis": "read_scale", "values": [0]}]),
     "sweep[0].values[0]"),
    ("dataset on sweep kind", sweep_payload(dataset="Pt"), "dataset"),
    ("tenants on sweep kind", sweep_payload(tenants=[]), "tenants"),
    ("workload on multi-tenant kind",
     tenant_payload(workload={"driver": "fm-seeding"}), "workload"),
    ("optimizations on multi-tenant kind",
     tenant_payload(optimizations="full"), "optimizations"),
    ("unknown serving dataset", tenant_payload(dataset="Zz"), "dataset"),
    ("missing tenants", {"scenario": "x", "kind": "multi-tenant",
                         "backends": ["beacon-d"]}, "tenants"),
    ("empty tenants", tenant_payload(tenants=[]), "tenants"),
    ("unknown tenant field",
     tenant_payload(tenants=[{"name": "a", "priority": 1}]),
     "tenants[0].priority"),
    ("missing tenant name", tenant_payload(tenants=[{"queries": 4}]),
     "tenants[0].name"),
    ("duplicate tenant name",
     tenant_payload(tenants=[{"name": "a"}, {"name": "a"}]),
     "tenants[1].name"),
    ("bad arrival process",
     tenant_payload(tenants=[{"name": "a",
                              "arrival": {"process": "bursty"}}]),
     "tenants[0].arrival.process"),
    ("non-positive rate",
     tenant_payload(tenants=[{"name": "a", "arrival": {"rate": 0}}]),
     "tenants[0].arrival.rate"),
    ("rate with trace process",
     tenant_payload(tenants=[{"name": "a",
                              "arrival": {"process": "trace", "rate": 1,
                                          "trace": [5]}}]),
     "tenants[0].arrival.rate"),
    ("trace missing cycles",
     tenant_payload(tenants=[{"name": "a",
                              "arrival": {"process": "trace"}}]),
     "tenants[0].arrival.trace"),
    ("non-increasing trace",
     tenant_payload(tenants=[{"name": "a",
                              "arrival": {"process": "trace",
                                          "trace": [10, 10]}}]),
     "tenants[0].arrival.trace"),
    ("trace cycles without trace process",
     tenant_payload(tenants=[{"name": "a", "arrival": {"trace": [5]}}]),
     "tenants[0].arrival.trace"),
    ("empty mix", tenant_payload(tenants=[{"name": "a", "mix": {}}]),
     "tenants[0].mix"),
    ("unknown query kind",
     tenant_payload(tenants=[{"name": "a", "mix": {"assembly": 1}}]),
     "tenants[0].mix.assembly"),
    ("non-positive mix weight",
     tenant_payload(tenants=[{"name": "a", "mix": {"fm-seeding": 0}}]),
     "tenants[0].mix.fm-seeding"),
    ("zero queries", tenant_payload(tenants=[{"name": "a", "queries": 0}]),
     "tenants[0].queries"),
    ("unknown tenant-sweep field",
     tenant_payload(sweep={"axis": "tenants"}), "sweep.axis"),
    ("empty tenant counts", tenant_payload(sweep={"tenant_counts": []}),
     "sweep.tenant_counts"),
    ("non-positive tenant count",
     tenant_payload(sweep={"tenant_counts": [0]}),
     "sweep.tenant_counts[0]"),
    ("empty arrival scales", tenant_payload(sweep={"arrival_scales": []}),
     "sweep.arrival_scales"),
    ("non-positive arrival scale",
     tenant_payload(sweep={"arrival_scales": [-1]}),
     "sweep.arrival_scales[0]"),
]


class TestValidationRejects:
    @pytest.mark.parametrize(
        "payload,path",
        [case[1:] for case in REJECTIONS],
        ids=[case[0] for case in REJECTIONS],
    )
    def test_rule_violation_names_the_exact_field_path(self, payload, path):
        with pytest.raises(PayloadError) as exc_info:
            validate_payload(payload)
        assert exc_info.value.path == path
        assert str(exc_info.value).startswith(f"{path}: ")

    def test_error_is_a_value_error_with_message(self):
        with pytest.raises(ValueError):
            validate_payload({"scenario": "x"})
        err = PayloadError("a.b", "must be > 0")
        assert err.path == "a.b"
        assert err.message == "must be > 0"


class TestCompilation:
    def test_sweep_spec_carries_catalogue_metadata(self):
        spec = compile_payload(validate_payload(sweep_payload()))
        assert spec.name == "dsl-sweep-test"
        assert spec.backends == ("beacon-d",)
        assert spec.drivers == ("hash-seeding",)
        assert spec.sweep_axes == ("num_switches",)

    def test_sweep_jobs_cover_the_grid_in_order(self):
        data = sweep_payload(backends=["beacon-d", "beacon-s"])
        spec = compile_payload(validate_payload(data))
        keys = [job.key for job in spec.build_jobs(ExperimentScale.quick())]
        assert keys == [
            "beacon-d/Pt/num_switches=1", "beacon-d/Pt/num_switches=2",
            "beacon-s/Pt/num_switches=1", "beacon-s/Pt/num_switches=2",
        ]

    def test_tenant_jobs_cover_counts_and_scales(self):
        data = tenant_payload(
            sweep={"tenant_counts": [1, 3], "arrival_scales": [1.0, 4.0]}
        )
        spec = compile_payload(validate_payload(data))
        keys = [job.key for job in spec.build_jobs(ExperimentScale.quick())]
        assert keys == [
            "beacon-d/tenants=1/arrival=x1",
            "beacon-d/tenants=1/arrival=x4",
            "beacon-d/tenants=3/arrival=x1",
            "beacon-d/tenants=3/arrival=x4",
        ]
        # Count 3 cycles the two declared tenants; the wrapped copy gets
        # a numeric suffix to stay unique.
        tenants = spec.build_jobs(ExperimentScale.quick())[2].args[1]
        assert [t.name for t in tenants] == ["aligner", "counter",
                                             "aligner-2"]

    def test_seed_override_reaches_the_jobs(self):
        spec = compile_payload(validate_payload(tenant_payload()), seed=99)
        job = spec.build_jobs(ExperimentScale.quick())[0]
        assert job.kwargs["seed"] == 99

    def test_register_payload_rejects_name_collisions(self):
        with pytest.raises(ValueError, match="already registered"):
            register_payload(sweep_payload(scenario="fig12"))


class TestRoundTrip:
    def test_sweep_payload_runs_deterministically(self):
        data = sweep_payload(sweep=[])
        scale = ExperimentScale.quick()
        runner = ParallelSweepRunner(jobs=1)
        first = compile_payload(validate_payload(data)).run(scale,
                                                            runner=runner)
        second = compile_payload(validate_payload(data)).run(scale,
                                                             runner=runner)
        prints = fingerprint(first)
        assert prints and prints == fingerprint(second)
        assert all(row[4] > 0 for row in prints)

    def test_multi_tenant_payload_runs_deterministically(self):
        data = tenant_payload()
        scale = ExperimentScale.quick()
        runner = ParallelSweepRunner(jobs=1)
        first = compile_payload(validate_payload(data)).run(scale,
                                                            runner=runner)
        second = compile_payload(validate_payload(data)).run(scale,
                                                             runner=runner)
        assert isinstance(first, MultiTenantResult)
        assert fingerprint(first) == fingerprint(second)
        assert first.points[0].queries == 13

    def test_axis_overrides_change_the_simulated_machine(self):
        scale = ExperimentScale.quick()
        small = run_sweep_point("beacon-d", "hash-seeding", "Pt", scale,
                                (("pe_divisor", 32),), (("k", 13),), "full")
        large = run_sweep_point("beacon-d", "hash-seeding", "Pt", scale,
                                (("pe_divisor", 8),), (("k", 13),), "full")
        assert small.runtime_cycles != large.runtime_cycles


class TestLoading:
    def test_yaml_text_parses(self):
        data = parse_payload_text("scenario: x\nbackends: [beacon-d]\n")
        assert data == {"scenario": "x", "backends": ["beacon-d"]}

    def test_json_text_parses(self):
        text = json.dumps(sweep_payload())
        assert parse_payload_text(text)["scenario"] == "dsl-sweep-test"

    def test_unparseable_text_is_a_payload_error(self):
        with pytest.raises(PayloadError) as exc_info:
            parse_payload_text("{unclosed: [")
        assert exc_info.value.path == "<payload>"

    def test_load_scenario_file_round_trips(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sweep_payload()))
        spec = load_scenario_file(str(path), seed=5)
        assert spec.name == "dsl-sweep-test"

    def test_repo_examples_validate(self):
        for name in ("examples/multi_tenant.yaml",
                     "examples/custom_scenario.yaml"):
            with open(name, encoding="utf-8") as handle:
                payload = validate_payload(parse_payload_text(handle.read()))
            assert payload.backends


#: Random replacement values: scalars, lists and mappings, nested.
_FUZZ_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=8,
)


def _field_paths(node, prefix=()):
    """Every key/index path into a parsed payload, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(_field_paths(child, prefix + (key,)))
    return paths


def _example_payloads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    payloads = []
    for name in ("custom_scenario.yaml", "multi_tenant.yaml"):
        path = os.path.join(root, "examples", name)
        with open(path, encoding="utf-8") as handle:
            payloads.append(parse_payload_text(handle.read()))
    return payloads


_EXAMPLES = _example_payloads()


@st.composite
def _mutated_examples(draw):
    """One repo example with one field replaced by a random value."""
    payload = copy.deepcopy(draw(st.sampled_from(_EXAMPLES)))
    path = draw(st.sampled_from(_field_paths(payload)))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_FUZZ_VALUES)
    return payload


class TestFuzz:
    """Malformed input fails as a PayloadError, never as a crash."""

    @settings(max_examples=150)
    @given(_mutated_examples())
    def test_mutated_example_compiles_or_raises_payload_error(self, data):
        try:
            compile_payload(validate_payload(data))
        except PayloadError:
            pass

    @settings(max_examples=50)
    @given(st.text(max_size=200))
    @example("2001-13-01")
    @example("queries: !!int abc")
    @example("[" * 5000)
    def test_arbitrary_text_parses_or_raises_payload_error(self, text):
        try:
            parse_payload_text(text)
        except PayloadError:
            pass


class TestSchemaReference:
    def test_every_axis_and_kind_is_documented(self):
        text = schema_reference()
        for axis in SWEEP_AXES:
            assert axis in text
        for kind in PAYLOAD_KINDS:
            assert kind in text
        for driver, params in DRIVER_PARAMS.items():
            assert driver in text
            for param in params:
                assert param in text

    def test_markdown_table_is_well_formed(self):
        lines = schema_reference(markdown=True).splitlines()
        assert lines[0].startswith("| Field |")
        assert len(lines) == len(SCHEMA_FIELDS) + 2
        assert all(line.count("|") == 5 for line in lines)


class TestCli:
    def test_run_executes_payload_files(self, capsys):
        from repro.__main__ import main

        assert main(["run", "examples/custom_scenario.yaml", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "hash-topology" in out
        assert "num_switches=2" in out

    def test_run_payload_with_seed_override(self, capsys):
        from repro.__main__ import main

        assert main(["run", "examples/multi_tenant.yaml", "--quick",
                     "--seed", "7"]) == 0
        assert "=== mt-example:" in capsys.readouterr().out

    def test_run_reports_payload_errors_without_traceback(self, capsys,
                                                          tmp_path):
        from repro.__main__ import main

        path = tmp_path / "bad.yaml"
        path.write_text("scenario: x\nbackends: [tpu]\n"
                        "workload: {driver: fm-seeding}\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: backends[0]:")
        assert "Traceback" not in err

    def test_validate_accepts_and_rejects(self, capsys, tmp_path):
        from repro.__main__ import main

        for name in ("examples/multi_tenant.yaml",
                     "examples/custom_scenario.yaml"):
            assert main(["validate", name]) == 0
            assert "ok:" in capsys.readouterr().out
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: x\n")
        assert main(["validate", str(bad)]) == 2
        assert "error: backends:" in capsys.readouterr().err

    def test_list_json_names_every_scenario(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in data["scenarios"]]
        assert "mt-serving" in names and "fig12" in names
        by_name = {entry["name"]: entry for entry in data["scenarios"]}
        assert by_name["fig12"]["aliases"] == ["fig12_fm_seeding",
                                               "fig12-fm-seeding"]
        assert by_name["mt-serving"]["backends"] == ["beacon-d", "beacon-s"]

    def test_list_dsl_appends_schema(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--dsl"]) == 0
        assert "scenario payload schema" in capsys.readouterr().out

    def test_catalogue_check_passes_on_committed_docs(self, capsys):
        from repro.__main__ import main

        assert main(["catalogue", "--check"]) == 0
        assert "matches the registry" in capsys.readouterr().out
