"""Tests for the command-line entry point."""

import argparse

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_prints_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig12", "fig15", "table2", "sec6g"):
        assert name in out


def test_catalog_is_complete():
    # One entry per paper artifact (Fig. 3 + Figs. 12-17 + 2 tables + VI-G).
    assert set(EXPERIMENTS) == {
        "fig3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "table1", "table2", "sec6g",
    }


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_quick_run_of_cheap_figure(capsys):
    assert main(["table2", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "PE hardware overhead" in out
    assert "BEACON" in out


def test_quick_run_of_fig13(capsys):
    assert main(["fig13", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "coalescing" in out
    assert "imbalance" in out


# One flag per verb that belongs to another verb: each verb's subparser
# declares only its own flags, so these are usage errors, not no-ops.
FOREIGN_FLAGS = [
    (["fig3", "--trace-out", "f"], "--trace-out"),
    (["fig12", "--delays"], "--delays"),
    (["fig13", "--json"], "--json"),
    (["fig14", "--seed", "3"], "--seed"),
    (["fig15", "--markdown"], "--markdown"),
    (["fig16", "--diff", "a", "b"], "--diff"),
    (["fig17", "--metrics-out", "m.csv"], "--metrics-out"),
    (["sec6g", "--check"], "--check"),
    (["table1", "--dsl"], "--dsl"),
    (["table2", "--profile-out", "p.json"], "--profile-out"),
    (["all", "--trace-limit", "5"], "--trace-limit"),
    (["list", "--quick"], "--quick"),
    (["bench", "--jobs", "2"], "--jobs"),
    (["run", "fig13", "--trace-out", "f"], "--trace-out"),
    (["trace", "fig16", "--jobs", "2"], "--jobs"),
    (["profile", "fig16", "--ledger", "l.jsonl"], "--ledger"),
    (["lint", "--jobs", "2"], "--jobs"),
    (["validate", "examples/multi_tenant.yaml", "--delays"], "--delays"),
    (["catalogue", "--jobs", "2"], "--jobs"),
    (["status", "runs.jsonl", "--quick"], "--quick"),
]


def test_foreign_flags_cover_every_verb():
    from repro.__main__ import _build_parser

    verbs = next(action.choices for action in _build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert {argv[0] for argv, _flag in FOREIGN_FLAGS} == set(verbs)


@pytest.mark.parametrize("argv, flag", FOREIGN_FLAGS,
                         ids=[argv[0] for argv, _flag in FOREIGN_FLAGS])
def test_every_verb_rejects_a_foreign_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["fig13", "--quick", "--jobs", "0"], "--jobs"),
    (["all", "--quick", "--jobs", "-1"], "--jobs"),
    (["run", "fig13", "--jobs", "two"], "--jobs"),
    (["trace", "fig13", "--trace-limit", "-5"], "--trace-limit"),
    (["trace", "fig13", "--metrics-interval", "0"], "--metrics-interval"),
])
def test_bad_numeric_flags_fail_at_parse_time(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


def test_metrics_interval_without_metrics_out_is_rejected(tmp_path, capsys):
    trace_out = tmp_path / "t.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "fig16", "--metrics-interval", "1000",
              "--trace-out", str(trace_out)])
    assert excinfo.value.code == 2
    assert "--metrics-out" in capsys.readouterr().err
    assert not trace_out.exists()


def test_seed_is_rejected_for_registered_scenarios(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fig13", "--quick", "--seed", "7"])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err
