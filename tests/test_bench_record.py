"""Tests for the suite recorder (``repro.bench.record``) and ``repro
bench``: a stub suite patched into the ``SUITES`` table stands in for
the real ones, so nothing slow runs."""

import importlib
import inspect
import json
import subprocess
import sys
import types

import pytest

from repro.bench import record
from repro.cli import build_bench_parser, main


def _stub_suite(failures):
    suite = types.ModuleType("stub_suite")
    suite.SEED, suite.COUNT = 7, 3
    suite.JSON, suite.TEXT = "BENCH_stub.json", "stub.txt"
    suite.run = lambda seed, count, quick: {
        "seed": seed, "count": count, "quick": quick
    }
    suite.render = lambda results: f"stub report, count {results['count']}"
    suite.failed_bars = lambda results: list(failures)
    return suite


@pytest.fixture
def stub(monkeypatch, tmp_path):
    """Install a stub suite named ``stub`` failing ``failures``, and run
    from an empty directory."""
    monkeypatch.chdir(tmp_path)

    def install(failures=()):
        monkeypatch.setitem(sys.modules, "stub_suite", _stub_suite(failures))
        monkeypatch.setitem(record.SUITES, "stub", "stub_suite")

    return install


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_passing_full_run_exits_0_and_writes_both_artifacts(
    stub, tmp_path, capsys
):
    stub()
    assert main(["bench", "--suite", "stub"]) == 0
    assert _read_json(tmp_path / "BENCH_stub.json") == {
        "seed": 7, "count": 3, "quick": False
    }
    assert (tmp_path / "results" / "stub.txt").read_text() == (
        "stub report, count 3\n"
    )
    assert "FAILED" not in capsys.readouterr().out


def test_failing_run_exits_1_prints_each_bar_and_still_records(
    stub, tmp_path, capsys
):
    stub(failures=["first bar", "second bar"])
    assert main(["bench", "--suite", "stub", "--seed", "5"]) == 1
    failed = [
        line for line in capsys.readouterr().out.splitlines()
        if "FAILED" in line
    ]
    assert failed == ["; FAILED: first bar", "; FAILED: second bar"]
    assert _read_json(tmp_path / "BENCH_stub.json")["seed"] == 5
    assert (tmp_path / "results" / "stub.txt").exists()


def test_quick_run_writes_sidecars_and_leaves_full_run_files(stub, tmp_path):
    stub()
    full_json = tmp_path / "BENCH_stub.json"
    full_text = tmp_path / "results" / "stub.txt"
    full_text.parent.mkdir()
    full_json.write_bytes(b'{"quick": false}\n')
    full_text.write_bytes(b"full run\n")
    assert main(["bench", "--suite", "stub", "--quick"]) == 0
    assert full_json.read_bytes() == b'{"quick": false}\n'
    assert full_text.read_bytes() == b"full run\n"
    assert _read_json(tmp_path / "BENCH_stub_quick.json")["quick"] is True
    assert (tmp_path / "results" / "stub_quick.txt").exists()


def test_explicit_paths_are_written_as_given(stub, tmp_path):
    stub()
    full_json = tmp_path / "BENCH_stub.json"
    full_json.write_text('{"quick": false}\n', encoding="utf-8")
    text = tmp_path / "out" / "report.txt"
    argv = ["bench", "--suite", "stub", "--quick", "--count", "2"]
    assert main(argv + ["--json", str(full_json), "--text", str(text)]) == 0
    assert _read_json(full_json) == {"seed": 7, "count": 2, "quick": True}
    assert text.read_text() == "stub report, count 2\n"
    assert not (tmp_path / "BENCH_stub_quick.json").exists()


def test_suite_choices_equal_the_table(stub):
    stub()
    (suite,) = [
        action for action in build_bench_parser()._actions
        if action.dest == "suite"
    ]
    assert suite.choices == list(record.SUITES)


@pytest.mark.parametrize("name", sorted(record.SUITES))
def test_each_real_suite_has_the_recorder_interface(name):
    suite = importlib.import_module(record.SUITES[name])
    inspect.signature(suite.run).bind(seed=0, count=1, quick=True)
    for function in (suite.render, suite.failed_bars):
        inspect.signature(function).bind({})
    assert isinstance(suite.SEED, int) and isinstance(suite.COUNT, int)
    assert suite.JSON.startswith("BENCH_") and suite.JSON.endswith(".json")
    assert suite.TEXT.endswith(".txt")


def test_importing_repro_bench_loads_no_suite_runner():
    probe = (
        "import sys, repro.driver, repro.bench, repro.rolag; "
        "print(' '.join(sorted(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    for module in (
        "repro.bench.perfsuite",
        "repro.bench.servebench",
        "repro.serve",
        "repro.faultinject.chaos",
    ):
        assert module not in loaded
