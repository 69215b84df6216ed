"""The examples must run: they are the library's front door."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def test_quickstart_runs(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "slowdown" in out
    assert "drops: 0" in out


def test_examples_exist_and_are_documented():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 3
    for script in scripts:
        text = script.read_text()
        assert text.lstrip().startswith(("#!", '"""', "'''")) or \
            '"""' in text.splitlines()[1], script.name


def test_custom_cc_example_registers_and_runs(capsys):
    # The example registers a scheme in the global registry; guard against
    # double registration when tests re-import it.
    from repro.core.registry import available_schemes
    if "naive-aimd" in available_schemes():
        pytest.skip("example already imported in this session")
    runpy.run_path(str(EXAMPLES / "custom_cc.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "naive-aimd" in out
    assert "hpcc" in out


def test_operations_playbook_writes_readable_record(capsys, monkeypatch,
                                                    tmp_path):
    from repro.runner import RunRecord

    monkeypatch.setattr("sys.argv", ["operations_playbook.py", str(tmp_path)])
    runpy.run_path(str(EXAMPLES / "operations_playbook.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "all flows finished: True" in out
    record = RunRecord.read_json(tmp_path / "record.json")
    assert record.spec.label == "trunk-failover"
    assert len(record.fct) == 4
    [cut] = record.link_events()
    assert cut["type"] == "fail_link" and cut["fired"]
    assert (tmp_path / "summary.csv").read_text().count("\n") == 2
