import concurrent.futures
import dataclasses
import json
import os

import pytest

from qcluster import cli
from qcluster.cli import main


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


A2_DOC = {
    "n": 2,
    "lambda": [[0, 1], [-1, 0]],
    "btilde": [[0, 1], [-1, 0]],
    "ks": [1],
    "lam": [1, 0],
    "options": {"route": "both", "primes": [2, 3, 4, 5]},
}


def test_mutate_renders_seed(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["mutate", spec]) == 0
    out = capsys.readouterr().out
    assert "X_1 = X[-1,0] + X[-1,1]" in out
    assert "[0, -1]" in out


def test_mutate_empty_ks_echoes_initial(tmp_path, capsys):
    doc = dict(A2_DOC, ks=[])
    spec = write_spec(tmp_path, doc)
    assert main(["mutate", spec]) == 0
    out = capsys.readouterr().out
    assert "X_1 = X[1,0]" in out and "X_2 = X[0,1]" in out


def test_malformed_matrix_fails(tmp_path, capsys):
    doc = dict(A2_DOC)
    doc = json.loads(json.dumps(doc))
    doc["btilde"] = [[0, 1], [1, 0]]
    spec = write_spec(tmp_path, doc)
    assert main(["mutate", spec]) != 0
    err = capsys.readouterr().err
    assert "skew" in err.lower()


def test_expand_both_routes(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["expand", spec]) == 0
    out = capsys.readouterr().out
    assert "two-route: AGREE" in out
    assert "positive: yes" in out
    assert "lefschetz X[-1,0]: N=0" in out
    assert "F[1,0] = q^(-1/2)" in out


def test_expand_lam_zero(tmp_path, capsys):
    doc = dict(A2_DOC, lam=[0, 0])
    doc["options"] = {"route": "mutation"}
    spec = write_spec(tmp_path, doc)
    assert main(["expand", spec]) == 0
    out = capsys.readouterr().out
    assert "element = X[0,0]" in out
    assert "positive: yes" in out


def test_expand_dt_route_cone_bound_zero(tmp_path, capsys):
    doc = dict(A2_DOC)
    doc["options"] = {"route": "dt", "cone_bound": 0}
    spec = write_spec(tmp_path, doc)
    assert main(["expand", spec]) == 2
    err = capsys.readouterr().err
    assert "suggested cone bound" in err


def test_count_reports_match(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["count", spec]) == 0
    out = capsys.readouterr().out
    assert "mode: hard" in out
    assert "gamma [1,0]" in out and "| match" in out


def test_identity_check(capsys):
    assert main(["identity-check", "--cone-bound", "6"]) == 0
    out = capsys.readouterr().out
    assert "pentagon depth 6: PASS" in out
    assert "pochhammer inverse: PASS" in out


def test_json_report(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["expand", spec, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["two_route"] == "AGREE"
    assert doc["g"] == [-1, 1]


def test_json_error_object(tmp_path, capsys):
    doc = dict(A2_DOC, options={"route": "dt", "cone_bound": 0})
    spec = write_spec(tmp_path, doc)
    assert main(["expand", spec, "--json"]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["command"] == "expand" and report["ok"] is False
    assert report["error"]["type"] == "TailNotVanishing"
    assert report["error"]["suggested_bound"] == [3, 3]
    assert report["error"]["message"] in captured.err
    assert "suggested cone bound: [3, 3]" in captured.err


def test_golden_under_json_compares_the_json(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    golden = tmp_path / "golden"
    assert main(["expand", spec, "--json", "--golden", str(golden)]) == 0
    printed = capsys.readouterr().out
    assert (golden / "expand.json").read_text() == printed
    assert not (golden / "expand.txt").exists()
    assert main(["expand", spec, "--json", "--golden", str(golden)]) == 0
    # the text report of the same run is a different stdout
    assert main(["expand", spec, "--golden", str(golden)]) == 0
    assert (golden / "expand.txt").read_text() != printed


def test_output_byte_stable_and_golden(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    golden = tmp_path / "golden"
    assert main(["expand", spec, "--golden", str(golden)]) == 0
    first = capsys.readouterr().out
    assert main(["expand", spec, "--golden", str(golden)]) == 0
    second = capsys.readouterr().out
    assert first == second
    # a differing spec against the same golden file fails
    doc = dict(A2_DOC, lam=[0, 1])
    other = write_spec(tmp_path, doc, "other.json")
    assert main(["expand", other, "--golden", str(golden)]) == 1


def test_h1_bound_broken_by_the_result_exits_2(tmp_path, capsys, monkeypatch):
    real = cli.h1_aggregate
    monkeypatch.setattr(cli, "h1_aggregate", lambda qp, ks, lam: dataclasses.replace(
        real(qp, ks, lam), dims=(0,) * qp.quiver.m))
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["expand", spec, "--route", "dt"]) == 2
    assert "suggested cone bound" in capsys.readouterr().err


def test_count_with_jobs(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["count", spec, "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "| match" in out


def test_count_budget_exceeded_marks_skipped(tmp_path, capsys):
    doc = json.loads(json.dumps(A2_DOC))
    doc["options"]["budget"] = 0
    spec = write_spec(tmp_path, doc)
    main(["count", spec])
    out = capsys.readouterr().out
    assert "SKIPPED" in out


def test_quiver_btilde_mismatch_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(A2_DOC))
    doc["quiver"] = {"vertices": 2, "arrows": [["a", 1, 2]]}  # wrong orientation
    spec = write_spec(tmp_path, doc)
    assert main(["count", spec]) != 0
    assert "does not realize btilde" in capsys.readouterr().err


def test_expand_dt_route_reports_g_and_f(tmp_path, capsys):
    doc = json.loads(json.dumps(A2_DOC))
    doc["options"] = {"route": "dt"}
    spec = write_spec(tmp_path, doc)
    assert main(["expand", spec]) == 0
    out = capsys.readouterr().out
    assert "g = [-1, 1]" in out and "F[1,0] = q^(-1/2)" in out



@pytest.mark.parametrize("command, patch, extra", [
    ("mutate", {"options": []}, []),                    # options is not an object
    ("expand", {"options": {"route": "foo"}}, []),      # route outside mutation|dt|both
    ("count", {"options": {"primes": [1, 2, 3]}}, []),  # prime power below 2 in the document
    ("count", {"options": {}}, ["--primes", "0,2,3"]),  # prime power below 2 as a flag
    ("mutate", [A2_DOC], []),                           # the document is not an object
    ("mutate", {"lambda": 5}, []),                      # lambda is not a matrix
    ("expand", {"lam": None}, []),                      # lam is not a list
    ("mutate", {"ks": None}, []),                       # ks is not a list
    ("count", {"quiver": {"vertices": 2}}, []),         # quiver without arrows
    ("count", {"options": {"budget": None}}, []),       # budget is not an integer
    ("count", {}, ["--degree-cap", "0"]),               # degree cap 0 on the command line
])
def test_malformed_input_exits_2(tmp_path, capsys, command, patch, extra):
    """A2_DOC with the keys of `patch` replaced (a list replaces the whole document)."""
    doc = dict(A2_DOC, **patch) if isinstance(patch, dict) else patch
    spec = write_spec(tmp_path, doc)
    assert main([command, spec] + extra) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())


@pytest.mark.parametrize("jobs, cpus, pools", [
    (64, 3, [3]),          # clamped to the CPU count
    (2, 16, [2]),          # the requested count fits
    (64, 64, [8]),         # clamped to the 2 strata x 4 prime powers
    (4, 1, []),            # one CPU: in-process, no pool
    (4, None, []),         # CPU count unknown: in-process, no pool
])
def test_count_jobs_clamped(tmp_path, capsys, monkeypatch, jobs, cpus, pools):
    created = []

    class InlinePool:
        """Stand-in for ProcessPoolExecutor: records max_workers, runs tasks inline."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["count", spec, "--jobs", str(jobs)]) == 0
    assert "| match" in capsys.readouterr().out
    assert created == pools


def test_jobs_is_count_only(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    for command in ("mutate", "expand"):
        with pytest.raises(SystemExit) as exc:
            main([command, spec, "--jobs", "2"])
        assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
