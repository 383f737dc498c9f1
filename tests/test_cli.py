import dataclasses
import gc
import json
from pathlib import Path

import pytest

from qcluster import cli
from qcluster.cli import main

from .corpus import principal_pair


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

SPECS = Path(__file__).parent.parent / "demos" / "specs"
TRIANGLE_DOC = json.loads((SPECS / "triangle.json").read_text())


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


def test_count_over_gf49(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["count", spec, "--primes", "2,3,49"]) == 0
    out = capsys.readouterr().out
    assert "q=49:1" in out and "MISMATCH" not in out


def test_identity_check(capsys):
    assert main(["identity-check", "--cone-bound", "6"]) == 0
    out = capsys.readouterr().out
    assert "pentagon depth 6: PASS" in out
    assert "pochhammer inverse: PASS" in out


def test_identity_check_at_depth_20(capsys):
    """Cone depth 20 puts every (1 - T^k), k <= 20, in the denominators."""
    assert main(["identity-check", "--cone-bound", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.endswith(": PASS") for line in lines)
    assert lines[0] == "pentagon depth 20: PASS"


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


def test_incompatible_pair_is_named_on_the_dt_route(tmp_path, capsys):
    """No cone bound can fix a pair with B~^t Lambda != I, so none is suggested."""
    spec = write_spec(tmp_path, dict(A2_DOC, **{"lambda": [[0, 2], [-2, 0]]}))
    assert main(["expand", spec, "--route", "dt", "--json"]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error"]["type"] == "IncompatiblePair"
    assert report["error"]["suggested_bound"] is None
    assert "suggested cone bound" not in captured.err


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


def test_golden_path_that_is_a_file_exits_2(tmp_path, capsys):
    # the golden directory cannot be made: one JSON report, then the error
    blocker = tmp_path / "golden"
    blocker.write_text("not a directory")
    argv = ["identity-check", "--cone-bound", "2", "--json", "--golden", str(blocker)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["command"] == "identity-check"
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_golden_file_that_is_a_directory_exits_2(tmp_path, capsys):
    golden = tmp_path / "golden"
    (golden / "identity-check.txt").mkdir(parents=True)
    assert main(["identity-check", "--cone-bound", "2"]) == 0
    report = capsys.readouterr().out
    assert main(["identity-check", "--cone-bound", "2", "--golden", str(golden)]) == 2
    captured = capsys.readouterr()
    assert captured.out == report
    assert captured.err.startswith("error: ")


def test_h1_bound_broken_by_the_result_exits_2(tmp_path, capsys, monkeypatch):
    real = cli.h1_aggregate
    monkeypatch.setattr(cli, "h1_aggregate", lambda qp, ks, lam: dataclasses.replace(
        real(qp, ks, lam), dims=(0,) * qp.quiver.m))
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["expand", spec, "--route", "dt"]) == 2
    assert "suggested cone bound" in capsys.readouterr().err


def test_count_budget_exceeded_marks_skipped(tmp_path, capsys):
    """H^1 has dims (2, 2).  The stratum [1,1] enumerates the q + 1 lines at
    one vertex, over a budget of 2 at every prime power, and counts the other
    in closed form; every other stratum enumerates one subspace."""
    doc = json.loads(json.dumps(A2_DOC))
    doc["ks"], doc["lam"] = [1, 2], [0, 2]
    doc["options"]["budget"] = 2
    spec = write_spec(tmp_path, doc)
    assert main(["count", spec]) == 2
    captured = capsys.readouterr()
    assert "h1 dims: [2, 2]" in captured.out
    rows = [line for line in captured.out.splitlines() if line.startswith("gamma ")]
    skipped = [row for row in rows if not row.endswith("| match")]
    assert len(skipped) == 1 and skipped[0].startswith("gamma [1,1] |")
    assert skipped[0].endswith("| SKIPPED: enumeration size 6 exceeds budget 2")
    assert "error: 1 of 6 strata were not checked" in captured.err


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("doc, skipped", [
    # Gr(k, 5) needs k(5 - k) + 2 prime powers to interpolate, and 4 are given
    (dict(A2_DOC, lam=[5, 0]), ["SKIPPED: needs 6 prime powers, have 4",
                                "SKIPPED: needs 8 prime powers, have 4",
                                "SKIPPED: needs 8 prime powers, have 4",
                                "SKIPPED: needs 6 prime powers, have 4"]),
    # a budget of 1 skips the strata that enumerate lines at F_7^2: one
    # vertex of the triangle is counted in closed form, and [1,1,1]
    # enumerates lines at both other vertices
    (dict(TRIANGLE_DOC, options=dict(TRIANGLE_DOC["options"], budget=1)),
     ["SKIPPED: enumeration size 8 exceeds budget 1"] * 3
     + ["SKIPPED: enumeration size 64 exceeds budget 1"]
     + ["SKIPPED: enumeration size 8 exceeds budget 1"] * 3),
])
def test_count_rows_not_checked_exit_2(tmp_path, capsys, doc, skipped, as_json):
    """The report is printed with ok false, and stderr says why."""
    argv = ["count", write_spec(tmp_path, doc)] + (["--json"] if as_json else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    if as_json:
        report = json.loads(captured.out)
        assert report["ok"] is False
        verdicts = [row["verdict"] for row in report["rows"]]
    else:
        verdicts = [line.rsplit(" | ", 1)[1] for line in captured.out.splitlines()
                    if line.startswith("gamma ")]
    not_run = [v for v in verdicts if v.startswith("SKIPPED")]
    assert len(not_run) == len(skipped)
    assert all(v == s for v, s in zip(not_run, skipped) if s is not None)
    assert f"error: {len(skipped)} of {len(verdicts)} strata were not checked" \
        in captured.err


@pytest.mark.parametrize("ks", ["132", "312", "1232", "3212"])
def test_count_a3_exponent_from_the_acyclic_end(tmp_path, capsys, ks):
    """Q_r is the 3-cycle here, so the v-power comes from the initial quiver."""
    lam, btilde = principal_pair([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    doc = {"n": 3, "lambda": lam, "btilde": btilde,
           "ks": [int(k) for k in ks], "lam": [1] * 6}
    assert main(["count", write_spec(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "mode: hard" in out
    rows = [line for line in out.splitlines() if line.startswith("gamma ")]
    assert rows and all(line.endswith("| match") for line in rows)


def test_count_leaves_no_cyclic_garbage(tmp_path, capsys):
    """A count run frees what it built by reference counting alone: with the
    cyclic collector off, nothing is left for it to collect."""
    lam, btilde = principal_pair([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    doc = {"n": 3, "lambda": lam, "btilde": btilde, "ks": [1, 2, 3, 2], "lam": [1] * 6}
    spec = write_spec(tmp_path, doc)
    assert main(["count", spec]) == 0           # first-use caches and imports
    gc.collect()
    gc.disable()
    try:
        assert main(["count", spec]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert "mode: hard" in capsys.readouterr().out


# every prime power up to 31 that GF supports
WALL_PRIMES = "2,3,4,5,7,8,9,11,13,17,19,23,25,29,31"


def test_count_kronecker_h1_dimension_8(capsys):
    """The README's Kronecker case, H^1 of dims (5, 3).  Seven strata have
    max_dim 6 or 8; at the default seven prime powers the two of degree 6
    cannot be interpolated, and fifteen prime powers check every stratum."""
    spec = str(SPECS / "kronecker_121.json")
    assert main(["count", spec, "--primes", WALL_PRIMES]) == 0
    out = capsys.readouterr().out
    assert "mode: hard" in out and "h1 dims: [5, 3, 0, 0]" in out
    rows = [line for line in out.splitlines() if line.startswith("gamma ")]
    assert len(rows) == 14 and all(row.endswith("| match") for row in rows)
    assert main(["count", spec]) == 2
    captured = capsys.readouterr()
    verdicts = [line.rsplit(" | ", 1)[1] for line in captured.out.splitlines()
                if line.startswith("gamma ")]
    assert sorted(set(verdicts)) == ["SKIPPED: needs 8 prime powers, have 7", "match"]
    assert "error: 2 of 14 strata were not checked" in captured.err


def test_count_rank3_with_a_double_arrow(tmp_path, capsys):
    """H^1 of dims (1, 4, 1): the 4-dimensional vertex is counted in closed
    form, so no subspace table is built at it."""
    lam, btilde = principal_pair([[0, -1, 0], [1, 0, 2], [0, -2, 0]])
    doc = {"n": 3, "lambda": lam, "btilde": btilde, "ks": [2, 1, 3],
           "lam": [1, 1, 1, 0, 0, 0]}
    assert main(["count", write_spec(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "mode: hard" in out and "h1 dims: [1, 4, 1, 0, 0, 0]" in out
    rows = [line for line in out.splitlines() if line.startswith("gamma ")]
    assert rows and all(row.endswith("| match") for row in rows)


def test_quiver_btilde_mismatch_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(A2_DOC))
    doc["quiver"] = {"vertices": 2, "arrows": [["a", 1, 2]]}  # wrong orientation
    spec = write_spec(tmp_path, doc)
    assert main(["count", spec]) != 0
    assert "does not realize btilde" in capsys.readouterr().err


def test_kronecker_ladder_rung_6_agrees_on_both_routes(tmp_path, capsys):
    lam, btilde = principal_pair([[0, 2], [-2, 0]])
    doc = {"n": 2, "lambda": lam, "btilde": btilde, "ks": [2, 1, 2, 1, 2, 1],
           "lam": [1, 1, 0, 0]}
    assert main(["expand", write_spec(tmp_path, doc), "--route", "both"]) == 0
    assert "two-route: AGREE" in capsys.readouterr().out.splitlines()


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
    ("mutate", {"ks": [1.9]}, []),                      # a float is not truncated to 1
    ("expand", {"lam": [True, 0.5]}, []),               # bools and floats are not integers
    ("mutate", {"n": "2"}, []),                         # a string is not an integer
    ("mutate", {"btilde": [[0, 1.0], [-1, 0]]}, []),    # matrix entries are integers
    ("count", {"options": {"budget": 1e6}}, []),        # integer options are integers
    ("count", {"potential": [[1, True, ["a"]]]}, []),   # so are the potential's fractions
    ("identity-check", None, ["--cone-bound", "0"]),    # cone depth below 1
    ("identity-check", None, ["--cone-bound", "-3"]),
    ("count", {"options": {"primes": []}}, []),         # no prime power: nothing to count
    ("count", {"options": {"primes": [2]}}, []),        # one prime power cannot interpolate
    ("count", {"options": {}}, ["--primes", "2"]),      # nor as a flag
    ("count", {"options": {"primes": [2, 2, 3, 3, 5]}}, []),  # repeated prime powers
    ("expand", {"lam": [-1, 0]}, ["--route", "dt"]),    # negative lam on the DT route
    ("expand", {"lam": [-1, 1]}, ["--route", "dt"]),    # not dropped from H^1 either
    ("count", {"options": {"budget": 0}}, []),          # a budget that skips every stratum
    ("count", {"options": {}}, ["--primes", ""]),       # an empty --primes is not ignored
    ("count", {}, ["--primes", "x"]),                   # --primes takes integers
    ("count", {}, ["--primes", "2,,3", "--json"]),      # an empty entry is not skipped
    ("expand", {"options": {"route": "mutation"}}, ["--degree-cap", "1"]),  # degree cap < 2
    ("expand", {"options": {"route": "mutation", "degree_cap": 1}}, ["--json"]),
    ("mutate", {"options": {"degree_cap": 1}}, []),     # on every command
    ("mutate", {}, ["--degree-cap", "1", "--json"]),
    ("mutate", {"lambda": [[0]], "btilde": [[0, 0]], "lam": [1]}, []),  # n = 2 > m = 1
    ("count", {"lambda": [[0]], "btilde": [[0, 0]], "lam": [1]}, []),
    ("count", {"potential": [[1, 1, ["zz"]]]}, []),    # a word naming no arrow
    ("expand", {"potential": [[1, 1, ["zz"]]]}, ["--route", "both"]),
    ("expand", {"potential": [[1, 1, "a1"]]}, ["--route", "both"]),  # a word as a string
    ("count", {"quiver": {"vertices": 3, "arrows": [["a", 2, 1]]}}, []),  # vertices != m
    ("mutate", {"potential": [[1, 1, ["zz"]]]}, []),   # every command checks the QP
    ("expand", {"potential": [[1, 1, ["zz"]]]}, ["--route", "mutation"]),
    ("expand", {"potential": [[1, 1, ["zz"]]]}, ["--route", "dt"]),
    ("mutate", {"quiver": {"vertices": 2, "arrows": [["a", 1, 2]]}}, []),  # not btilde's
    ("expand", {"quiver": {"vertices": 2, "arrows": [["a", 1, 2]]}}, ["--route", "mutation"]),
    ("expand", {"quiver": {"vertices": 2, "arrows": [["a", 1, 2]]}}, ["--route", "dt"]),
    ("count", {"potential": [[1, 0, ["c", "b", "a"]]]}, []),  # a coefficient over 0
    ("mutate", {"lambda": [[0, 2], [-2, 0]]}, []),     # B~^t Lambda != I: incompatible pair
    ("mutate", {"lambda": [[0, 2], [-2, 0]]}, ["--json"]),
    ("expand", {"lambda": [[0, 2], [-2, 0]]}, ["--route", "mutation"]),
    ("expand", {"lambda": [[0, 2], [-2, 0]]}, ["--route", "dt"]),
    ("expand", {"lambda": [[0, 2], [-2, 0]]}, ["--route", "both", "--json"]),
    ("count", {"lambda": [[0, 2], [-2, 0]]}, []),
    ("count", {"lambda": [[0, 2], [-2, 0]]}, ["--json"]),
    ("mutate", {"btilde": [[0, 1]]}, []),               # btilde has fewer rows than m
    ("mutate", {"btilde": [[0, 1, 0], [-1, 0, 0]]}, []),  # and rows longer than n
    ("mutate", {"ks": [3]}, []),                        # a direction outside 1..n
    ("expand", {"ks": [0]}, ["--route", "dt"]),
    ("expand", {"lam": [1]}, []),                       # lam of length != m
    ("mutate", {"ks": [1, 1]}, []),                     # consecutive equal directions
    ("expand", {"ks": [1, 1]}, ["--route", "dt"]),
    ("count", {"ks": [1, 1]}, []),
    ("expand", {"lam": [10**30, 0]}, ["--route", "dt"]),  # more copies than H^1 can hold
    ("expand", {"lam": [10**30, 0]}, ["--route", "mutation"]),  # checked before any route
    ("expand", {"lam": [10**30, 0]}, ["--route", "both"]),
    ("count", {"lam": [10**30, 0]}, []),
    ("mutate", {"lam": [10**30, 0]}, []),
])
def test_malformed_input_exits_2(tmp_path, capsys, command, patch, extra):
    """A2_DOC with the keys of `patch` replaced (a list replaces the whole
    document; None passes no document)."""
    if patch is None:
        argv = [command]
    else:
        doc = dict(A2_DOC, **patch) if isinstance(patch, dict) else patch
        argv = [command, write_spec(tmp_path, doc)]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())


def test_zero_denominator_is_named(tmp_path, capsys):
    doc = dict(A2_DOC, potential=[[1, 0, ["c", "b", "a"]]])
    assert main(["count", write_spec(tmp_path, doc)]) == 2
    assert "error: malformed potential: coefficient 1/0 has denominator 0" \
        in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("ks", ["1231", "1321", "213", "12312"])
def test_potential_coefficient_leaves_the_reports_unchanged(tmp_path, capsys, ks):
    """The triangle's full cycle times 2, 1/3, -5/7 or 7/2 is right-equivalent
    to the cycle itself (rescale one arrow), so `expand --route both` and
    `count` print the reports of coefficient 1.  The potentials carry
    non-integral coefficients, and so do the reduction's substitutions for
    2, -5/7 and 7/2."""
    for lam in ([1, 1, 1, 0, 0, 0], [1, 0, 1, 1, 0, 1]):
        reports = {}
        for num, den in ((1, 1), (2, 1), (1, 3), (-5, 7), (7, 2)):
            doc = dict(TRIANGLE_DOC, ks=[int(k) for k in ks], lam=lam,
                       potential=[[num, den, ["c", "b", "a"]]])
            spec = write_spec(tmp_path, doc)
            for argv in (["expand", spec, "--route", "both"], ["count", spec]):
                assert main(argv) == 0
                out = capsys.readouterr().out
                assert out == reports.setdefault(argv[0], out), (num, den, argv[0])


def test_count_rank_zero_prints_its_one_trivial_row(tmp_path, capsys):
    doc = {"n": 0, "lambda": [], "btilde": [], "ks": [], "lam": []}
    assert main(["count", write_spec(tmp_path, doc)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("gamma ")]
    assert len(rows) == 1 and rows[0].startswith("gamma [] |")
    assert rows[0].endswith("| match")


@pytest.mark.parametrize("primes", ["x", "2,,3"])
def test_primes_flag_must_be_integers(tmp_path, capsys, primes):
    """The message names the flag and its format, in text and under --json."""
    spec = write_spec(tmp_path, A2_DOC)
    assert main(["count", spec, "--primes", primes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--primes takes comma-separated integers" in captured.err
    assert main(["count", spec, "--primes", primes, "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert "--primes takes comma-separated integers" in error["message"]


def test_dt_route_names_a_lam_entry_too_large_for_h1(tmp_path, capsys):
    """No OverflowError traceback: the entry is named, on stderr and in the
    one error document under --json."""
    spec = write_spec(tmp_path, dict(A2_DOC, lam=[0, 10**30]))
    assert main(["expand", spec, "--route", "dt", "--json"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "error: lam entry 2 is " + str(10**30) in captured.err
    error = json.loads(captured.out)["error"]
    assert error["type"] == "DimensionMismatch" and "lam entry 2" in error["message"]


@pytest.mark.parametrize("lam", [[-1, 0], [-1, 1]])
def test_dt_route_rejects_negative_lam(tmp_path, capsys, lam):
    """The mutation route's rule, before any H^1 is built or any bound suggested."""
    spec = write_spec(tmp_path, dict(A2_DOC, lam=lam))
    assert main(["expand", spec, "--route", "dt"]) == 2
    err = capsys.readouterr().err
    assert "lam >= 0" in err and "suggested cone bound" not in err


def test_parser_reused_without_stale_state(tmp_path, capsys):
    """One process: a usage error, count --primes and --json, then count and
    expand with no flags, which must behave as fresh calls."""
    spec = write_spec(tmp_path, A2_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["count", spec, "--route", "bad", "--json"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "UsageError"
    assert main(["count", spec, "--primes", "2,3,5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["counts"] == \
        {"2": 1, "3": 1, "5": 1}
    assert main(["count", spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mode: hard") and "q=4:1 q=5:1 |" in out
    assert main(["expand", spec, "--route", "mutation"]) == 0
    assert "two-route" not in capsys.readouterr().out
    assert main(["expand", spec]) == 0
    assert "two-route: AGREE" in capsys.readouterr().out
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("command, flags", [
    ("expand", ["--route", "bad"]),     # a value outside the flag's choices
    ("count", ["--jobs", "2"]),         # an unrecognized argument
])
def test_usage_error_under_json_prints_error_object(tmp_path, capsys, command, flags):
    spec = write_spec(tmp_path, A2_DOC)
    with pytest.raises(SystemExit) as exc:
        main([command, spec] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    with pytest.raises(SystemExit) as exc:
        main([command, spec, "--json"] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["command"] == command and report["ok"] is False
    assert report["error"]["type"] == "UsageError"
    assert report["error"]["message"] in captured.err
