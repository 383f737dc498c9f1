"""One workload in one process: set up, then time passes over its cases.

    python3 bench/workload.py --workload NAME --seed N --work DIR
        [--seconds S] [--trace 0|1] [--setup-only] [--cases K]

Set-up imports qcluster from the checkout's `src/`, generates the case list
from the seed and writes each session document into DIR.  The process then
calls `qcluster.cli.main(argv)` in-process once per case, in passes over the
whole list, for S seconds; the last pass may stop part-way.  Between
cases, every 0.1 s, it runs the reference computation (bench/reference.py)
that run.py corrects the case times by.  With `--trace 1` it runs one
untraced pass and one traced pass instead.
`--cases K` keeps only the first K cases (for the smoke test).

The last stdout line is one JSON object with the raw measurements; run.py
turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A case over this limit is stopped and counted as failed.  The slowest case
# (two_route's ladder rung 4) takes ~1.5 s untraced.
CASE_LIMIT_S = 30.0
TRACED_LIMIT_S = 120.0
# Between cases, the reference computation runs when it last ran this long ago.
PROBE_EVERY_S = 0.1


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def setup(workload: str, seed: int, work: Path, limit_cases: int | None):
    """Import the program, build the cases and write their session files.

    Returns the CLI module, the cases, their argument lists and the time
    each of the three steps took.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import qcluster.cli
    import cases

    t1 = time.perf_counter()
    case_list = cases.build(workload, seed)[:limit_cases]
    t2 = time.perf_counter()
    work.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, case in enumerate(case_list):
        argv = list(case["argv"])
        if case["doc"] is not None:
            path = work / f"case{i:04d}.json"
            path.write_text(json.dumps(case["doc"]))
            argv[1] = str(path)
        argvs.append(argv)
    phases = {"import_s": t1 - t0, "generate_s": t2 - t1,
              "write_s": time.perf_counter() - t2}
    return qcluster.cli, case_list, argvs, phases


def output_problem(argv, text: str) -> str | None:
    """The report's own verdict lines, read independently of the exit code."""
    lines = text.splitlines()
    if argv[0] == "identity-check":
        ok = bool(lines) and all(line.endswith(": PASS") for line in lines)
    elif argv[0] == "count":
        ok = (bool(lines) and lines[0].startswith("mode: ")
              and not any(w in text for w in ("MISMATCH", "SKIPPED", "PURITY-FAIL")))
    else:
        ok = "positive: yes" in lines and "FAILED" not in text
        if "both" in argv:
            ok = ok and "two-route: AGREE" in lines
    return None if ok else "report lacks its PASS/AGREE verdict"


def run_case(cli, argv, limit: float):
    """One `cli.main(argv)` call: (problem or None, stdout text, stderr text).

    `cli.main` is looked up per call so that a traced pass calls its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        problem = f"exit code {rc}" if rc != 0 else None
    except CaseTimeout:
        problem = f"over the {limit:g} s case limit"
    except Exception as exc:  # a traceback is a failed case; the run goes on
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return problem, out.getvalue(), err.getvalue()


def run_reference(probes: list) -> None:
    """Run the reference computation if none ran in the last PROBE_EVERY_S."""
    t0 = time.perf_counter()
    if not probes or t0 - probes[-1][0] >= PROBE_EVERY_S:
        took = reference.probe()
        probes.append((t0 + took / 2, took))


def run_pass(cli, argvs, limit: float, probes: list, tracer=None, deadline=None,
             expected=None) -> dict:
    """One pass over the cases: per-case starts and times, failures, report digest.

    Between cases it runs the reference computation into `probes`.  With a
    deadline, the pass skips every case whose `expected` time would take it
    past the deadline; a skipped case is not attempted and its time is None.
    """
    case = run_case if tracer is None else tracer.wrap_case(run_case)
    digest = hashlib.sha256()
    starts, times, failures = [], [], []
    t_pass = time.perf_counter()
    for i, argv in enumerate(argvs):
        run_reference(probes)
        if deadline is not None and time.perf_counter() + expected[i] > deadline:
            starts.append(None)
            times.append(None)
            continue
        if tracer is not None:
            tracer.case = i
        t0 = time.perf_counter()
        problem, text, err = case(cli, argv, limit)
        starts.append(t0)
        times.append(time.perf_counter() - t0)
        problem = problem or output_problem(argv, text)
        if problem:
            failures.append({"case": i, "problem": problem, "stderr": err[-500:]})
        digest.update(text.encode())
    run_reference(probes)
    return {"wall_s": time.perf_counter() - t_pass, "case_start": starts, "case_s": times,
            "failures": failures, "digest": digest.hexdigest()}


def measure(cli, argvs, seconds: float, trace: bool) -> dict:
    """Passes for `seconds`, or one untraced and one traced pass.

    The first pass always runs every case; the last one runs only the cases
    that still fit before the deadline, and they count.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = time.perf_counter() + seconds
    probes = []
    passes = [run_pass(cli, argvs, CASE_LIMIT_S, probes)]
    expected = passes[0]["case_s"]
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        traced = run_pass(cli, argvs, TRACED_LIMIT_S, probes, tracer)
        return {"passes": passes, "traced": traced, "trace": tracer.snapshot(),
                "probes": probes}
    while time.perf_counter() + min(expected) <= deadline:
        passes.append(run_pass(cli, argvs, CASE_LIMIT_S, probes, deadline=deadline,
                               expected=expected))
    return {"passes": passes, "probes": probes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cases", type=int, default=None)
    args = parser.parse_args(argv)

    cli, case_list, argvs, phases = setup(args.workload, args.seed, args.work, args.cases)
    result = {"ready": time.monotonic(), "setup_phases": phases}
    if not args.setup_only:
        result.update(measure(cli, argvs, args.seconds, bool(args.trace)))
        result["labels"] = [c["label"] for c in case_list]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
