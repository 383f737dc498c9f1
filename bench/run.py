"""qcluster benchmark: time whole CLI runs, or the layers they pass through.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: two_route, mutation_sweep, count_sweep, pentagon (see
bench/README.md).  Each run measures one workload in a fresh process
(bench/workload.py).  Before and after it, SETUP_RUNS more processes each
only set up, to time set-up; reference runs (bench/reference.py) bracket
each of them.  With `--trace 0` it prints the end-to-end metrics, with every
time corrected for the host's speed; with `--trace 1` it runs one untraced
and one traced pass and prints the per-layer metrics.  Human-readable lines
come first; the last stdout line is one JSON object {"correct", "attempted",
"failed", "metrics"}.  The full run record (machine, load, digests, spans)
goes to bench/out/.

Exits 0 only when a result was printed; 1 when the workload process failed,
2 when the checkout holds no qcluster sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("two_route", "mutation_sweep", "count_sweep", "pentagon")
SETUP_RUNS = 6            # set-up-only processes before and after the measuring one
RUN_LIMIT_S = 170.0       # the whole run, every process included

END_TO_END = {
    "wall_s": "s", "case_p50_ms": "ms", "case_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio",
}

# Stats reported as `<name>.calls` and `<name>.self_s`, and as `.self_s` only.
CALLS_AND_SELF = (
    "qlaurent.mul", "qlaurent.divide_exact", "qlaurent.pfrac_new", "qlaurent.pfrac_add",
    "qlaurent.pfrac_mul", "qlaurent.pfrac_eq", "qlaurent.lefschetz",
    "torus.mul", "torus.exact_right_divide",
    "seed.mutate", "seed.verify_commutation", "seed.frame_monomial",
    "quiver.mutate_qp", "quiver.reduce",
    "decorated.h1_aggregate", "decorated.mutate_rep",
    "linalg.mat_mul", "linalg.rref",
    "dtseries.pochhammer", "dtseries.cone_mul", "dtseries.conjugate",
    "dtseries.factorization_check",
    "grassmannian.to_fq", "grassmannian.gr_count", "grassmannian.serre",
    "cli.main",
)
SELF_ONLY = ("seed.g_f_extract", "dtseries.dt_product_pair", "grassmannian.crosscheck")
SIZES = {
    "qlaurent.pfrac_num_terms_max": "terms", "torus.element_terms_max": "terms",
    "decorated.h1_dim_total": "dim", "dtseries.tail_retries": "count",
    "dtseries.cone_terms_max": "terms", "grassmannian.tuples_enumerated": "tuples",
    "grassmannian.budget_skips": "count",
}
LAYERS = ("qlaurent", "torus", "seed", "quiver", "decorated", "linalg",
          "dtseries", "grassmannian", "cli")


def per_layer_units() -> dict:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update(SIZES)
    units["qlaurent.divide_exact.hit_ratio"] = "ratio"
    units["grassmannian.points_per_tuple"] = "ratio"
    units["trace.overhead_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    return units


def tail(values):
    """(p, value) at the highest integer percentile p with >= 10 values above it.

    Nearest-rank percentiles; with fewer than 11 values it is the maximum.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        idx = max(math.ceil(p * n / 100) - 1, 0)
        if n - 1 - idx >= 10:
            return p, xs[idx]
    return 100, xs[-1]


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(child: dict, setups: list[tuple[float, float]], trace: bool):
    """(metrics, record) from the workload process's raw result.

    `setups` holds (set-up time, reference time) of each set-up-only process.
    """
    n_cases = len(child["labels"])
    passes = child["passes"] + ([child["traced"]] if trace else [])
    complete = [p for p in passes if None not in p["case_s"]]
    attempted = sum(t is not None for p in passes for t in p["case_s"])
    failures = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in complete}
    record = {
        "passes": len(child["passes"]),
        "complete_passes": sum(None not in p["case_s"] for p in child["passes"]),
        "pass_walls_s": [p["wall_s"] for p in child["passes"] if None not in p["case_s"]],
        "result_digest": digests.pop() if len(digests) == 1 else "differs between passes",
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "setup_samples_s": setups,
        "setup_phases_s": child["setup_phases"],
    }
    if not trace:
        timeline = reference.Timeline(child["probes"])
        runs = [[timeline.correct(p["case_start"][i], p["case_s"][i])
                 for p in child["passes"] if p["case_s"][i] is not None]
                for i in range(n_cases)]
        per_case = [statistics.median(r) for r in runs]
        raw = [statistics.median(p["case_s"][i] for p in child["passes"]
                                 if p["case_s"][i] is not None)
               for i in range(n_cases)]
        p_tail, v_tail = tail(per_case)
        record.update(case_samples=n_cases, case_tail_percentile=p_tail,
                      runs_per_case_min=min(map(len, runs)),
                      case_median_s=dict(zip(child["labels"], per_case)),
                      case_median_uncorrected_s=dict(zip(child["labels"], raw)),
                      uncorrected={"wall_s": math.fsum(raw),
                                   "case_p50_ms": statistics.median(raw) * 1000,
                                   "case_tail_ms": tail(raw)[1] * 1000,
                                   "setup_s": statistics.median(s for s, _ in setups)},
                      reference_ms={"median": statistics.median(
                                        s for _, s in child["probes"]) * 1000,
                                    "runs": len(child["probes"])},
                      case_s_by_pass=[p["case_s"] for p in child["passes"]])
        values = {
            "wall_s": math.fsum(per_case),
            "case_p50_ms": statistics.median(per_case) * 1000,
            "case_tail_ms": v_tail * 1000,
            "setup_s": statistics.median(s * reference.NOMINAL_S / r for s, r in setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "pass_frac": 1 - record["failed_frac"],
        }
        units = END_TO_END
    else:
        stats, sizes = child["trace"]["stats"], child["trace"]["sizes"]
        traced_wall = child["traced"]["wall_s"]
        values = {}
        for name in CALLS_AND_SELF:
            values[f"{name}.calls"], values[f"{name}.self_s"] = stats.get(name, (0, 0.0))
        for name in SELF_ONLY:
            values[f"{name}.self_s"] = stats.get(name, (0, 0.0))[1]
        for name in SIZES:
            values[name] = sizes.get(name, 0)
        values["qlaurent.divide_exact.hit_ratio"] = _ratio(
            sizes.get("qlaurent.divide_exact.hits", 0), values["qlaurent.divide_exact.calls"])
        values["grassmannian.points_per_tuple"] = _ratio(
            sizes.get("grassmannian.points", 0), sizes.get("grassmannian.tuples_enumerated", 0))
        values["trace.overhead_s"] = traced_wall - child["passes"][0]["wall_s"]
        for layer in LAYERS:
            self_s = sum(v[1] for k, v in stats.items() if k.split(".")[0] == layer)
            values[f"{layer}.self_share"] = self_s / traced_wall
        record.update(traced_wall_s=traced_wall, stats=stats, sizes=sizes,
                      spans=child["trace"]["spans"])
        units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return metrics, record


def run_workload_process(workload: str, seed: int, work: Path, timeout: float,
                         *extra: str) -> tuple[dict, float]:
    """Run bench/workload.py; returns its result and its set-up time.

    Set-up time runs from just before the process is started until it
    reports ready; both ends read the same monotonic clock.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), *extra]
    # String hashing is randomized per process; pin it so call counts repeat.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["ready"] - t0


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcluster").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcluster" / "__init__.py").is_file():
        print(f"error: no qcluster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "src_sha256": src_sha256(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "reference_ms_start": reference.probe_median(5) * 1000,
    }
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"

    def setup_only(i):
        """(set-up time, reference time) of one set-up-only process.

        The reference time is the median of three reference runs just before
        the process and three just after it.
        """
        before = [reference.probe() for _ in range(3)]
        took = run_workload_process(args.workload, args.seed, work / f"setup{i}",
                                    deadline - time.monotonic(), "--setup-only")[1]
        after = [reference.probe() for _ in range(3)]
        return took, statistics.median(before + after)

    try:
        setups = [setup_only(i) for i in range(SETUP_RUNS)]
        child, run_setup_s = run_workload_process(
            args.workload, args.seed, work / "run", deadline - time.monotonic(),
            "--seconds", str(args.seconds), "--trace", str(args.trace))
        setups += [setup_only(SETUP_RUNS + i) for i in range(SETUP_RUNS)]
        run_record["measuring_process_setup_s"] = run_setup_s
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, record = summarize(child, setups, bool(args.trace))
    run_record["loadavg_end"] = loadavg()
    run_record["reference_ms_end"] = reference.probe_median(5) * 1000
    run_record.update(record)
    correct = not record["failed"] and record["result_digest"] != "differs between passes"

    for name, m in metrics.items():
        print(f"{name:38s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':38s} {record['failed']}/{record['attempted']}")
    print(f"{'result_digest':38s} {record['result_digest']}")
    if not args.trace:
        print(f"{'case samples':38s} {record['case_samples']} cases, "
              f"{record['passes']} passes ({record['complete_passes']} complete), "
              f"tail at p{record['case_tail_percentile']}")
    for f in record["failures"]:
        print(f"FAILED case {f['case']}: {f['problem']}")
    if not args.trace:
        print("uncorrected (raw wall clock): " + ", ".join(
            f"{k} {v:.6g}" for k, v in record["uncorrected"].items()))
    print(f"load average {run_record['loadavg_start']} -> {run_record['loadavg_end']}; "
          f"reference {run_record['reference_ms_start']:.2f} -> "
          f"{run_record['reference_ms_end']:.2f} ms (nominal "
          f"{reference.NOMINAL_S * 1000:g} ms)")
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(run_record, indent=1))
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
