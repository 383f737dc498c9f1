"""Command-line driver: mutate / expand / count / identity-check.

A session is one JSON document (see README for the schema); output is
deterministic text on stdout, diagnostics on stderr, exit code 0 iff every
requested check passed.  --json replaces the text report with JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .decorated import h1_aggregate
from .dtseries import (TAIL_MARGIN, ConeSeries, conjugate, dt_product_pair,
                       factorization_check, g_of_lambda, initial_class_map,
                       pochhammer)
from .errors import QClusterError
from .grassmannian import coefficient_crosscheck
from .qlaurent import lefschetz_decompose
from .quiver import Arrow, Potential, QPData, Quiver, from_btilde, mutate_qp
from .seed import (cluster_monomial, f_polynomial, g_vector, initial_seed,
                   mutate_sequence)
from .torus import SkewForm, is_positive


ROUTES = ("mutation", "dt", "both")
_REQUIRED = object()


def _field(doc, name: str, convert, default=_REQUIRED):
    """The value at dotted `name`'s last key of doc, passed through convert.

    A missing required key, a non-object doc and a value that convert
    rejects are all QClusterErrors, so a malformed document exits 2.
    """
    owner, _, key = name.rpartition(".")
    if not isinstance(doc, dict):
        raise QClusterError(f"{owner or 'the session document'} must be a JSON object")
    if key not in doc and default is _REQUIRED:
        raise QClusterError(f"session document misses required key '{name}'")
    try:
        return convert(doc.get(key, default))
    except (TypeError, ValueError, LookupError, ZeroDivisionError) as exc:
        raise QClusterError(f"malformed {name}: {exc}") from None


def _ints(value):
    return [int(x) for x in value]


def _matrix(value):
    return [_ints(row) for row in value]


def _arrows(value):
    return [Arrow(str(a[0]), int(a[1]), int(a[2])) for a in value]


def _potential(value):
    return [(Fraction(int(num), int(den)), tuple(str(x) for x in word))
            for num, den, word in value]


class SessionSpec:
    """Parsed and validated session document."""

    def __init__(self, doc: dict):
        self.n = _field(doc, "n", int)
        self.lam_matrix = _field(doc, "lambda", _matrix)
        self.btilde = _field(doc, "btilde", _matrix)
        self.m = len(self.lam_matrix)
        if len(self.btilde) != self.m or any(len(r) != self.n for r in self.btilde):
            raise QClusterError("btilde must be m x n and match lambda's size")
        self.ks = _field(doc, "ks", _ints, [])
        if any(not 1 <= k <= self.n for k in self.ks):
            raise QClusterError("ks entries must lie in 1..n")
        self.lam = _field(doc, "lam", _ints, [0] * self.m)
        if len(self.lam) != self.m:
            raise QClusterError("lam must have length m")
        opts = doc.get("options", {})
        self.degree_cap = _field(opts, "options.degree_cap", int, 12)
        self.cone_bound = _field(opts, "options.cone_bound",
                                 lambda v: None if v is None else int(v), None)
        self.primes = _field(opts, "options.primes", _ints, [2, 3, 4, 5, 7, 8, 9])
        self.route = _field(opts, "options.route", str, "mutation")
        if self.route not in ROUTES:
            raise QClusterError(f"options.route must be one of {', '.join(ROUTES)}")
        self.budget = _field(opts, "options.budget", int, 500000)
        quiver = doc.get("quiver")
        self.quiver = None if quiver is None else (
            _field(quiver, "quiver.vertices", int), _field(quiver, "quiver.arrows", _arrows))
        self.potential = _field(doc, "potential", _potential, [])

    def form(self) -> SkewForm:
        return SkewForm(self.lam_matrix)

    def seed(self):
        return initial_seed(self.form(), self.btilde, self.n)

    def qp(self) -> QPData:
        if self.quiver is None:
            quiver = from_btilde(self.btilde, self.n)
        else:
            quiver = Quiver(*self.quiver)
            counts = quiver.arrow_count()
            for j in range(1, self.n + 1):
                for i in range(1, self.m + 1):
                    diff = counts.get((j, i), 0) - counts.get((i, j), 0)
                    if diff != self.btilde[i - 1][j - 1]:
                        raise QClusterError(
                            f"quiver does not realize btilde at ({i},{j}): "
                            f"a_ji - a_ij = {diff} != {self.btilde[i - 1][j - 1]}")
        terms = {}
        for coeff, word in self.potential:
            terms[word] = terms.get(word, Fraction(0)) + coeff
        qp = QPData(quiver, Potential(self.degree_cap, terms))
        qp.validate()
        return qp


def _render_matrix(rows) -> list[str]:
    return ["[" + ", ".join(str(x) for x in row) + "]" for row in rows]


def cmd_mutate(spec: SessionSpec, out: list[str], report: dict) -> bool:
    seed = mutate_sequence(spec.seed(), spec.ks)
    out.append("Lambda':")
    out.extend(_render_matrix(seed.lam.entries))
    out.append("B~':")
    out.extend(_render_matrix(seed.btilde))
    for i, var in enumerate(seed.vars, start=1):
        out.append(f"X_{i} = {var.render()}")
    report["lambda"] = [list(r) for r in seed.lam.entries]
    report["btilde"] = [list(r) for r in seed.btilde]
    report["vars"] = [v.render() for v in seed.vars]
    return True


def _dt_route(spec: SessionSpec):
    """A X^g A^{-1} at one cone bound: the H^1 dims plus TAIL_MARGIN unless given.

    Building H^1 also validates the quiver and potential on every DT run.
    """
    h1 = h1_aggregate(spec.qp(), spec.ks, spec.lam)
    if spec.cone_bound is None:
        bound = tuple(d + TAIL_MARGIN for d in h1.dims[:spec.n])
    else:
        bound = (spec.cone_bound,) * spec.n
    series, series_inv = dt_product_pair(spec.form(), spec.btilde, spec.ks, bound)
    return conjugate(series, g_of_lambda(spec.btilde, spec.ks, spec.lam), bound,
                     inverse=series_inv)


def cmd_expand(spec: SessionSpec, out: list[str], report: dict) -> bool:
    ok = True
    result = None
    if spec.route in ("mutation", "both"):
        result = cluster_monomial(spec.seed(), spec.ks, spec.lam)
        element = result.element
        gvec, fcoeffs = result.g_vector, result.f_coefficients
    if spec.route == "dt":
        element = _dt_route(spec)
        gvec = g_vector(element, spec.seed())
        fcoeffs = f_polynomial(element, gvec, spec.seed())
    out.append(f"element = {element.render()}")
    report["element"] = element.render()
    out.append("g = [" + ", ".join(str(x) for x in gvec) + "]")
    report["g"] = list(gvec)
    for gamma in sorted(fcoeffs):
        out.append(f"F[{','.join(str(x) for x in gamma)}] = {fcoeffs[gamma].render()}")
    report["f"] = {",".join(str(x) for x in gamma): c.render()
                   for gamma, c in sorted(fcoeffs.items())}
    pos = is_positive(element)
    out.append(f"positive: {'yes' if pos else 'NO'}")
    report["positive"] = pos
    ok = ok and pos
    lef_all = True
    for e in sorted(element.terms, key=lambda t: (sum(t), t)):
        dec = lefschetz_decompose(element.terms[e])
        label = "X[" + ",".join(str(x) for x in e) + "]"
        if dec.ok:
            mults = ", ".join(f"{k}:{c}" for k, c in sorted(dec.multiplicities.items()))
            out.append(f"lefschetz {label}: N={dec.center} mult={{{mults}}}")
        else:
            out.append(f"lefschetz {label}: FAILED ({dec.reason})")
            lef_all = False
    report["lefschetz"] = lef_all
    ok = ok and lef_all
    if spec.route == "both":
        dt_element = _dt_route(spec)
        agree = dt_element == result.element
        out.append("two-route: " + ("AGREE" if agree else "DISAGREE"))
        report["two_route"] = "AGREE" if agree else "DISAGREE"
        ok = ok and agree
    return ok


def cmd_count(spec: SessionSpec, out: list[str], report: dict, jobs: int = 1) -> bool:
    result = cluster_monomial(spec.seed(), spec.ks, spec.lam)
    qp = spec.qp()
    h1 = h1_aggregate(qp, spec.ks, spec.lam)
    qp_r = qp
    for k in spec.ks:
        qp_r, _ = mutate_qp(qp_r, k)
    gamma_map = initial_class_map(spec.btilde, spec.ks)
    check = coefficient_crosscheck(result.f_coefficients, h1, qp_r,
                                   primes=tuple(spec.primes), budget=spec.budget,
                                   gamma_map=gamma_map, jobs=jobs)
    out.append(f"mode: {check.mode}")
    out.append(f"h1 dims: [{', '.join(str(d) for d in h1.dims)}]")
    rows_json = []
    for row in check.rows:
        gamma = ",".join(str(x) for x in row.gamma)
        counts = " ".join(f"q={q}:{c}" for q, c in sorted(row.counts.items()))
        serre = row.serre.render_plain() if row.serre is not None else "-"
        verdict = ("SKIPPED " + row.note if row.note.startswith("SKIPPED")
                   else "match" if row.match
                   else "euler-match" if row.euler_match
                   else "MISMATCH")
        out.append(f"gamma [{gamma}] | {counts} | serre {serre} | "
                   f"F {row.f_coeff.render()} | {verdict}"
                   + ("" if row.purity_ok else " | PURITY-FAIL"))
        rows_json.append({"gamma": list(row.gamma), "counts": row.counts,
                          "serre": serre, "f": row.f_coeff.render(),
                          "verdict": verdict, "purity": row.purity_ok})
    report["mode"] = check.mode
    report["rows"] = rows_json
    report["ok"] = check.ok
    return check.ok


def cmd_identity_check(out: list[str], report: dict, depth: int = 12) -> bool:
    """Pentagon / factorization suite on the rank-2 exchange data."""
    ok = True
    checks = []

    def record(name, passed):
        nonlocal ok
        checks.append({"name": name, "ok": passed})
        out.append(f"{name}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed

    bound = (depth, depth)
    # arrow 1->2 orientation: E(w1)E(w2) = E(w2)E(w12)E(w1)
    form_a = SkewForm([[0, -1], [1, 0]])
    bt_a = [[0, -1], [1, 0]]
    e1 = pochhammer(form_a, bt_a, bound, (1, 0), +1)
    e2 = pochhammer(form_a, bt_a, bound, (0, 1), +1)
    e12 = pochhammer(form_a, bt_a, bound, (1, 1), +1)
    record(f"pentagon depth {depth}", factorization_check(e1 * e2, [e2, e12, e1]))
    # mirrored orientation
    form_b = SkewForm([[0, 1], [-1, 0]])
    bt_b = [[0, 1], [-1, 0]]
    f1 = pochhammer(form_b, bt_b, bound, (1, 0), +1)
    f2 = pochhammer(form_b, bt_b, bound, (0, 1), +1)
    f12 = pochhammer(form_b, bt_b, bound, (1, 1), +1)
    record(f"pentagon (mirror) depth {depth}",
           factorization_check(f2 * f1, [f1, f12, f2]))
    # inverse-product identities
    minus = pochhammer(form_a, bt_a, bound, (1, 0), -1)
    record("pochhammer inverse", factorization_check(
        ConeSeries.unit(form_a, bt_a, bound), [e1, minus]))
    # commuting classes on a 2x2 zero form (factors commute)
    form_c = SkewForm([[0, 0], [0, 0]])
    bt_c = [[1, 0], [0, 1]]
    g1 = pochhammer(form_c, bt_c, bound, (1, 0), +1)
    g2 = pochhammer(form_c, bt_c, bound, (0, 1), +1)
    record("commuting classes", factorization_check(g1 * g2, [g2, g1]))
    record("trivial split", factorization_check(
        e1, [e1, ConeSeries.unit(form_a, bt_a, bound)]))
    report["checks"] = checks
    return ok


def _load_spec(path: str) -> SessionSpec:
    with open(path) as fh:
        return SessionSpec(json.load(fh))


def _golden_compare(path: Path, text: str, err) -> bool:
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"golden file created: {path}", file=err)
        return True
    if path.read_text() != text:
        print(f"golden mismatch against {path}", file=err)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcluster",
        description="exact quantum cluster computations, two ways, with checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("mutate", "expand", "count"):
        p = sub.add_parser(name)
        p.add_argument("spec", help="session JSON document")
        p.add_argument("--route", choices=ROUTES)
        p.add_argument("--degree-cap", type=int)
        p.add_argument("--cone-bound", type=int)
        p.add_argument("--primes", help="comma-separated prime powers")
        if name == "count":
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the per-(stratum, q) counts")
        p.add_argument("--golden", help="golden-file directory")
        p.add_argument("--json", action="store_true", dest="as_json")
    p = sub.add_parser("identity-check")
    p.add_argument("--cone-bound", type=int, default=12)
    p.add_argument("--golden", help="golden-file directory")
    p.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    out: list[str] = []
    report: dict = {"command": args.command}
    try:
        if args.command == "identity-check":
            ok = cmd_identity_check(out, report, depth=args.cone_bound)
        else:
            spec = _load_spec(args.spec)
            if args.route:
                spec.route = args.route
            if args.degree_cap is not None:
                spec.degree_cap = args.degree_cap
            if args.cone_bound is not None:
                spec.cone_bound = args.cone_bound
            if args.primes:
                spec.primes = [int(x) for x in args.primes.split(",")]
            if args.command == "mutate":
                ok = cmd_mutate(spec, out, report)
            elif args.command == "expand":
                ok = cmd_expand(spec, out, report)
            else:
                ok = cmd_count(spec, out, report, jobs=args.jobs)
    except (QClusterError, OSError, json.JSONDecodeError, ValueError) as exc:
        suggested = getattr(exc, "suggested_bound", None)
        print(f"error: {exc}", file=sys.stderr)
        if suggested is not None:
            print(f"suggested cone bound: {list(suggested)}", file=sys.stderr)
        if args.as_json:
            error = {"type": type(exc).__name__, "message": str(exc),
                     "suggested_bound": None if suggested is None else list(suggested)}
            sys.stdout.write(json.dumps({"command": args.command, "ok": False, "error": error},
                                        indent=2, sort_keys=True) + "\n")
        return 2

    report["ok"] = ok
    if args.as_json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    if args.golden:
        path = Path(args.golden) / f"{args.command}.{'json' if args.as_json else 'txt'}"
        if not _golden_compare(path, text, sys.stderr):
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
