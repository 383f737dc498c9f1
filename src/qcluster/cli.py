"""Command-line driver: mutate / expand / count / identity-check.

A session is one JSON document (see README for the schema); output is
deterministic text on stdout, diagnostics on stderr, exit code 0 iff every
requested check passed.  --json replaces the text report with JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .decorated import h1_aggregate
from .dtseries import (TAIL_MARGIN, ConeSeries, conjugate, dt_factors,
                       factorization_check, g_of_lambda, initial_class_map,
                       pochhammer)
from .errors import ChecksNotRun, DimensionMismatch, QClusterError
from .grassmannian import BUDGET, coefficient_crosscheck
from .qlaurent import lefschetz_decompose
from .quiver import (Arrow, Potential, QPData, Quiver, from_btilde,
                     mutate_qp_sequence)
from .seed import (cluster_monomial, f_polynomial, g_vector, initial_seed,
                   mutate_sequence)
from .torus import SkewForm, grlex_key, is_positive


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


def _int(value) -> int:
    """A JSON integer: bools, floats and strings are rejected, not converted."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _ints(value):
    return [_int(x) for x in value]


def _matrix(value):
    return [_ints(row) for row in value]


def _arrows(value):
    return [Arrow(str(a[0]), _int(a[1]), _int(a[2])) for a in value]


def _word(value):
    """A list of arrow ids; a string is not split into letters."""
    if not isinstance(value, list):
        raise TypeError(f"potential word {value!r} is not a list of arrow ids")
    return tuple(str(x) for x in value)


def _coefficient(num, den) -> Fraction:
    num, den = _int(num), _int(den)
    if den == 0:
        raise ValueError(f"coefficient {num}/0 has denominator 0")
    return Fraction(num, den)


def _potential(value):
    return [(_coefficient(num, den), _word(word)) for num, den, word in value]


class SessionSpec:
    """Parsed and validated session document.

    `form`, `seed` and `qp` are built once, for every command, so a pair
    that is not compatible, a quiver with potential that does not fit the
    document or a `lam` entry with more copies than H^1 can hold exits 2
    before any route runs.  `overrides` holds option values given on the
    command line; they replace the document's `options` entries and pass
    the same checks.
    """

    def __init__(self, doc: dict, overrides=None):
        self.n = _field(doc, "n", _int)
        self.lam_matrix = _field(doc, "lambda", _matrix)
        self.btilde = _field(doc, "btilde", _matrix)
        self.m = len(self.lam_matrix)
        if not 0 <= self.n <= self.m:
            raise QClusterError(f"n must lie in 0..m = {self.m}, got {self.n}")
        if len(self.btilde) != self.m or any(len(r) != self.n for r in self.btilde):
            raise QClusterError("btilde must be m x n and match lambda's size")
        self.ks = _field(doc, "ks", _ints, [])
        if any(not 1 <= k <= self.n for k in self.ks):
            raise QClusterError("ks entries must lie in 1..n")
        self.lam = _field(doc, "lam", _ints, [0] * self.m)
        if len(self.lam) != self.m:
            raise QClusterError("lam must have length m")
        for j, mult in enumerate(self.lam, start=1):
            if mult > sys.maxsize:
                raise DimensionMismatch(
                    f"lam entry {j} is {mult}: H^1 cannot hold more than {sys.maxsize} copies")
        opts = doc.get("options", {})
        if overrides and isinstance(opts, dict):
            opts = {**opts, **overrides}
        self.degree_cap = _field(opts, "options.degree_cap", _int, 12)
        if self.degree_cap < 2:
            raise QClusterError(f"degree cap must be at least 2, got {self.degree_cap}")
        self.cone_bound = _field(opts, "options.cone_bound",
                                 lambda v: None if v is None else _int(v), None)
        self.primes = _field(opts, "options.primes", _ints, [2, 3, 4, 5, 7, 8, 9])
        self.route = _field(opts, "options.route", str, "mutation")
        if self.route not in ROUTES:
            raise QClusterError(f"options.route must be one of {', '.join(ROUTES)}")
        self.budget = _field(opts, "options.budget", _int, BUDGET)
        if self.budget < 1:
            raise QClusterError(f"options.budget must be at least 1, got {self.budget}")
        quiver = doc.get("quiver")
        self.quiver = None if quiver is None else (
            _field(quiver, "quiver.vertices", _int), _field(quiver, "quiver.arrows", _arrows))
        if self.quiver is not None and self.quiver[0] != self.m:
            raise QClusterError(f"quiver.vertices must equal m = {self.m}, "
                                f"got {self.quiver[0]}")
        self.potential = _field(doc, "potential", _potential, [])
        self.qp = self._build_qp()
        self.form = SkewForm(self.lam_matrix)
        self.seed = initial_seed(self.form, self.btilde, self.n)

    def _build_qp(self) -> QPData:
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
            terms[word] = terms.get(word, 0) + coeff
        qp = QPData(quiver, Potential(self.degree_cap, terms))
        qp.validate()
        return qp


def _render_matrix(rows) -> list[str]:
    return ["[" + ", ".join(str(x) for x in row) + "]" for row in rows]


def cmd_mutate(spec: SessionSpec, out: list[str], report: dict) -> bool:
    seed = mutate_sequence(spec.seed, spec.ks)
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
    """A X^g A^{-1} at one cone bound: the H^1 dims plus TAIL_MARGIN unless given."""
    h1 = h1_aggregate(mutate_qp_sequence(spec.qp, spec.ks), spec.ks, spec.lam)
    if spec.cone_bound is None:
        bound = tuple(d + TAIL_MARGIN for d in h1.dims[:spec.n])
    else:
        bound = (spec.cone_bound,) * spec.n
    factors = dt_factors(spec.form, spec.btilde, spec.ks, bound)
    return conjugate(spec.form, spec.btilde, factors,
                     g_of_lambda(spec.btilde, spec.ks, spec.lam), bound)


def cmd_expand(spec: SessionSpec, out: list[str], report: dict) -> bool:
    ok = True
    result = None
    if spec.route in ("mutation", "both"):
        result = cluster_monomial(spec.seed, spec.ks, spec.lam)
        element = result.element
        gvec, fcoeffs = result.g_vector, result.f_coefficients
    if spec.route == "dt":
        element = _dt_route(spec)
        gvec = g_vector(element, spec.seed)
        fcoeffs = f_polynomial(element, gvec, spec.seed)
    report["element"] = element.render()
    out.append(f"element = {report['element']}")
    out.append("g = [" + ", ".join(str(x) for x in gvec) + "]")
    report["g"] = list(gvec)
    report["f"] = {",".join(str(x) for x in gamma): fcoeffs[gamma].render()
                   for gamma in sorted(fcoeffs)}
    out.extend(f"F[{gamma}] = {c}" for gamma, c in report["f"].items())
    pos = is_positive(element)
    out.append(f"positive: {'yes' if pos else 'NO'}")
    report["positive"] = pos
    ok = ok and pos
    lef_all = True
    for e in sorted(element.terms, key=grlex_key):
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


def cmd_count(spec: SessionSpec, out: list[str], report: dict) -> bool:
    """The per-stratum table.  Raises ChecksNotRun, with out and report
    filled, when a row's check did not run."""
    result = cluster_monomial(spec.seed, spec.ks, spec.lam)
    qp_r = mutate_qp_sequence(spec.qp, spec.ks)
    h1 = h1_aggregate(qp_r, spec.ks, spec.lam)
    gamma_map = initial_class_map(spec.btilde, spec.ks)
    check = coefficient_crosscheck(result.f_coefficients, h1, qp_r,
                                   primes=tuple(spec.primes), budget=spec.budget,
                                   gamma_map=gamma_map)
    out.append(f"mode: {check.mode}")
    out.append(f"h1 dims: [{', '.join(str(d) for d in h1.dims)}]")
    rows_json = []
    for row in check.rows:
        gamma = ",".join(str(x) for x in row.gamma)
        counts = " ".join(f"q={q}:{c}" for q, c in sorted(row.counts.items()))
        serre = row.serre.render_plain() if row.serre is not None else "-"
        verdict = ("SKIPPED: " + row.note if not row.checked
                   else "match" if row.match
                   else "euler-match" if row.euler_match
                   else "MISMATCH: " + row.note if row.note
                   else "MISMATCH")
        f = row.f_coeff.render()
        out.append(f"gamma [{gamma}] | {counts} | serre {serre} | F {f} | {verdict}"
                   + ("" if row.purity_ok else " | PURITY-FAIL"))
        rows_json.append({"gamma": list(row.gamma), "counts": row.counts,
                          "serre": serre, "f": f,
                          "verdict": verdict, "purity": row.purity_ok})
    report["mode"] = check.mode
    report["rows"] = rows_json
    report["ok"] = check.ok
    if check.unchecked:
        raise ChecksNotRun(f"{len(check.unchecked)} of {len(check.rows)} strata "
                           "were not checked; see the SKIPPED rows")
    return check.ok


def cmd_identity_check(out: list[str], report: dict, depth: int) -> bool:
    """Pentagon / factorization suite on the rank-2 exchange data."""
    if depth < 1:
        raise QClusterError(f"--cone-bound must be at least 1, got {depth}")
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


def _load_spec(path: str, overrides) -> SessionSpec:
    with open(path) as fh:
        return SessionSpec(json.load(fh), overrides)


def _option_flags(args) -> dict:
    """The options given as flags, keyed as in the session document."""
    flags = {"route": args.route, "degree_cap": args.degree_cap,
             "cone_bound": args.cone_bound, "primes": args.primes}
    if args.primes is not None:
        try:
            flags["primes"] = [int(x) for x in args.primes.split(",")]
        except ValueError:
            raise QClusterError("--primes takes comma-separated integers, "
                                f"got {args.primes!r}") from None
    return {key: value for key, value in flags.items() if value is not None}


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


class UsageError(Exception):
    """A command line that argparse rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """Prints argparse's usage error, then raises UsageError instead of exiting,
    so main can also report it under --json."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise UsageError(message)


def _print_json_error(command, exc: Exception) -> None:
    suggested = getattr(exc, "suggested_bound", None)
    error = {"type": type(exc).__name__, "message": str(exc),
             "suggested_bound": None if suggested is None else list(suggested)}
    sys.stdout.write(json.dumps({"command": command, "ok": False, "error": error},
                                indent=2, sort_keys=True) + "\n")


@functools.cache
def _parser():
    """The command-line parser and its subparsers action, built on first use."""
    parser = _ArgumentParser(
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
        p.add_argument("--golden", help="golden-file directory")
        p.add_argument("--json", action="store_true", dest="as_json")
    p = sub.add_parser("identity-check")
    p.add_argument("--cone-bound", type=int, default=12)
    p.add_argument("--golden", help="golden-file directory")
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser, sub


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, sub = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        if "--json" in argv:
            _print_json_error(argv[0] if argv[0] in sub.choices else None, exc)
        raise SystemExit(2) from None

    out: list[str] = []
    report: dict = {"command": args.command}
    not_run = None
    try:
        if args.command == "identity-check":
            ok = cmd_identity_check(out, report, depth=args.cone_bound)
        else:
            spec = _load_spec(args.spec, _option_flags(args))
            if args.command == "mutate":
                ok = cmd_mutate(spec, out, report)
            elif args.command == "expand":
                ok = cmd_expand(spec, out, report)
            else:
                ok = cmd_count(spec, out, report)
    except ChecksNotRun as exc:     # the report stands, and is printed
        ok, not_run = False, exc
    except (QClusterError, OSError, json.JSONDecodeError, ValueError) as exc:
        suggested = getattr(exc, "suggested_bound", None)
        print(f"error: {exc}", file=sys.stderr)
        if suggested is not None:
            print(f"suggested cone bound: {list(suggested)}", file=sys.stderr)
        if args.as_json:
            _print_json_error(args.command, exc)
        return 2

    report["ok"] = ok
    if args.as_json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    golden_ok = True
    if args.golden:
        path = Path(args.golden) / f"{args.command}.{'json' if args.as_json else 'txt'}"
        try:
            golden_ok = _golden_compare(path, text, sys.stderr)
        except (OSError, ValueError) as exc:    # the report is out: only say why
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not_run is not None:
        print(f"error: {not_run}", file=sys.stderr)
        return 2
    return 0 if ok and golden_ok else 1


if __name__ == "__main__":
    sys.exit(main())
