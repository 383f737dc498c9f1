"""Per-layer tracing installed from outside the package.

`Tracer.install()` replaces selected public functions and methods of the
qcluster modules with timing wrappers: on the defining module or class, and
on every qcluster module that imported the name, so no call bypasses a
wrapper.  Every wrapper keeps a call count and self time (its duration minus
the time spent in nested wrapped calls).  The coarse calls also record a
span (name, start, end, parent span, case id); the hot arithmetic, called
millions of times, keeps only the aggregates.  Everything stays in memory
until `snapshot()`.

Nothing here runs unless a traced pass asks for it: importing this module
patches nothing.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, owner, attribute, stat name, records a span)
# owner is a class name inside the module, or None for a module function.
TARGETS = (
    ("qlaurent", "QLaurent", "__mul__", "qlaurent.mul", False),
    ("qlaurent", "QLaurent", "divide_exact", "qlaurent.divide_exact", False),
    ("qlaurent", "PochhammerFraction", "__init__", "qlaurent.pfrac_new", False),
    ("qlaurent", "PochhammerFraction", "__add__", "qlaurent.pfrac_add", False),
    ("qlaurent", "PochhammerFraction", "__mul__", "qlaurent.pfrac_mul", False),
    ("qlaurent", "PochhammerFraction", "__eq__", "qlaurent.pfrac_eq", False),
    ("qlaurent", None, "lefschetz_decompose", "qlaurent.lefschetz", False),
    ("torus", "TorusElement", "__mul__", "torus.mul", False),
    ("torus", None, "exact_right_divide", "torus.exact_right_divide", False),
    ("seed", None, "mutate", "seed.mutate", False),
    ("seed", None, "verify_commutation", "seed.verify_commutation", False),
    ("seed", None, "frame_monomial", "seed.frame_monomial", False),
    ("seed", None, "g_vector", "seed.g_f_extract", False),
    ("seed", None, "f_polynomial", "seed.g_f_extract", False),
    ("seed", None, "cluster_monomial", "seed.cluster_monomial", True),
    ("quiver", None, "mutate_qp", "quiver.mutate_qp", False),
    ("quiver", None, "reduce_with_trail", "quiver.reduce", False),
    ("decorated", None, "h1_aggregate", "decorated.h1_aggregate", True),
    ("decorated", None, "mutate_rep", "decorated.mutate_rep", False),
    ("linalg", "Mat", "__mul__", "linalg.mat_mul", False),
    ("linalg", None, "rref", "linalg.rref", False),
    ("dtseries", None, "pochhammer", "dtseries.pochhammer", False),
    ("dtseries", "ConeSeries", "__mul__", "dtseries.cone_mul", False),
    ("dtseries", None, "dt_product_pair", "dtseries.dt_product_pair", True),
    ("dtseries", None, "conjugate", "dtseries.conjugate", True),
    ("dtseries", None, "factorization_check", "dtseries.factorization_check", True),
    ("grassmannian", None, "to_fq", "grassmannian.to_fq", False),
    ("grassmannian", None, "gr_count", "grassmannian.gr_count", True),
    ("grassmannian", None, "serre_interpolate", "grassmannian.serre", False),
    ("grassmannian", None, "coefficient_crosscheck", "grassmannian.crosscheck", True),
    ("cli", None, "main", "cli.main", True),
)

class Tracer:
    """Call counts, self times, sizes and spans of one traced pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, self seconds]
        self.sizes: dict[str, float] = {}    # size counters and maxima
        self.spans: list[tuple] = []         # (id, name, start, end, parent, case)
        self.case = None
        self._frames: list[list] = []        # child seconds of each open call
        self._open_spans: list[int] = []

    # -- sizes --------------------------------------------------------

    def _add(self, key, value):
        self.sizes[key] = self.sizes.get(key, 0) + value

    def _max(self, key, value):
        if value > self.sizes.get(key, 0):
            self.sizes[key] = value

    def _post_hooks(self, qc):
        """stat name -> (hook(args, result), exceptions counted as a size)."""
        gaussian_binomial = qc["grassmannian"].gaussian_binomial
        BudgetExceeded = qc["errors"].BudgetExceeded
        TailNotVanishing = qc["errors"].TailNotVanishing

        def tuples(rep, gamma):
            if any(g < 0 or g > d for g, d in zip(gamma, rep.dims)):
                return 0
            total = 1
            for d, g in zip(rep.dims, gamma):
                total *= gaussian_binomial(d, d - g, rep.field.q)
            return total

        def gr_count(args, result):
            self._add("grassmannian.tuples_enumerated", tuples(args[0], args[1]))
            self._add("grassmannian.points", result)

        return {
            "qlaurent.divide_exact": (
                lambda a, r: self._add("qlaurent.divide_exact.hits", r is not None), ()),
            "qlaurent.pfrac_new": (
                lambda a, r: self._max("qlaurent.pfrac_num_terms_max", len(a[0].num.terms)), ()),
            "torus.mul": (
                lambda a, r: self._max("torus.element_terms_max", len(r.terms)), ()),
            "torus.exact_right_divide": (
                lambda a, r: self._max("torus.element_terms_max", len(r.terms)), ()),
            "decorated.h1_aggregate": (
                lambda a, r: self._add("decorated.h1_dim_total", r.total_dim()), ()),
            "dtseries.cone_mul": (
                lambda a, r: self._max("dtseries.cone_terms_max", len(r.coeffs)), ()),
            "dtseries.conjugate": (None, (TailNotVanishing, "dtseries.tail_retries")),
            "grassmannian.gr_count": (
                gr_count, (BudgetExceeded, "grassmannian.budget_skips")),
        }

    # -- wrappers -----------------------------------------------------

    def _wrap(self, func, name, span, post, error):
        stat = self.stats.setdefault(name, [0, 0.0])
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        err_type, err_key = error or ((), None)

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = len(spans)
                parent = open_spans[-1] if open_spans else None
                spans.append(None)
                open_spans.append(sid)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            except err_type:
                self._add(err_key, 1)
                raise
            finally:
                t1 = clock()
                frames.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                if frames:
                    frames[-1][0] += t1 - t0
                if span:
                    open_spans.pop()
                    spans[sid] = (sid, name, t0, t1, parent, self.case)
            if post is not None:
                tp = clock()
                post(args, result)
                if frames:
                    frames[-1][0] += clock() - tp
            return result

        return functools.update_wrapper(traced, func)

    def install(self):
        """Patch every target; call once per process."""
        qc = {name[len("qcluster."):]: mod for name, mod in sys.modules.items()
              if name.startswith("qcluster.")}
        modules = list(qc.values()) + [sys.modules["qcluster"]]
        hooks = self._post_hooks(qc)
        for mod_name, owner, attr, name, span in TARGETS:
            post, error = hooks.get(name, (None, None))
            if owner is not None:
                cls = getattr(qc[mod_name], owner)
                setattr(cls, attr, self._wrap(cls.__dict__[attr], name, span, post, error))
                continue
            original = getattr(qc[mod_name], attr)
            wrapper = self._wrap(original, name, span, post, error)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def wrap_case(self, func):
        """`func` wrapped as the root span of one case; set `case` before calling."""
        return self._wrap(func, "bench.case", True, None, None)

    def snapshot(self) -> dict:
        """Counts, self times, sizes and spans recorded so far."""
        return {"stats": {k: list(v) for k, v in sorted(self.stats.items())},
                "sizes": dict(sorted(self.sizes.items())),
                "spans": [s for s in self.spans if s is not None]}
