"""Quivers, truncated formal potentials, cyclic derivatives, DWZ mutation.

Words are nonempty tuples of arrow ids; a word (s_1, ..., s_r) is a path when
source(s_l) = target(s_{l+1}), i.e. the rightmost letter is traversed first
(function-composition order, matching the right-module action).  Cyclic
words are stored in their lexicographically minimal rotation.  Potentials
carry rational coefficients, ints when integral (`linalg.exact`), and are
truncated at a configurable degree cap.
DWZ mutation at k is one `mutation_step`: premutation and reduction, with
the bookkeeping a representation needs to follow it; `mutate_qp` keeps only
the reduced QP.  Potentials have no arithmetic: the premutation's W_1 + W_2
is built as one `Potential`, its two term sets being disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

from .errors import DegreeCapExceeded, LoopAtVertex, NotSkewSymmetric, QClusterError
from .linalg import exact


@dataclass(frozen=True)
class Arrow:
    id: str
    source: int
    target: int


class Quiver:
    """Vertices 1..m plus a deterministic, id-keyed arrow list."""

    __slots__ = ("m", "arrows")

    def __init__(self, m: int, arrows):
        self.m = m
        amap = {}
        for a in arrows:
            if not (1 <= a.source <= m and 1 <= a.target <= m):
                raise QClusterError(f"arrow {a.id} endpoints out of range")
            if a.id in amap:
                raise QClusterError(f"duplicate arrow id {a.id}")
            amap[a.id] = a
        self.arrows = dict(sorted(amap.items()))

    def arrows_from(self, v: int):
        return [a for a in self.arrows.values() if a.source == v]

    def arrows_into(self, v: int):
        return [a for a in self.arrows.values() if a.target == v]

    def arrow_count(self):
        """{(source, target): multiplicity}."""
        out: dict[tuple[int, int], int] = {}
        for a in self.arrows.values():
            out[(a.source, a.target)] = out.get((a.source, a.target), 0) + 1
        return out

    def has_loop_at(self, v: int) -> bool:
        return any(a.source == a.target == v for a in self.arrows.values())

    def word_endpoints(self, word):
        """(source, target) of a path word; raises if not composable."""
        if not word:
            raise QClusterError("the empty word is not a path")
        arrows = self.arrows
        unknown = next((x for x in word if x not in arrows), None)
        if unknown is not None:
            raise QClusterError(f"word {word} names no arrow {unknown!r}")
        for l in range(len(word) - 1):
            if arrows[word[l]].source != arrows[word[l + 1]].target:
                raise QClusterError(f"word {word} is not a path")
        return arrows[word[-1]].source, arrows[word[0]].target

    def is_cyclic_word(self, word) -> bool:
        src, tgt = self.word_endpoints(word)
        return src == tgt

    def subquiver_is_acyclic(self, vertices) -> bool:
        """No oriented cycle, loops included, inside the given vertex subset."""
        verts = set(vertices)
        preds = {v: set() for v in verts}
        for a in self.arrows.values():
            if a.source in verts and a.target in verts:
                preds[a.target].add(a.source)
        try:
            TopologicalSorter(preds).prepare()
        except CycleError:
            return False
        return True

    def __eq__(self, other):
        """Equality up to arrow renaming: same vertex count and multiplicities."""
        return (isinstance(other, Quiver) and self.m == other.m
                and self.arrow_count() == other.arrow_count())

    def __repr__(self):
        arrows = ", ".join(f"{a.id}:{a.source}->{a.target}" for a in self.arrows.values())
        return f"Quiver(m={self.m}, {arrows})"


def canonical_rotation(word):
    """Lexicographically minimal rotation of a tuple of arrow ids."""
    n = len(word)
    doubled = word + word
    return min(tuple(doubled[i:i + n]) for i in range(n))


class Potential:
    """A finite sum of cyclic words with exact rational coefficients, capped at D.

    A coefficient is stored as `linalg.exact` gives it: an int when it is
    integral, a Fraction only when it is not.  Each word is rotated to its
    canonical form here, and equal words merged, so callers pass words in
    any rotation.
    """

    __slots__ = ("degree_cap", "terms")

    def __init__(self, degree_cap: int, terms=None):
        if degree_cap < 2:
            raise QClusterError("degree cap must be >= 2")
        self.degree_cap = degree_cap
        out = {}
        for w, c in (terms or {}).items():
            if c == 0 or len(w) > degree_cap:
                continue
            if len(w) == 0:
                raise QClusterError("length-0 potential terms are not allowed")
            w = canonical_rotation(tuple(w))
            out[w] = out.get(w, 0) + c
        self.terms = {w: exact(c) for w, c in out.items() if c != 0}

    def __eq__(self, other):
        return isinstance(other, Potential) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Potential(0)"
        body = " + ".join(f"{c}*{''.join(w)}" if c != 1 else "".join(w)
                          for w, c in sorted(self.terms.items()))
        return f"Potential({body})"


@dataclass
class QPData:
    quiver: Quiver
    potential: Potential

    def validate(self):
        for w in self.potential.terms:
            if not self.quiver.is_cyclic_word(w):
                raise QClusterError(f"potential word {w} is not a closed path")


def _numbered_quiver(m: int, counts) -> Quiver:
    """The quiver with counts[(source, target)] arrows a1, a2, ... in sorted order."""
    arrows = []
    for src, tgt in sorted(counts):
        for _ in range(counts[(src, tgt)]):
            arrows.append(Arrow(f"a{len(arrows) + 1}", src, tgt))
    return Quiver(m, arrows)


def from_btilde(btilde, n: int) -> Quiver:
    """The canonical 2-acyclic quiver with a_{ji} - a_{ij} = b_{ij}.

    There are no arrows among the frozen vertices n+1..m, the block the
    exchange matrix does not see.
    """
    m = len(btilde)
    for i in range(n):
        for j in range(n):
            if btilde[i][j] != -btilde[j][i]:
                raise NotSkewSymmetric("upper block of btilde must be skew-symmetric")
    counts: dict[tuple[int, int], int] = {}
    for j in range(1, n + 1):
        for i in range(1, m + 1):
            b = btilde[i - 1][j - 1]
            if b > 0:
                counts[(j, i)] = counts.get((j, i), 0) + b
            elif b < 0 and i > n:
                counts[(i, j)] = counts.get((i, j), 0) - b
    return _numbered_quiver(m, counts)


def cyclic_derivative(p: Potential, q: Quiver, aid: str):
    """d/d(aid) of the potential: {path word: coefficient}.

    For each cyclic word and each occurrence of the arrow, contribute the
    word with that occurrence deleted, rotated to start just after it.
    """
    out = {}
    for w, c in p.terms.items():
        L = len(w)
        for pos in range(L):
            if w[pos] == aid:
                rest = tuple(w[(pos + i) % L] for i in range(1, L))
                if rest:
                    out[rest] = out.get(rest, 0) + c
                else:
                    raise QClusterError("derivative of a loop word is a lazy path")
    return {w: c for w, c in out.items() if c != 0}


def _fresh_id(base: str, taken) -> str:
    cand = base
    while cand in taken:
        cand += "'"
    return cand


@dataclass(frozen=True)
class MutationStep:
    """DWZ mutation of qp at k, with what a module needs to follow it.

    `pre` is the premutation: every arrow at k reversed (`rev` maps an
    arrow's id to its reversal's), a composite [ba] for each b: k -> j and
    a: i -> k (`comp` maps (b, a) to its id), and W_1 + W_2.  `outgoing`
    (the b's) and `incoming` (the a's) are in id order.  `reduced` and
    `trail` are the reduction of `pre`.
    """

    qp: QPData
    k: int
    pre: QPData
    rev: dict
    comp: dict
    outgoing: list
    incoming: list
    w2: Potential
    reduced: QPData
    trail: list

    @cached_property
    def gamma_words(self) -> dict:
        """{(b, a): d_[ba] W_2 with composite arrows expanded into paths of qp}."""
        expand = {cid: pair for pair, cid in self.comp.items()}
        out = {}
        for pair, cid in self.comp.items():
            words = {}
            for w, c in cyclic_derivative(self.w2, self.pre.quiver, cid).items():
                flat = tuple(x for letter in w for x in expand.get(letter, (letter,)))
                words[flat] = words.get(flat, 0) + c
            out[pair] = words
        return out


def mutation_step(qp: QPData, k: int) -> MutationStep:
    """Premutation of qp at k, then its reduction."""
    q = qp.quiver
    if q.has_loop_at(k):
        raise LoopAtVertex(f"loop at vertex {k}")
    incoming = q.arrows_into(k)
    outgoing = q.arrows_from(k)
    taken = set(q.arrows)
    arrows = [a for a in q.arrows.values() if a.source != k and a.target != k]
    rev = {}
    for a in incoming + outgoing:
        rid = _fresh_id(a.id + "*", taken)
        taken.add(rid)
        rev[a.id] = rid
        arrows.append(Arrow(rid, a.target, a.source))
    comp = {}
    for b in outgoing:
        for a in incoming:
            cid = _fresh_id(f"[{b.id}.{a.id}]", taken)
            taken.add(cid)
            comp[(b.id, a.id)] = cid
            arrows.append(Arrow(cid, a.source, b.target))

    out_ids = {a.id for a in outgoing}
    in_ids = {a.id for a in incoming}
    cap = qp.potential.degree_cap
    w1 = {(cid, rev[aid], rev[bid]): 1 for (bid, aid), cid in comp.items()}
    w2 = {}
    for w, c in qp.potential.terms.items():
        w2_word = _replace_passages(w, out_ids, in_ids, comp)
        w2[w2_word] = w2.get(w2_word, 0) + c
    w2 = Potential(cap, w2)
    # W1 + W2: every W1 word holds a reversed arrow and no W2 word does, so
    # the two term sets are disjoint, and W2's words are canonical already
    pot = Potential(cap, w1)
    pot.terms.update(w2.terms)
    pre = QPData(Quiver(q.m, arrows), pot)
    reduced, trail = reduce_with_trail(pre)
    return MutationStep(qp, k, pre, rev, comp, outgoing, incoming, w2, reduced, trail)


def _replace_passages(word, out_ids, in_ids, comp):
    """Replace each adjacent (out-of-k, into-k) pair by the composite arrow."""
    L = len(word)
    start = None
    for p in range(L):
        prev = word[(p - 1) % L]
        if not (word[p] in in_ids and prev in out_ids):
            start = p
            break
    if start is None:
        raise QClusterError("cyclic word alternates through k in a way that "
                            "cannot be rotated to a safe start")
    rotated = tuple(word[(start + i) % L] for i in range(L))
    out = []
    i = 0
    while i < L:
        if (rotated[i] in out_ids and i + 1 < L and rotated[i + 1] in in_ids):
            out.append(comp[(rotated[i], rotated[i + 1])])
            i += 2
        else:
            out.append(rotated[i])
            i += 1
    return tuple(out)


def _substitute(pot: Potential, subs) -> Potential:
    """Apply arrow -> arrow + correction (a {path: coefficient} map) to W."""
    cap = pot.degree_cap
    out = {}
    for w, c in pot.terms.items():
        acc = {(): c}
        for letter in w:
            options = {(letter,): 1}
            if letter in subs:
                for path, coeff in subs[letter].items():
                    options[path] = options.get(path, 0) + coeff
            nxt = {}
            for pref, pc in acc.items():
                for path, oc in options.items():
                    joined = pref + path
                    if len(joined) > cap:
                        continue
                    nxt[joined] = nxt.get(joined, 0) + pc * oc
            acc = nxt
        for word, coeff in acc.items():
            if word:
                out[word] = out.get(word, 0) + coeff
    return Potential(cap, out)


def reduce_with_trail(qp: QPData):
    """Split off the trivial part: returns (reduced QPData, trail).

    The trail records, in order, every substitution {arrow: correction} that
    was applied to the potential and every deleted arrow pair, so module
    structures can be transported along the same right-equivalence.
    """
    q, pot = qp.quiver, qp.potential
    trail: list[tuple] = []
    max_rounds = 4 * pot.degree_cap + len(q.arrows) ** 2 + 8
    rounds = 0
    while True:
        quad = sorted(w for w in pot.terms if len(w) <= 2)
        if not quad:
            break
        w = quad[0]
        if len(w) == 1 or w[0] == w[1]:
            raise QClusterError(f"cannot reduce degenerate short term {w}")
        x, y = w
        c = pot.terms[w]
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise DegreeCapExceeded(
                    "reduction did not stabilize within the degree cap")
            dx = cyclic_derivative(pot, q, x)
            dx.pop((y,), None)
            dy = cyclic_derivative(pot, q, y)
            dy.pop((x,), None)
            if not dx and not dy:
                break
            subs = {}
            if dy:
                subs[x] = {p: exact(Fraction(-coeff, c)) for p, coeff in dy.items()}
            if dx:
                subs[y] = {p: exact(Fraction(-coeff, c)) for p, coeff in dx.items()}
            trail.append(("subst", subs))
            pot = _substitute(pot, subs)
            c = pot.terms.get(w, 0)
            if c == 0:
                raise DegreeCapExceeded(
                    "quadratic pivot vanished during reduction")
        trail.append(("delete", (x, y)))
        rest = Potential(pot.degree_cap)
        rest.terms = {w_: c_ for w_, c_ in pot.terms.items() if w_ != w}
        pot = rest
        q = Quiver(q.m, [a for a in q.arrows.values() if a.id not in (x, y)])
    out = QPData(q, pot)
    out.validate()
    return out, trail


def mutate_qp(qp: QPData, k: int) -> QPData:
    """mu_k: premutation, then reduction."""
    return mutation_step(qp, k).reduced


def mutate_qp_sequence(qp: QPData, ks) -> QPData:
    """The QP reached by mutating at ks[0], ks[1], ... in turn."""
    for k in ks:
        qp = mutate_qp(qp, k)
    return qp


def euler_form(q: Quiver, g1, g2) -> int:
    """chi(g1, g2) = sum_i g1_i g2_i - sum_{arrows s->t} g1_t g2_s.

    Right-module convention: this is the homological Euler form for
    representations where an arrow s->t acts M_t -> M_s.
    """
    total = sum(a * b for a, b in zip(g1, g2))
    for arr in q.arrows.values():
        total -= g1[arr.target - 1] * g2[arr.source - 1]
    return total
