"""Decorated representations of a QP and their mutation.

Right-module convention throughout: the arrow a: i -> j acts as a linear
map M_j -> M_i, stored as a Mat of shape dims[i] x dims[j], and the word
(s_1, ..., s_r) acts by mats[s_r] * ... * mats[s_1].  The in/out assignment
for the mutation triangle lives in one place, `_triangle_maps`; the QP side
of a mutation is a `quiver.MutationStep`, shared by every representation of
one QP.  Each module map is written once, in place: the triangle's maps, the
reversed arrows' maps and a direct sum's block diagonals are built from rows
of the maps they come from, padded with zeros, so an empty arrow list or a
zero dimension is an empty row or slice, never a zero block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, RelationViolation
from .linalg import Echelon, Mat, column_echelon
from .quiver import MutationStep, QPData, cyclic_derivative, mutation_step


@dataclass
class DecRep:
    """A pair (M, V): Jacobi module matrices plus a decoration vector."""

    qp: QPData
    dims: tuple[int, ...]
    mats: dict[str, Mat]
    vdims: tuple[int, ...]

    def dim_at(self, v: int) -> int:
        return self.dims[v - 1]

    def total_dim(self) -> int:
        return sum(self.dims)


def _decoration(qp: QPData, vdims) -> DecRep:
    """The decorated representation (0, V) with dim V = vdims."""
    return DecRep(qp, (0,) * qp.quiver.m, {a: Mat.zero(0, 0) for a in qp.quiver.arrows},
                  tuple(vdims))


def negative_simple(qp: QPData, j: int) -> DecRep:
    """The trivial decorated representation (0, e_j)."""
    return _decoration(qp, (int(v == j) for v in range(1, qp.quiver.m + 1)))


def word_action(rep: DecRep, word) -> Mat:
    """Action of a path word: M_{target} -> M_{source}, first letter first."""
    rep.qp.quiver.word_endpoints(word)
    mat = rep.mats[word[0]]
    for letter in word[1:]:
        mat = rep.mats[letter] * mat
    return mat


def combination_action(rep: DecRep, comb: dict) -> Mat | None:
    """Action of a {path: coefficient} combination (parallel paths)."""
    if not comb:
        return None
    first = next(iter(comb))
    total = word_action(rep, first).scale(comb[first])
    for w, c in list(comb.items())[1:]:
        total = total + word_action(rep, w).scale(c)
    return total


def check_jacobi(rep: DecRep) -> None:
    """Raise RelationViolation unless all dW act by zero and M is nilpotent."""
    q = rep.qp.quiver
    for aid in q.arrows:
        der = cyclic_derivative(rep.qp.potential, q, aid)
        act = combination_action(rep, der)
        if act is not None and not act.is_zero():
            raise RelationViolation(f"cyclic derivative at {aid} acts nonzero")
    # the radical series M, rad M, rad^2 M, ...: rad^t M at vertex i is
    # spanned by the images of every arrow i -> j on rad^(t-1) M at j
    layer = [[tuple(int(t == i) for t in range(d)) for i in range(d)] for d in rep.dims]
    for _ in range(rep.total_dim()):
        layer = [Echelon().extend([rep.mats[a.id].apply(u) for a in q.arrows_from(v)
                                   for u in layer[a.target - 1]])
                 for v in range(1, q.m + 1)]
    if any(layer):
        raise RelationViolation("module is not nilpotent")


def _triangle_maps(rep: DecRep, step: MutationStep):
    """(alpha, beta, gamma) and the summand dimensions at vertex step.k.

    M_in = sum over arrows b: k->j of M_j, M_out = sum over arrows a: i->k
    of M_i.  alpha: M_in -> M_k lays the b's maps side by side, beta:
    M_k -> M_out stacks the a's maps (right-module convention); gamma's
    (b, a) block is the action of d_{[ba]} W_2 with composites expanded,
    zero where that derivative is.  Each map is written row by row, so an
    empty arrow list or a zero dimension gives an empty row or no rows.
    """
    outgoing, incoming = step.outgoing, step.incoming
    mats = rep.mats
    dk = rep.dim_at(step.k)
    in_dims = [rep.dim_at(b.target) for b in outgoing]
    out_dims = [rep.dim_at(a.source) for a in incoming]
    d_in, d_out = sum(in_dims), sum(out_dims)

    alpha = Mat(dk, d_in, [[x for b in outgoing for x in mats[b.id].a[i]] for i in range(dk)])
    beta = Mat(d_out, dk, [r for a in incoming for r in mats[a.id].a])
    gamma_rows = []
    for b, d in zip(outgoing, in_dims):
        acts = [combination_action(rep, step.gamma_words[(b.id, a.id)]) for a in incoming]
        for i in range(d):
            gamma_rows.append([x for act, w in zip(acts, out_dims)
                               for x in (act.a[i] if act else (0,) * w)])
    return alpha, beta, Mat(d_in, d_out, gamma_rows), in_dims, out_dims


def mutate_rep(rep: DecRep, step: MutationStep) -> DecRep:
    """DWZ mutation of a decorated representation at step.k.

    `step` is mutation_step(rep.qp, k).  Each space of the triangle
    M_in -alpha-> M_k -beta-> M_out -gamma-> M_in keeps one Echelon: the
    columns of the map into it are reduced once, then the kernels the
    other spaces give are added to it.  The splittings this picks are one
    choice; DWZ mutation is defined up to isomorphism.
    """
    if step.qp is not rep.qp:
        raise ValueError(f"the mutation step is not the one of this QP at {step.k}")
    k = step.k
    if not rep.total_dim() and not rep.vdims[k - 1]:
        return _decoration(step.reduced, rep.vdims)  # (0, V), V_k = 0: only the QP moves
    q = rep.qp.quiver
    alpha, beta, gamma, in_dims, out_dims = _triangle_maps(rep, step)
    d_in, d_out = alpha.cols, beta.rows
    vk = rep.vdims[k - 1]

    if not (alpha * gamma).is_zero():
        raise RelationViolation("alpha . gamma != 0: not a Jacobi module")
    if not (gamma * beta).is_zero():
        raise RelationViolation("gamma . beta != 0: not a Jacobi module")

    in_ech, im_gamma, ker_gamma, coords_gamma = column_echelon(gamma)
    k_ech, _, ker_alpha, _ = column_echelon(alpha)
    out_ech, _, ker_beta, _ = column_echelon(beta)
    c3 = in_ech.extend(ker_alpha)                       # ker alpha / im gamma
    vk_new = len(k_ech.extend(ker_beta))                # ker beta / (ker beta n im alpha)
    # ker gamma / im beta, kept as the indices of its vectors in out_ech; then
    # unit vectors complete a basis of M_out
    first = out_ech.added
    c1 = [first + t for t, v in enumerate(ker_gamma)
          if out_ech.add(dict(enumerate(v))) is None]
    out_ech.extend([tuple(int(t == i) for t in range(d_out)) for i in range(d_out)])
    n1, n2, n3 = len(c1), len(im_gamma), len(c3)
    dk_new = n1 + n2 + n3 + vk

    # alpha-bar: M_out -> M_k-bar, rows [ker g/im b | im g | 0 | 0]; the
    # ker g/im b rows are the c1 coordinates of each unit vector
    unit_coords = [out_ech.reduce({i: 1})[1] for i in range(d_out)]
    alpha_bar = ([[u.get(n, 0) for u in unit_coords] for n in c1] + list(coords_gamma.a)
                 + [(0,) * d_out] * (n3 + vk))
    # beta-bar: M_k-bar -> M_in, columns [0 | incl(im g) | incl(c3) | 0]
    beta_bar = [(0,) * n1 + tuple(v[i] for v in im_gamma) + tuple(v[i] for v in c3)
                + (0,) * vk for i in range(d_in)]

    dims_new = list(rep.dims)
    dims_new[k - 1] = dk_new
    vdims_new = list(rep.vdims)
    vdims_new[k - 1] = vk_new

    mats_new: dict[str, Mat] = {}
    for a in q.arrows.values():
        if a.source != k and a.target != k:
            mats_new[a.id] = rep.mats[a.id]
    for (bid, aid), cid in step.comp.items():
        mats_new[cid] = rep.mats[aid] * rep.mats[bid]
    off = 0
    for a, d in zip(step.incoming, out_dims):
        mats_new[step.rev[a.id]] = Mat(dk_new, d, [r[off:off + d] for r in alpha_bar])
        off += d
    off = 0
    for b, d in zip(step.outgoing, in_dims):
        mats_new[step.rev[b.id]] = Mat(d, dk_new, beta_bar[off:off + d])
        off += d

    out = DecRep(step.pre, tuple(dims_new), mats_new, tuple(vdims_new))
    out = _apply_trail(out, step.reduced, step.trail)
    check_jacobi(out)
    return out


def _apply_trail(rep: DecRep, reduced_qp: QPData, trail) -> DecRep:
    """Transport the module along the reduction's right-equivalence.

    For a potential substitution x -> x + corr the module action becomes
    rho(x) - rho(corr) (pullback along the inverse automorphism); deleted
    arrow pairs are dropped.
    """
    mats = dict(rep.mats)
    for kind, payload in trail:
        if kind == "subst":
            updated = dict(mats)
            for x, corr in payload.items():
                new_x = mats[x]
                for _ in range(rep.total_dim() + 2):
                    trial = DecRep(rep.qp, rep.dims, {**updated, x: new_x}, rep.vdims)
                    delta = combination_action(trial, corr)
                    candidate = mats[x] - delta
                    if candidate == new_x:
                        break
                    new_x = candidate
                updated[x] = new_x
            mats = updated
        else:
            x, y = payload
            mats.pop(x, None)
            mats.pop(y, None)
    keep = set(reduced_qp.quiver.arrows)
    mats = {aid: m for aid, m in mats.items() if aid in keep}
    return DecRep(reduced_qp, rep.dims, mats, rep.vdims)


def h1_aggregate(qp_r: QPData, ks, lam) -> DecRep:
    """H^1 of the twisted projectives: the direct sum, over the vertices j,
    of lam_j copies of the inverse mutations of (0, e_j).

    qp_r is the QP at the end of ks (mutate_qp_sequence of the initial QP).
    The summand of j is the negative simple at j of qp_r mutated back along
    reversed ks; its M-part is a module over a QP right-equivalent to the
    initial one.  Every summand passes through the same QPs, so each
    backward step (mutation_step) is computed once for all summands, and
    each vertex's summand is built once.
    """
    if any(x < 0 for x in lam):
        raise DimensionMismatch("cluster monomials need lam >= 0")
    qp = qp_r
    steps = []
    for k in reversed(list(ks)):
        steps.append(mutation_step(qp, k))
        qp = steps[-1].reduced
    terms = [(j, mult) for j, mult in enumerate(lam, start=1) if mult]
    if not terms:
        return _decoration(qp, (0,) * qp.quiver.m)
    reps = []
    for j, mult in terms:
        rep = negative_simple(qp_r, j)
        for step in steps:
            rep = mutate_rep(rep, step)
        reps.extend([rep] * mult)
    return direct_sum(reps)


def direct_sum(reps: list[DecRep]) -> DecRep:
    """Direct sum of decorated representations over the same QP."""
    base = reps[0]
    qp = base.qp
    for r in reps[1:]:
        if set(r.mats) != set(base.mats):
            raise RelationViolation("direct sum needs representations of one QP")
    m = qp.quiver.m
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(m))
    vdims = tuple(sum(r.vdims[v] for r in reps) for v in range(m))
    mats = {}
    for aid in qp.quiver.arrows:
        blocks = [r.mats[aid] for r in reps]
        width = sum(blk.cols for blk in blocks)
        rows, left = [], 0
        for blk in blocks:
            rows.extend((0,) * left + r + (0,) * (width - left - blk.cols) for r in blk.a)
            left += blk.cols
        mats[aid] = Mat(len(rows), width, rows)
    return DecRep(qp, dims, mats, vdims)
