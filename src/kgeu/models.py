"""Embedding model parameter layout, initialization, scoring, and gradients.

Three scoring functions over one row-per-id table:

* transe:  score(s,p,o) = -||v_s + v_p - v_o||            (L1 or L2)
* transh:  score(s,p,o) = -||proj(v_s) + v_p - proj(v_o)|| with
           proj(x) = x - (w_p . x) w_p for a unit normal w_p per relation
* complex: score(s,p,o) = Re( sum_k s_k * r_k * conj(o_k) ), rows storing
           dim real parts followed by dim imaginary parts

Each model's score is written once, in `_forward`, which also returns
the gradient rows when training asks for them. `score_batch` runs it on id
triples; `score_candidates` is a block loop running it on each query's
fixed rows against cache-sized blocks of head, relation or tail
candidates. The one approximate path is `CandidateScreen`, which serves
evaluation: one matrix product per chunk of queries gives every
candidate's score up to a proven error bound, and the evaluator rescores
with `score_batch` only the candidates that the bound cannot place.

A unified vocabulary id owns a single row, so a term's entity-role and
relation-role vectors are the same storage and stay identical through
training. Gradients are analytic, returned sparsely for exactly the rows
a positive/negative pair touches, and are checked against central finite
differences in the test suite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .vocab import Vocabulary

MODELS = ("transe", "transh", "complex")
NORMS = ("l1", "l2")


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_finite_real(x) -> bool:
    """An int or float (not a bool) that is neither infinite nor nan;
    compared, not converted, so a huge int cannot overflow."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and -math.inf < x < math.inf


@dataclass(frozen=True)
class ModelConfig:
    model: str = "transe"
    dim: int = 200
    norm: str = "l2"
    margin: float = 1.0       # margin-ranking models only
    complex_reg: float = 1e-3  # logistic-loss L2 weight, complex only

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidConfigError(f"unknown model {self.model!r}")
        if not (is_int(self.dim) and self.dim > 0):
            raise InvalidConfigError("dim must be a positive integer")
        if self.norm not in NORMS:
            raise InvalidConfigError(f"unknown norm {self.norm!r}")
        if not (is_finite_real(self.margin) and self.margin > 0):
            raise InvalidConfigError("margin must be positive and finite")
        if not (is_finite_real(self.complex_reg) and self.complex_reg >= 0):
            raise InvalidConfigError("complex_reg must be non-negative and finite")

    @property
    def width(self) -> int:
        """Stored row width: 2*dim for complex (real+imaginary), else dim."""
        return 2 * self.dim if self.model == "complex" else self.dim


@dataclass
class EmbeddingTable:
    """Learned parameters: one row per vocabulary id, plus per-relation
    hyperplane normals for transh."""

    config: ModelConfig
    node_vectors: np.ndarray                 # (n_ids, width) float64
    relation_normals: np.ndarray | None      # (n_properties, dim), transh only
    property_ids: np.ndarray                 # ascending; row k of normals is property_ids[k]

    def normal_slot(self, p: np.ndarray | int) -> np.ndarray | int:
        """Dense index of property id(s) into relation_normals."""
        return np.searchsorted(self.property_ids, p)

    def copy(self) -> "EmbeddingTable":
        normals = None if self.relation_normals is None else self.relation_normals.copy()
        return EmbeddingTable(self.config, self.node_vectors.copy(), normals, self.property_ids)

    def all_finite(self) -> bool:
        ok = bool(np.all(np.isfinite(self.node_vectors)))
        if self.relation_normals is not None:
            ok = ok and bool(np.all(np.isfinite(self.relation_normals)))
        return ok


def init_embeddings(
    config: ModelConfig,
    vocab: Vocabulary,
    rng: np.random.Generator,
    share: str = "always",
) -> EmbeddingTable:
    """Draw every row i.i.d. uniform on [-6/sqrt(w), +6/sqrt(w)] for row
    width w, then apply per-model normalization.

    transe entity rows are L2-normalized to 1. transh hyperplane normals
    are drawn the same way and normalized to unit length. With
    share='init-only' on a non-unified vocabulary, each term holding both
    roles has its entity-role row initialized as a copy of its
    relation-role row (the rows then train independently); a unified
    vocabulary shares storage structurally and ignores the flag.
    """
    if share not in ("always", "init-only"):
        raise InvalidConfigError(f"unknown share mode {share!r}")
    n = len(vocab)
    width = config.width
    bound = 6.0 / np.sqrt(width)
    nodes = rng.uniform(-bound, bound, size=(n, width))

    if share == "init-only" and not vocab.unify:
        for _, eid, pid in vocab.shared_terms():
            nodes[eid] = nodes[pid]

    if config.model == "transe":
        ent = vocab.entity_ids
        nodes[ent] = _unit_rows(nodes[ent])

    normals = None
    if config.model == "transh":
        nbound = 6.0 / np.sqrt(config.dim)
        normals = rng.uniform(-nbound, nbound, size=(len(vocab.property_ids), config.dim))
        normals = _unit_rows(normals)

    return EmbeddingTable(config, nodes, normals, vocab.property_ids.copy())


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.maximum(norms, 1e-300)


def renormalize_entities(table: EmbeddingTable, vocab: Vocabulary) -> None:
    """transe constraint: entity rows (shared rows included) back to unit L2."""
    ent = vocab.entity_ids
    table.node_vectors[ent] = _unit_rows(table.node_vectors[ent])


def renormalize_normals(table: EmbeddingTable, slots: np.ndarray) -> None:
    """transh constraint: the hyperplane normals `slots` back to unit L2."""
    table.relation_normals[slots] = _unit_rows(table.relation_normals[slots])


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

# The slot each direction predicts is its index in (s, p, o). A query holds
# the other two ids in (s, p, o) order: (p, o) for head, (s, o) for
# relation, (s, p) for tail.
DIRECTIONS = ("head", "relation", "tail")


def _complex_parts(rows: np.ndarray, dim: int):
    return rows[..., :dim], rows[..., dim:]


def _into(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ufunc(a, b), written over the temporary `a` unless `b` has more rows."""
    return ufunc(a, b, out=a if len(a) >= len(b) else None)


def _forward(cfg: ModelConfig, roles, w: np.ndarray | None = None, grad: bool = False):
    """Scores of the triples whose (s, p, o) role rows are roles(0..2):
    broadcastable (n or 1, width) arrays, each fetched once when first
    needed, so rows gathered on demand are not all held at once. For
    transh, w holds the unit normal of each triple's predicate.

    Returns the scores. With grad, each roles(k) must be a fresh (n, width)
    gather, which this may overwrite, and it returns
    (scores, rows, blocks, signs, grad_w): dscore/d(role k) of triple r is
    signs[k] * rows[blocks[k] * n + r] for the roles (s, p, o); grad_w is
    transh's dscore/dw, else None.

    transe:  rows = unit(d), the gradient of ||d|| for d = v_s + v_p - v_o
    transh:  rows = [g_proj; g] with g = dscore/dd and g_proj its projection
    complex: rows = [dscore/ds; dscore/dr; dscore/do]

    Operations run in place on temporaries where the shapes allow, so a
    block of candidates costs about one block of new rows. Callers run it
    under np.errstate and handle every non-finite result explicitly.
    """
    if cfg.model == "complex":   # Re(s * r * conj(o)) = re . o_re + im . o_im
        dim = cfg.dim
        sr, si = _complex_parts(roles(0), dim)
        rr, ri = _complex_parts(roles(1), dim)
        orr, oi = _complex_parts(roles(2), dim)
        re = sr * rr
        re -= si * ri
        im = sr * ri
        im += si * rr
        if grad:
            grads = np.empty((3, len(re), 2 * dim))
            grads[0, :, :dim] = rr * orr + ri * oi
            grads[0, :, dim:] = -ri * orr + rr * oi
            grads[1, :, :dim] = sr * orr + si * oi
            grads[1, :, dim:] = -si * orr + sr * oi
            grads[2, :, :dim] = re
            grads[2, :, dim:] = im
        x = _into(np.multiply, re, orr)
        x += _into(np.multiply, im, oi)
        sc = np.add.reduce(x, axis=-1)
        if not grad:
            return sc
        return sc, grads.reshape(3 * len(sc), 2 * dim), (0, 1, 2), (1.0, 1.0, 1.0), None
    if cfg.model == "transe":
        vs = roles(0)
        d = _into(np.subtract, np.add(vs, roles(1), out=vs if grad else None), roles(2))
    else:
        u = roles(0) - roles(2)
        t = w * u
        wu = np.sum(t, axis=-1, keepdims=True)
        d = np.subtract(u, np.multiply(wu, w, out=t), out=t)    # u - (w.u) w
        d += roles(1)
    scratch = None if grad else d                   # with grad, d becomes d||d||/dd
    if cfg.norm == "l2":
        n = np.sqrt(np.add.reduce(np.multiply(d, d, out=scratch), axis=-1))
    else:
        n = np.add.reduce(np.abs(d, out=scratch), axis=-1)
    if not grad:
        return -n
    if cfg.norm == "l2":
        np.divide(d, np.where(n > 0.0, n, 1.0)[:, None], out=d)
    else:
        np.sign(d, out=d)
    if cfg.model == "transe":
        return -n, d, (0, 0, 0), (-1.0, -1.0, 1.0), None
    g = -d                                          # dscore/dd
    gw = np.sum(g * w, axis=-1, keepdims=True)
    g_proj = g - gw * w                             # dscore/dvs; dvo is its negation
    grad_w = -(gw * u + wu * g)                     # dscore/dw
    return -n, np.concatenate([g_proj, g]), (0, 1, 0), (1.0, 1.0, -1.0), grad_w


def _triple_forward(table: EmbeddingTable, ids: np.ndarray, grad: bool = False):
    """_forward over an (n, 3) id array, gathering each role's rows on demand."""
    w = None
    if table.config.model == "transh":
        w = table.relation_normals[table.normal_slot(ids[:, 1])]
    return _forward(table.config, lambda k: table.node_vectors[ids[:, k]], w, grad)


def score_batch(table: EmbeddingTable, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Scores for aligned id arrays; higher means more plausible."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _triple_forward(table, np.stack([s, p, o], axis=1))


# Bytes of one block of candidate rows in score_candidates: a block and its
# scratch arrays stay in a core's L2 cache while every query reuses them.
BLOCK_BYTES = 1 << 20


def score_candidates(
    table: EmbeddingTable, queries: np.ndarray, direction: str, candidates: np.ndarray
) -> np.ndarray:
    """(Q, C) scores of every candidate completing every query.

    `direction` names the slot the candidates fill and `queries` (Q, 2)
    holds the other two ids (see DIRECTIONS). The candidate rows are
    gathered once; then _forward scores each query's fixed rows against
    one block of BLOCK_BYTES of them at a time, so row q is bitwise equal
    to score_batch over query q's C triples.
    """
    if direction not in DIRECTIONS:
        raise InvalidConfigError(f"unknown direction {direction!r}")
    cfg = table.config
    nodes = table.node_vectors
    slot = DIRECTIONS.index(direction)
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    fixed = nodes[queries][:, :, None]                  # (Q, 2, 1, width)
    cand = nodes[np.asarray(candidates, dtype=np.int64)]
    w = None
    if cfg.model == "transh":
        p = candidates if slot == 1 else queries[:, 1 if slot == 2 else 0]
        w = table.relation_normals[table.normal_slot(p)]
    out = np.empty((len(queries), len(cand)))
    step = max(1, BLOCK_BYTES // (nodes.itemsize * cfg.width))
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, len(cand), step):
            block = cand[b0:b0 + step]
            for q in range(len(queries)):
                roles = [fixed[q, 0], fixed[q, 1]]
                roles.insert(slot, block)
                wq = None if w is None else w[b0:b0 + step] if slot == 1 else w[q:q + 1]
                out[q, b0:b0 + len(block)] = _forward(cfg, roles.__getitem__, wq)
    return out


# The screen proves nothing about rows whose L2 norm exceeds this (or is not
# finite): below it, every intermediate of both scoring paths stays finite.
SCREEN_NORM_LIMIT = 2.0 ** 32
# Absolute slack of the screen's bound, far above the largest error that
# underflow can add to either scoring path while norms stay under the limit.
SCREEN_FLOOR = 2.0 ** -300


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", x, x))


class CandidateScreen:
    """Approximate scores of every candidate, each with a proven error bound.

    Built once per candidate set: it gathers the candidate rows E and their
    norms ‖e‖. Calling it with a chunk of Q queries (as score_candidates
    takes them) returns `(approx, bound)`, (Q, C) arrays such that the
    exact _forward score lies in [approx - bound, approx + bound] wherever
    bound is finite. Where a row's norm is not finite or exceeds
    SCREEN_NORM_LIMIT, bound is inf or nan, so nothing is proven.

    With a query vector a, the score is one matrix product against E:

    * complex: linear in the candidate, approx = A·e; A holds each query's
      factors built from its two fixed rows.
    * transe-l2: distance² = ‖a‖² + ‖e‖² - 2a·e with a = v_s + v_p (tail)
      or v_o - v_p (head).
    * transh-l2: one product against [a; w] with a = P(v_fixed) ± v_p and
      P(x) = x - (w·x)w; then a·P(e) = a·e - (w·a)(w·e) and
      ‖P(e)‖² = ‖e‖² - 2(w·e)² + ‖w‖²(w·e)², which hold for any w.
    * l1: no inner-product form; approx is score_candidates itself and
      bound is 0.

    The bound: an expression of rounding depth k, evaluated in floating
    point, is within γ_k = k·u/(1 - k·u) (u = 2⁻⁵³) times the same
    expression over absolute values of its exact value (Higham, Accuracy
    and Stability of Numerical Algorithms, §3.1-3.5, any summation order,
    BLAS included). Both the bitwise path and the product path have depth
    below K = 4·width + 16, and their absolute-value expressions are at
    most M² (distance models, before the square root) or M (complex) with

    * transe:  M = ‖v_fixed‖ + ‖v_p‖ + ‖e‖
    * transh:  M = (1 + ‖w‖²)((1 + ‖w‖²)‖v_fixed‖ + ‖v_p‖ + ‖e‖)
    * complex: M = ‖h‖·‖e‖, h the query factors over absolute values.

    Each path's distance is then within sqrt(γ_K)·M of the exact one
    (|√x - √y| ≤ √|x - y|), so the two differ by at most 2·sqrt(γ_K)·M;
    each path's complex score is within γ_K·M of the exact one, so the two
    differ by at most 2γ_K·M. The bound takes 3 in place of 2, which covers
    the rounding of the norms, of the bound itself and of approx ± bound;
    SCREEN_FLOOR covers underflow.
    """

    def __init__(self, table: EmbeddingTable, candidates: np.ndarray):
        self.table = table
        self.candidates = np.asarray(candidates, dtype=np.int64)
        cfg = table.config
        self.exact = cfg.model != "complex" and cfg.norm == "l1"
        if not self.exact:
            self.rows = table.node_vectors[self.candidates]
            self.sq = np.einsum("ij,ij->i", self.rows, self.rows)
            norms = np.sqrt(self.sq)
            self.norms = np.where(norms <= SCREEN_NORM_LIMIT, norms, np.inf)
            k = 4 * cfg.width + 16
            gamma = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
            self.rel = 3.0 * (gamma if cfg.model == "complex" else math.sqrt(gamma))

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite bound proves nothing
    def __call__(self, queries: np.ndarray, direction: str) -> tuple[np.ndarray, np.ndarray | float]:
        if direction not in ("head", "tail"):
            raise InvalidConfigError(f"unknown direction {direction!r}")
        table = self.table
        if self.exact:
            return score_candidates(table, queries, direction, self.candidates), 0.0
        cfg = table.config
        nodes = table.node_vectors
        queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
        tail = direction == "tail"
        p = queries[:, 1] if tail else queries[:, 0]
        fixed = nodes[queries[:, 0] if tail else queries[:, 1]]  # v_s for tail, v_o for head
        vp = nodes[p]
        n_fixed, n_p = _row_norms(fixed), _row_norms(vp)
        ok = (n_fixed <= SCREEN_NORM_LIMIT) & (n_p <= SCREEN_NORM_LIMIT)

        if cfg.model == "complex":
            dim = cfg.dim
            rr, ri = _complex_parts(vp, dim)
            xr, xi = _complex_parts(fixed, dim)
            if tail:   # score = (sr*rr - si*ri)·or + (sr*ri + si*rr)·oi
                a = np.concatenate([xr * rr - xi * ri, xr * ri + xi * rr], axis=1)
                h = np.concatenate([abs(xr * rr) + abs(xi * ri), abs(xr * ri) + abs(xi * rr)], axis=1)
            else:      # score = sr·(rr*or + ri*oi) + si·(rr*oi - ri*or)
                a = np.concatenate([rr * xr + ri * xi, rr * xi - ri * xr], axis=1)
                h = np.concatenate([abs(rr * xr) + abs(ri * xi), abs(rr * xi) + abs(ri * xr)], axis=1)
            approx = a @ self.rows.T
            coef = np.where(ok, self.rel * _row_norms(h), np.inf)
            bound = np.multiply.outer(coef, self.norms)
            bound += SCREEN_FLOOR
            return approx, bound

        if cfg.model == "transe":
            alpha, beta = n_fixed + n_p, np.ones(len(queries))
        else:
            w = table.relation_normals[table.normal_slot(p)]
            w2 = np.einsum("ij,ij->i", w, w)
            ok &= np.sqrt(w2) <= SCREEN_NORM_LIMIT
            alpha, beta = (1.0 + w2) * ((1.0 + w2) * n_fixed + n_p), 1.0 + w2
            fixed = fixed - np.einsum("ij,ij->i", w, fixed)[:, None] * w   # P(v_fixed)
        a = fixed + vp if tail else fixed - vp
        if cfg.model == "transe":
            prod = (-2.0 * a) @ self.rows.T
        else:
            both = np.concatenate([-2.0 * a, w]) @ self.rows.T
            prod, we = both[:len(a)], both[len(a):]
            extra = (w2 - 2.0)[:, None] * we       # we·(2w·a + (‖w‖² - 2)we)
            extra += 2.0 * np.einsum("ij,ij->i", w, a)[:, None]
            extra *= we
            prod += extra
        prod += np.einsum("ij,ij->i", a, a)[:, None]
        prod += self.sq
        np.maximum(prod, 0.0, out=prod)
        approx = np.sqrt(prod, out=prod)
        np.negative(approx, out=approx)
        alpha = np.where(ok, alpha, np.inf)
        bound = np.multiply.outer(self.rel * beta, self.norms)
        bound += (self.rel * alpha)[:, None]
        bound += SCREEN_FLOOR
        return approx, bound


# ---------------------------------------------------------------------------
# Pair loss and gradients
# ---------------------------------------------------------------------------

@dataclass
class SparseGrad:
    """Gradient rows for exactly the ids a batch of pairs touched.

    `node_ids` are unique ascending vocabulary ids; `normal_slots` are
    unique dense indices into relation_normals (transh only, else empty).
    """

    width: int
    dim: int
    node_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    node_grads: np.ndarray | None = None
    normal_slots: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    normal_grads: np.ndarray | None = None

    def max_abs(self) -> float:
        m = 0.0
        if len(self.node_ids):
            m = float(np.max(np.abs(self.node_grads)))
        if len(self.normal_slots):
            m = max(m, float(np.max(np.abs(self.normal_grads))))
        return m


def scatter_sum(
    ids: np.ndarray, rows: np.ndarray, src: np.ndarray | None = None, coef: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sum `coef[j] * rows[src[j]]` into one row per unique id; ids returned ascending.

    `src` defaults to 0..len(ids)-1 and `coef` to all ones (no product).
    After one stable argsort of `ids`, each id's terms are summed in input
    order by np.add.reduceat. The terms are gathered and scaled in blocks
    of about BLOCK_BYTES that never split an id's segment, so no array of
    all the terms is built and the result is bitwise that of one reduceat
    over all of them.
    """
    width = rows.shape[1]
    if len(ids) == 0:
        return ids.astype(np.int64), np.empty((0, width), dtype=rows.dtype)
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    new_id = np.empty(len(ids), dtype=bool)
    new_id[0] = True
    np.not_equal(ids_sorted[1:], ids_sorted[:-1], out=new_id[1:])
    starts = np.flatnonzero(new_id)
    src = order if src is None else src[order]
    coef = None if coef is None else coef[order]
    step = max(1, BLOCK_BYTES // (rows.itemsize * width))
    if len(ids) > step:  # block k begins with the segment holding term k*step
        seg = np.unique(np.searchsorted(starts, np.arange(0, len(ids), step), side="right") - 1)
        edges = starts[seg].tolist() + [len(ids)]
        seg = seg.tolist() + [len(starts)]
    else:
        seg, edges = [0, len(starts)], [0, len(ids)]
    out = np.empty((len(starts), width), dtype=rows.dtype)
    for a, b, s0, s1 in zip(edges[:-1], edges[1:], seg[:-1], seg[1:]):
        terms = rows[src[a:b]]
        if coef is not None:
            terms *= coef[a:b, None]
        np.add.reduceat(terms, starts[s0:s1] - a, axis=0, out=out[s0:s1])
    return ids_sorted[starts], out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _pair_reg_ids(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair distinct touched ids: (B,6) sorted ids and a first-occurrence
    mask, so each row regularizes once per pair even when roles collide."""
    ids6 = np.concatenate([pos, neg], axis=1)
    ids6 = np.sort(ids6, axis=1)
    first = np.ones_like(ids6, dtype=bool)
    first[:, 1:] = ids6[:, 1:] != ids6[:, :-1]
    return ids6, first


def _role_terms(both: np.ndarray, dscore: np.ndarray,
                blocks: tuple[int, int, int], signs: tuple[float, float, float]):
    """Scatter terms of a pair batch's (s, p, o) role rows.

    Row r of the (2B, 3) `both = [pos; neg]` has dL/dscore `dscore[r]`;
    its role k takes gradient row `blocks[k] * 2B + r` with sign
    `signs[k]`. Terms come in the order pos s, pos p, pos o, neg s, neg p,
    neg o, each in batch order. Returns (ids, src, coef) for scatter_sum.
    """
    n = len(both) // 2
    ids = both.reshape(2, n, 3).transpose(0, 2, 1).ravel()
    r = np.arange(2 * n).reshape(2, 1, n)
    src = (np.array([2 * n * k for k in blocks]).reshape(1, 3, 1) + r).ravel()
    coef = (np.array(signs).reshape(1, 3, 1) * dscore.reshape(2, 1, n)).ravel()
    return ids, src, coef


def pair_grad_batch(
    table: EmbeddingTable, pos: np.ndarray, neg: np.ndarray
) -> tuple[SparseGrad, np.ndarray]:
    """Per-pair training losses of aligned (B,3) positive/negative id
    arrays, and their analytic gradient summed over the batch.

    Margin models: max(0, margin - score(pos) + score(neg)).
    complex: softplus(-score(pos)) + softplus(score(neg)) plus complex_reg
    times the squared L2 norm of each distinct row the pair touches.
    Returns the sparse gradient and the losses. Rows shared between roles
    or between the two triples accumulate every contribution they receive.
    """
    cfg = table.config
    b = len(pos)
    both = np.concatenate([pos, neg])
    with np.errstate(over="ignore", invalid="ignore"):  # train() rejects a non-finite loss
        sc, rows, blocks, signs, grad_w = _triple_forward(table, both, grad=True)
        sp, sn = sc[:b], sc[b:]
        reg_ids = None
        if cfg.model == "complex":
            losses = _softplus(-sp) + _softplus(sn)
            dscore = np.concatenate([-_sigmoid(-sp), _sigmoid(sn)])
            if cfg.complex_reg > 0.0:
                ids6, first = _pair_reg_ids(pos, neg)
                sq = np.sum(table.node_vectors[ids6] ** 2, axis=-1)
                losses = losses + cfg.complex_reg * np.sum(sq * first, axis=1)
                reg_ids = ids6[first]
        else:
            viol = cfg.margin - sp + sn
            losses = np.maximum(0.0, viol)
            act = (viol > 0.0).astype(np.float64)
            # dL/dscore(pos) = -1, dL/dscore(neg) = +1 where the hinge is active
            dscore = np.concatenate([-act, act])
    ids, src, coef = _role_terms(both, dscore, blocks, signs)
    if reg_ids is not None:
        ids = np.concatenate([ids, reg_ids])
        src = np.concatenate([src, np.arange(len(rows), len(rows) + len(reg_ids))])
        coef = np.concatenate([coef, np.full(len(reg_ids), 2.0 * cfg.complex_reg)])
        rows = np.concatenate([rows, table.node_vectors[reg_ids]])
    node_ids, node_grads = scatter_sum(ids, rows, src, coef)
    grad = SparseGrad(cfg.width, cfg.dim, node_ids, node_grads)
    if grad_w is not None:
        slots = table.normal_slot(both[:, 1])
        grad.normal_slots, grad.normal_grads = scatter_sum(slots, grad_w, coef=dscore)
    return grad, losses
