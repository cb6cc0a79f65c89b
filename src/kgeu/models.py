"""Embedding model parameter layout, initialization, scoring, and gradients.

Three scoring functions over one row-per-id table:

* transe:  score(s,p,o) = -||v_s + v_p - v_o||            (L1 or L2)
* transh:  score(s,p,o) = -||proj(v_s) + v_p - proj(v_o)|| with
           proj(x) = x - (w_p . x) w_p for a unit normal w_p per relation
* complex: score(s,p,o) = Re( sum_k s_k * r_k * conj(o_k) ), rows storing
           dim real parts followed by dim imaginary parts

Each model's score is written once, in `_forward`, which also returns
the gradient rows when training asks for them. `score_batch` runs it on
one (n, 3) id array, the triple shape every layer after `intern` uses;
`score_candidates` is a block loop running it on each query's fixed rows
against cache-sized blocks of head, relation or tail candidates. The one
approximate path is `CandidateScreen`, which serves evaluation: one
matrix product per chunk of queries gives every candidate's score up to
a proven error bound, and the evaluator rescores with `score_batch` only
the candidates that the bound cannot place.

A unified vocabulary id owns a single row, so a term's entity-role and
relation-role vectors are the same storage and stay identical through
training. Gradients are analytic, returned sparsely for exactly the rows
a positive/negative pair touches, and are checked against central finite
differences in the test suite. What a batch's gradient sums need from its
ids alone (the stable order of their terms, segments and blocks) is a
`PairPlan`, which `plan_pairs` builds for many batches of an epoch at once,
so a training step only gathers rows, scores, scales and sums; it scores
its pairs one cache-sized block of rows at a time (`_forward_pairs`).
"""

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .vocab import Vocabulary

MODELS = ("transe", "transh", "complex")
NORMS = ("l1", "l2")
SHARE_MODES = ("always", "init-only")


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
    # (node_vectors, its screen_norms()) while that array is read-only
    _norm_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def normal_slot(self, p: np.ndarray | int) -> np.ndarray | int:
        """Dense index of property id(s) into relation_normals."""
        return np.searchsorted(self.property_ids, p)

    def copy(self) -> "EmbeddingTable":
        """A table with writeable copies of the arrays (store.load's are read-only)."""
        normals = None if self.relation_normals is None else self.relation_normals.copy()
        return EmbeddingTable(self.config, self.node_vectors.copy(), normals, self.property_ids)

    def screen_norms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(sq, wild, cap): each node row's squared L2 norm, the ids of rows whose
        norm is not finite or over SCREEN_NORM_LIMIT or SCREEN_NORM_SPREAD times
        the median positive norm, and the other rows' largest norm. Kept while
        node_vectors is the same read-only array (as store.load returns it), which
        must then not change through another view; a writeable table's are fresh."""
        nodes = self.node_vectors
        cached = self._norm_cache
        if cached is not None and cached[0] is nodes and not nodes.flags.writeable:
            return cached[1]
        sq = np.einsum("ij,ij->i", nodes, nodes)
        norms = np.sqrt(sq)
        typical = norms[(norms > 0.0) & (norms <= SCREEN_NORM_LIMIT)]
        half = len(typical) // 2                  # the upper median, for even counts
        median = np.partition(typical, half)[half] if len(typical) else 0.0
        tame = norms <= min(SCREEN_NORM_LIMIT, SCREEN_NORM_SPREAD * median)
        stats = (sq, np.flatnonzero(~tame), float(norms[tame].max(initial=0.0)))
        self._norm_cache = None if nodes.flags.writeable else (nodes, stats)
        return stats

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
    if share not in SHARE_MODES:
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
    """Rows scaled to unit L2; a row whose norm overflows comes out nan,
    not zero, so the finiteness checks see it."""
    norms = np.sqrt(np.add.reduce(rows * rows, axis=-1, keepdims=True))  # np.linalg.norm without its overhead
    return rows / np.where(np.isfinite(norms), np.maximum(norms, 1e-300), np.nan)


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


# (blocks, signs) of the gradient rows _forward(grad=True) returns per model.
ROLE_ROWS = {
    "transe": ((0, 0, 0), (-1.0, -1.0, 1.0)),
    "transh": ((0, 1, 0), (1.0, 1.0, -1.0)),
    "complex": ((0, 1, 2), (1.0, 1.0, 1.0)),
}


def _into(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ufunc(a, b), written over the temporary `a` unless `b` has more rows."""
    return ufunc(a, b, out=a if len(a) >= len(b) else None)


def _forward(cfg: ModelConfig, roles, w: np.ndarray | None = None, grad: bool = False):
    """Scores of the triples whose (s, p, o) role rows are roles(0..2):
    broadcastable (n or 1, width) arrays, each fetched once when first
    needed, so rows gathered on demand are not all held at once. For
    transh, w holds the unit normal of each triple's predicate.

    Returns the scores. With grad, each roles(k) must be a fresh (n, width)
    gather, which this may overwrite, and it returns (scores, rows, grad_w):
    with (blocks, signs) = ROLE_ROWS[model], dscore/d(role k) of triple r is
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
        return sc, grads.reshape(3 * len(sc), 2 * dim), None
    if cfg.model == "transe":
        vs = roles(0)
        d = _into(np.subtract, np.add(vs, roles(1), out=vs if grad else None), roles(2))
    else:
        u = roles(0) - roles(2)
        t = w * u
        wu = np.add.reduce(t, axis=-1, keepdims=True)
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
        return -n, d, None
    g = -d                                          # dscore/dd
    gw = np.add.reduce(g * w, axis=-1, keepdims=True)
    g_proj = g - gw * w                             # dscore/dvs; dvo is its negation
    grad_w = -(gw * u + wu * g)                     # dscore/dw
    return -n, np.concatenate([g_proj, g]), grad_w


def score_batch(table: EmbeddingTable, ids: np.ndarray) -> np.ndarray:
    """Scores of the (n, 3) id triples `ids`; higher means more plausible."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1, 3)
    w = None
    if table.config.model == "transh":
        w = table.relation_normals[table.normal_slot(ids[:, 1])]
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward(table.config, lambda k: table.node_vectors[ids[:, k]], w)


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
# A row whose norm exceeds this many times the table's median is wild: the
# screen rescores its column instead of widening every row's bound for it.
# Tables measured 1.1-3.9 (max/median); a cap of 2^8 medians adds < 0.05 rescores a chunk.
SCREEN_NORM_SPREAD = 2.0 ** 8


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", x, x))


# The floats next to a correctly rounded x bound its exact value.
def _down(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, -np.inf)


def _up(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, np.inf)


class CandidateScreen:
    """Which ids in a missing slot provably tie or beat the true answer,
    and which no proof places.

    Built once per candidate set from the table's screen_norms, it reads
    node_vectors in place. Called with Q id triples (Q, 3), the directions
    to predict (head and/or tail) and their true score_batch scores, it
    returns `(ge, unsure)`, two boolean (D·Q, n_ids) arrays (row k·Q + i:
    triple i, direction k; column j: id j in the slot). ge marks bitwise
    _forward scores >= the true score, unsure what no proof places (to be
    rescored); the rest score below. Non-candidates are not masked.

    One matrix product of the D·Q query vectors against node_vectors gives
    each candidate e a value d, lower for a better score:

    * complex: d = -A·e; A holds each query's factors built from its two
      fixed rows (the head direction uses the conjugate relation).
    * transe-l2: d = ‖e‖² - 2a·e, a = v_s + v_p (tail) or v_o - v_p (head).
    * transh-l2: d = ‖e‖² - 2P(a)·e + (‖w‖² - 2)(w·e)² from one product
      against [P(a); w], a = P(v_fixed) ± v_p and P(x) = x - (w·x)w: for
      any w, a·P(e) = P(a)·e and ‖P(e)‖² = ‖e‖² - 2(w·e)² + ‖w‖²(w·e)².
    * l1: no inner-product form; ge and unsure come from score_candidates'
      exact scores, so only nan is unsure.

    The proof: an expression of rounding depth k, evaluated in floating
    point, is within γ_k = k·u/(1 - k·u) (u = 2⁻⁵³) times the same
    expression over absolute values of its exact value (Higham, Accuracy
    and Stability of Numerical Algorithms, §3.1-3.5, any summation order,
    BLAS included). The bitwise path and the product path (d + ‖a‖² for
    distances) have depth below K = 4·width + 16 and absolute-value
    expressions at most M² (distances, before the square root) or M with

    * transe:  M = ‖v_fixed‖ + ‖v_p‖ + ‖e‖
    * transh:  M = (1 + ‖w‖²)((1 + ‖w‖²)‖v_fixed‖ + ‖v_p‖ + ‖e‖)
    * complex: M = ‖h‖·‖e‖, h the query factors over absolute values.

    All but the wild columns have ‖e‖ <= cap, so with M_i the row's M at
    ‖e‖ = cap, err_i = 3γ_K·M_i² (distance) or 3γ_K·M_i (complex) plus
    SCREEN_FLOOR (underflow) bounds the gap between the paths, with γ_K to
    spare for rounding the norms, err_i and d + ‖a‖². A bitwise distance
    is fl(√N), N its sum of squares; the true answer's is n_t. Where
    d <= lo_i = n_t² - err_i - ‖a‖², N <= n_t², so fl(√N) <= n_t (a
    correctly rounded sqrt is monotone and n_t a float): a tie or a beat.
    Where d > hi_i = n⁺² + err_i - ‖a‖², n⁺ the float after n_t, √N > n⁺,
    so fl(√N) >= n⁺ > n_t: below. A ComplEx score is within err_i of -d:
    lo_i = -t - err_i and hi_i = -t + err_i, t the true score. Each step of
    a threshold is rounded outward (nextafter), so it keeps its inequality;
    a square that overflows steps back to the largest float, still below
    n_t², or makes hi_i infinite, which proves nothing. Wild columns are
    unsure in every row, so a wild row costs only its own column; a row is
    unsure throughout where a query row's norm is not finite or exceeds
    SCREEN_NORM_LIMIT, or its true score is not finite.
    """

    def __init__(self, table: EmbeddingTable, candidates: np.ndarray):
        self.table = table
        self.candidates = np.asarray(candidates, dtype=np.int64)
        self.is_candidate = np.zeros(len(table.node_vectors), dtype=bool)
        self.is_candidate[self.candidates] = True
        cfg = table.config
        self.exact = cfg.model != "complex" and cfg.norm == "l1"
        if not self.exact:
            self.sq, self.wild, self.cap = table.screen_norms()
            k = 4 * cfg.width + 16
            self.rel = 3.0 * k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)     # 3γ_K

    @np.errstate(over="ignore", invalid="ignore")  # rows without a finite bound are unsure
    def __call__(self, triples: np.ndarray, directions: tuple[str, ...],
                 true: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not directions or any(d not in ("head", "tail") for d in directions):
            raise InvalidConfigError(f"directions must be head and/or tail, got {directions!r}")
        table = self.table
        cfg = table.config
        nodes = table.node_vectors
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        n_q, n_rows = len(triples), len(directions) * len(triples)
        t = np.tile(true, len(directions))
        ok = np.isfinite(t)
        if self.exact:
            gap = np.zeros((n_rows, len(nodes)))
            for k, direction in enumerate(directions):
                queries = np.delete(triples, DIRECTIONS.index(direction), axis=1)
                gap[k * n_q:(k + 1) * n_q, self.candidates] = score_candidates(
                    table, queries, direction, self.candidates)
            gap -= np.where(ok, t, np.nan)[:, None]
            return np.greater_equal(gap, 0.0), np.isnan(gap)

        rows = np.tile(triples, (len(directions), 1))
        tail = np.repeat([d == "tail" for d in directions], n_q)
        fixed = nodes[np.where(tail, rows[:, 0], rows[:, 2])]   # v_s for tail rows, v_o for head rows
        vp = nodes[rows[:, 1]]
        sign = np.where(tail, 1.0, -1.0)[:, None]
        n_fixed, n_p = _row_norms(fixed), _row_norms(vp)
        ok &= (n_fixed <= SCREEN_NORM_LIMIT) & (n_p <= SCREEN_NORM_LIMIT)

        if cfg.model == "complex":
            (rr, ri), (xr, xi) = _complex_parts(vp, cfg.dim), _complex_parts(fixed, cfg.dim)
            ri = sign * ri
            # score = (xr*rr - xi*ri)·er + (xr*ri + xi*rr)·ei
            a = np.concatenate([xi * ri - xr * rr, -(xr * ri + xi * rr)], axis=1)    # -A
            h = np.concatenate([abs(xr * rr) + abs(xi * ri), abs(xr * ri) + abs(xi * rr)], axis=1)
            d = np.matmul(a, nodes.T)
            err = self.rel * _row_norms(h) * self.cap + SCREEN_FLOOR
            lo, hi = _down(-t - err), _up(-t + err)
        else:
            if cfg.model == "transe":
                a = fixed + sign * vp
                d = np.matmul(-2.0 * a, nodes.T)
                m = n_fixed + n_p + self.cap
            else:
                w = table.relation_normals[table.normal_slot(triples[:, 1])]
                w2 = np.einsum("ij,ij->i", w, w)
                w_rows = np.tile(w, (len(directions), 1))
                ok &= np.tile(np.sqrt(w2) <= SCREEN_NORM_LIMIT, len(directions))
                fixed = fixed - np.einsum("ij,ij->i", w_rows, fixed)[:, None] * w_rows   # P(v_fixed)
                a = fixed + sign * vp
                pa = a - np.einsum("ij,ij->i", w_rows, a)[:, None] * w_rows           # P(a)
                both = np.matmul(np.concatenate([-2.0 * pa, w]), nodes.T)
                d, we = both[:n_rows], both[n_rows:]
                we *= we
                we *= (w2 - 2.0)[:, None]
                d.reshape(len(directions), n_q, -1)[:] += we
                beta = 1.0 + np.tile(w2, len(directions))
                m = beta * (beta * n_fixed + n_p + self.cap)
            d += self.sq
            err = self.rel * m * m + SCREEN_FLOOR
            aa = np.einsum("ij,ij->i", a, a)
            lo = _down(_down(_down(t * t) - err) - aa)          # n_t = -t
            hi = _up(_up(_up(_up(-t) ** 2) + err) - aa)
        ge = np.less_equal(d, lo[:, None])
        unsure = np.less_equal(d, hi[:, None])
        unsure ^= ge
        if len(self.wild):
            ge[:, self.wild] = False
            unsure[:, self.wild] = True
        if not ok.all():
            ge[~ok] = False
            unsure[~ok] = True
        return ge, unsure


# ---------------------------------------------------------------------------
# Pair loss and gradients
# ---------------------------------------------------------------------------

@dataclass
class SparseGrad:
    """Gradient rows for exactly the ids a batch of pairs touched.

    `node_ids` are unique ascending vocabulary ids; `normal_slots` are
    unique dense indices into relation_normals (transh only, else empty).
    """

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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0, else e^x / (1 + e^x): no exp can overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


# Terms planned at once: plan_pairs plans a run of batches a window of about
# this many terms at a time, so its arrays do not grow with the epoch (on an
# FB15K-shaped graph, a window held 1.9-4.7 MB and peaked at 3.4-7.2 MB
# while built, over the three models at batches 8 and 512).
PLAN_TERMS = 1 << 16


@dataclass(slots=True)
class ScatterPlan:
    """One batch's sum of scaled rows into one row per id, planned from ids alone.

    Term j is coef[cidx[j]] * sign[j] * rows[src[j]] (no sign factor where
    `sign` is None). Terms are in the stable order of their ids, so each
    id's terms keep their input order, and np.add.reduceat sums them in
    that order. `blocks` cut the terms into runs of about BLOCK_BYTES of
    rows that never split an id: (a, b, s0, s1, starts) sums terms a..b-1
    into result rows s0..s1-1, whose segments begin at `starts` (relative
    to a).
    """

    ids: np.ndarray        # unique ascending
    src: np.ndarray
    cidx: np.ndarray
    sign: np.ndarray | None
    blocks: list

    def sum(self, rows: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """One row per id. Only a block's terms are gathered and scaled at a
        time, so no array of all of them is built, and the result is
        bitwise that of one reduceat over all of them."""
        scale = coef[self.cidx]
        if self.sign is not None:
            scale *= self.sign
        out = np.empty((len(self.ids), rows.shape[1]), dtype=rows.dtype)
        for a, b, s0, s1, starts in self.blocks:
            terms = rows[self.src[a:b]]
            terms *= scale[a:b, None]
            np.add.reduceat(terms, starts, axis=0, out=out[s0:s1])
        return out


def _scatter_plans(keys: np.ndarray, n_keys: int, n_batches: int, src: np.ndarray,
                   cidx: np.ndarray, sign: np.ndarray | None, row_bytes: int) -> Iterator[ScatterPlan]:
    """Yield the ScatterPlan of each of `n_batches` batches, from one stable
    order of the terms' keys batch * n_keys + id, id < n_keys.

    Each batch has m = len(src) terms: keys[m*i : m*i + m] are batch i's,
    in its summation order, and its j-th term has row src[j], coefficient
    index cidx[j] and sign sign[j].
    """
    # The default sort of the unique keys key * 2^s + term (2^s < 2 len(keys)),
    # several times faster than a stable argsort. In int64 since train()'s
    # TripleIndex keeps ids below 2^21: a window of 2 or more batches has < 2^14
    # of them and <= PLAN_TERMS = 2^16 terms, so its sort keys stay below
    # 2^(14+21+16); a lone batch's stay below 2^(21+s), so up to 2^41 terms fit.
    m = len(src)
    s = (len(keys) - 1).bit_length()
    order = np.left_shift(keys, s)
    order |= np.arange(len(keys))
    order.sort()
    keys = order >> s
    order &= (1 << s) - 1
    new_id = np.empty(len(keys), dtype=bool)
    new_id[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_id[1:])
    starts = new_id.nonzero()[0]
    term = np.remainder(order, m, out=order)
    src, cidx = src[term], cidx[term]
    sign = None if sign is None else sign[term]
    s_edges = starts.searchsorted(np.arange(n_batches + 1) * m)
    seg_ids = keys[starts] % n_keys
    seg_starts = starts % m                     # relative to the batch
    del keys, new_id, starts, order, term       # not held while the window's steps run
    step = max(1, BLOCK_BYTES // row_bytes)
    for t0, s0, s1 in zip(range(0, n_batches * m, m), s_edges[:-1].tolist(), s_edges[1:].tolist()):
        seg = seg_starts[s0:s1]
        blocks = [(0, m, 0, s1 - s0, seg)] if m <= step else _blocks(seg, m, step)
        yield ScatterPlan(seg_ids[s0:s1], src[t0:t0 + m], cidx[t0:t0 + m],
                          None if sign is None else sign[t0:t0 + m], blocks)


def _blocks(seg: np.ndarray, n: int, step: int) -> list:
    """ScatterPlan.blocks of n terms whose segments begin at `seg`: block
    k begins with the segment holding term k*step."""
    first = np.unique(np.searchsorted(seg, np.arange(0, n, step), side="right") - 1)
    edges = seg[first].tolist() + [n]
    first = first.tolist() + [len(seg)]
    return [(a, b, u0, u1, seg[u0:u1] - a)
            for a, b, u0, u1 in zip(edges[:-1], edges[1:], first[:-1], first[1:])]


@dataclass(slots=True)
class PairPlan:
    """What one batch's gradient sums need that depends on its ids alone."""

    nodes: ScatterPlan
    normals: ScatterPlan | None     # transh
    reg: tuple | None               # complex with complex_reg > 0: _pair_reg_ids(pos, neg)


def _plan_window(table: EmbeddingTable, pos: np.ndarray, neg: np.ndarray, b: int) -> Iterator[PairPlan]:
    """The PairPlans of the len(pos) // b batches of b pairs in pos and neg.
    The window's ids are sorted at once, but each batch's plan, a few dozen
    small objects, is only made when it is next, so only one batch's are
    alive at a time."""
    cfg = table.config
    n_batches = len(pos) // b
    both = np.concatenate([pos.reshape(n_batches, 1, b, 3), neg.reshape(n_batches, 1, b, 3)], axis=1)
    batch_no = np.arange(n_batches)[:, None]
    row_bytes = table.node_vectors.itemsize

    # Each batch's node terms in the order pos s, p, o, neg s, p, o, each
    # in batch order.
    blocks, signs = ROLE_ROWS[cfg.model]
    n_ids = len(table.node_vectors)
    # a new array: for b == 1 the reshape is a view of `both`, read again below
    keys = both.transpose(0, 1, 3, 2).reshape(n_batches, 6 * b) + batch_no * n_ids
    row = np.arange(2 * b).reshape(2, 1, b)    # each triple's row in [pos; neg]
    src = (2 * b * np.array(blocks)[:, None] + row).ravel()
    cidx = (row + np.zeros((3, 1), dtype=np.int64)).ravel()
    sign = (np.array(signs)[:, None] + np.zeros((2, 1, b))).ravel()
    node_plans = _scatter_plans(keys.ravel(), n_ids, n_batches, src, cidx, sign, row_bytes * cfg.width)

    normal_plans = reg = itertools.repeat(None)
    if cfg.model == "transh":
        slots = table.normal_slot(both[..., 1]).reshape(n_batches, 2 * b)
        n_props = len(table.property_ids)
        normal_plans = _scatter_plans((slots + batch_no * n_props).ravel(), n_props, n_batches,
                                      np.arange(2 * b), np.arange(2 * b), None, row_bytes * cfg.dim)
    if cfg.model == "complex" and cfg.complex_reg > 0.0:
        ids6, first = _pair_reg_ids(pos, neg)
        reg = zip(ids6.reshape(n_batches, b, 6), first.reshape(n_batches, b, 6))
    return map(PairPlan, node_plans, normal_plans, reg)


def plan_pairs(table: EmbeddingTable, pos: np.ndarray, neg: np.ndarray, batch: int):
    """For each run of `batch` aligned pairs of the (P, 3) id arrays pos and
    neg, in order (the last run may be shorter), yield its PairPlan, or None
    for a run that pair_grad_batch plans itself.

    Full runs are planned a window of about PLAN_TERMS terms at a time,
    before the window's first step. A run alone in its window gains nothing
    from that, and its plan, made ahead of the step, would sit in the heap
    that the step's gradient rows then come from: planned that way, the
    full batches of `train-desk` raise its peak RSS by about 9%, even with
    the forward pass run block by block. So such a run, and a short last
    run, are planned after their forward pass.
    """
    n = len(pos)
    full = n - n % batch
    window = batch * max(1, PLAN_TERMS // (6 * batch))
    for w0 in range(0, full, window):
        w1 = min(w0 + window, full)
        if w1 - w0 > batch:
            yield from _plan_window(table, pos[w0:w1], neg[w0:w1], batch)
        else:
            yield None
    if full < n:
        yield None


def _forward_pairs(table: EmbeddingTable, both: np.ndarray):
    """_forward(grad=True) of the (n, 3) id triples `both`, one block of
    about BLOCK_BYTES of rows at a time.

    Each block gathers its own role rows (and transh normals) and writes its
    scores, gradient rows and grad_w into arrays of _forward's layout for
    all n triples, so those are the only arrays that grow with n. Every op
    in _forward works row by row, so the results are bitwise those of one
    call over all n; a batch that fits in one block returns that call's
    arrays.
    """
    cfg = table.config
    nodes = table.node_vectors
    n = len(both)
    step = max(1, BLOCK_BYTES // (nodes.itemsize * cfg.width))
    slots = table.normal_slot(both[:, 1]) if cfg.model == "transh" else None
    if n > step:
        parts = max(ROLE_ROWS[cfg.model][0]) + 1
        sc, rows = np.empty(n), np.empty((parts, n, cfg.width))
        grad_w = None if slots is None else np.empty((n, cfg.dim))
    for r0 in range(0, n, step):
        ids = both[r0:r0 + step]
        w = None if slots is None else table.relation_normals[slots[r0:r0 + step]]
        s, g, gw = _forward(cfg, lambda k: nodes[ids[:, k]], w, grad=True)
        if n <= step:
            return s, g, gw
        r1 = r0 + len(ids)
        sc[r0:r1] = s
        rows[:, r0:r1] = g.reshape(parts, len(ids), cfg.width)
        if gw is not None:
            grad_w[r0:r1] = gw
    return sc, rows.reshape(parts * n, cfg.width), grad_w


def pair_grad_batch(
    table: EmbeddingTable, pos: np.ndarray, neg: np.ndarray, plan: PairPlan | None = None
) -> tuple[SparseGrad, np.ndarray]:
    """Per-pair training losses of aligned (B,3) positive/negative id
    arrays, and their analytic gradient summed over the batch.

    Margin models: max(0, margin - score(pos) + score(neg)).
    complex: softplus(-score(pos)) + softplus(score(neg)) plus complex_reg
    times the squared L2 norm of each distinct row the pair touches.
    Returns the sparse gradient and the losses. Rows shared between roles
    or between the two triples accumulate every contribution they receive,
    in the order pos s, p, o, neg s, p, o; complex's regulariser is then
    added to each row's sum as one term, 2·complex_reg·count·v for a row v
    that `count` of the batch's pairs touch.
    `plan` is the batch's PairPlan from plan_pairs; without one, the batch
    is planned here, after the forward pass.
    """
    cfg = table.config
    nodes = table.node_vectors
    b = len(pos)
    with np.errstate(over="ignore", invalid="ignore"):  # train() rejects a non-finite loss
        sc, rows, grad_w = _forward_pairs(table, np.concatenate([pos, neg]))
        if plan is None:
            (plan,) = _plan_window(table, pos, neg, b)
        sp, sn = sc[:b], sc[b:]
        if cfg.model == "complex":
            x = np.concatenate([-sp, sn])
            losses = _softplus(x)
            losses = losses[:b] + losses[b:]
            s = _sigmoid(x)
            dscore = np.concatenate([-s[:b], s[b:]])
            if plan.reg is not None:    # each touched row's squared norm, looked up per pair
                ids6, first = plan.reg
                touched = nodes[plan.nodes.ids]
                at = plan.nodes.ids.searchsorted(ids6)
                sq = np.add.reduce(touched ** 2, axis=-1)[at]
                losses = losses + cfg.complex_reg * np.add.reduce(sq * first, axis=1)
        else:
            viol = cfg.margin - sp + sn
            losses = np.maximum(0.0, viol)
            act = (viol > 0.0).astype(np.float64)
            # dL/dscore(pos) = -1, dL/dscore(neg) = +1 where the hinge is active
            dscore = np.concatenate([-act, act])
    grad = SparseGrad(plan.nodes.ids, plan.nodes.sum(rows, dscore))
    if plan.reg is not None:    # the regulariser's 2·complex_reg·v, once per pair touching the row
        count = np.bincount(at[first], minlength=len(grad.node_ids))
        grad.node_grads += (2.0 * cfg.complex_reg * count)[:, None] * touched
    if grad_w is not None:
        grad.normal_slots, grad.normal_grads = plan.normals.ids, plan.normals.sum(grad_w, dscore)
    return grad, losses
