import json
import math

import numpy as np
import pytest

from kgeu import (
    MalformedLineError,
    RawTriple,
    TermColumns,
    UnknownTermError,
    build_vocabulary,
    intern,
    pair_grad_batch,
    score_batch,
)
from kgeu.evaluator import _chunk_ranks
from kgeu.models import CandidateScreen, _sigmoid


def mini_bilingual(entity_links: bool = False) -> list[RawTriple]:
    """The minimal two-language example: one fact, its mirror, and the
    property-level translation link (optionally the entity-level one)."""
    triples = [
        RawTriple("ex:A", "ex:birthplace", "ex:Spain"),
        RawTriple("ex:B", "ex:shusshin", "ex:Supein"),
        RawTriple("ex:birthplace", "ex:honyaku", "ex:shusshin"),
    ]
    if entity_links:
        triples.append(RawTriple("ex:Spain", "ex:honyaku", "ex:Supein"))
    return triples


def rows(columns: TermColumns) -> list[RawTriple]:
    """The RawTriple rows of parsed term columns, to compare with row oracles."""
    return list(map(RawTriple._make, zip(columns.subjects, columns.predicates, columns.objects, columns.is_literal)))


def reference_parse_tsv(text: str) -> list[RawTriple]:
    """parse_tsv one line at a time with every check on every line, as it
    was before its fast path: the oracle for that path."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    triples = []
    for line_no, line in enumerate((line.rstrip("\r") for line in lines), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLineError(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        if any(f == "" for f in fields):
            raise MalformedLineError(line_no, "empty field")
        triples.append(RawTriple(fields[0], fields[1], fields[2]))
    return triples


def reference_intern(raws, vocab) -> tuple[list[tuple[int, int, int]], int]:
    """intern's (triples, duplicates) from the role dicts, one id tuple per
    raw triple; raises UnknownTermError naming every missing term."""
    missing = {term for t in raws for term, table in zip(t, (vocab._entity_id, vocab._property_id, vocab._entity_id))
               if term not in table}
    if missing:
        raise UnknownTermError(missing)
    ids = [(vocab._entity_id[t.subject], vocab._property_id[t.predicate], vocab._entity_id[t.object])
           for t in raws]
    unique = list(dict.fromkeys(ids))
    return unique, len(ids) - len(unique)


def score(table, t) -> float:
    """score_batch of the one triple `t`."""
    return float(score_batch(table, np.array([t]))[0])


def gradient(table, positive, negative):
    """pair_grad_batch's sparse gradient of one positive/negative pair."""
    return pair_grad_batch(table, np.array([positive]), np.array([negative]))[0]


def rank(table, t, direction, candidates, index, filtered: bool) -> int:
    """evaluate()'s rank of the true answer when `direction` is predicted for `t`."""
    raw, filt = _chunk_ranks(CandidateScreen(table, candidates), np.array([t]), (direction,), index)
    return int(filt[0, 0] if filtered else raw[0, 0])


def reference_rank(scores: np.ndarray, true_pos: int, excluded: np.ndarray | None = None) -> int:
    """Pessimistic rank of the candidate at `true_pos`: 1 + the number of
    non-excluded other candidates scoring >= the true answer."""
    others = np.ones(len(scores), dtype=bool)
    if excluded is not None:
        others &= ~excluded
    others[true_pos] = False
    return 1 + int(np.count_nonzero(scores[others] >= scores[true_pos]))


def oracle_score(table, s, p, o) -> float:
    """One triple's score from the model definitions with plain arithmetic:
    an explicit projection for transh, Python complex numbers for complex."""
    cfg = table.config
    vs = table.node_vectors[s]
    vp = table.node_vectors[p]
    vo = table.node_vectors[o]
    if cfg.model == "transe":
        d = vs + vp - vo
    elif cfg.model == "transh":
        slot = list(table.property_ids).index(p)
        w = table.relation_normals[slot]
        d = (vs - float(np.dot(w, vs)) * w) + vp - (vo - float(np.dot(w, vo)) * w)
    else:
        k = cfg.dim
        total = 0.0
        for i in range(k):
            sc = complex(vs[i], vs[k + i]) * complex(vp[i], vp[k + i]) * complex(vo[i], -vo[k + i])
            total += sc.real
        return total
    if cfg.norm == "l1":
        return -float(np.sum(np.abs(d)))
    return -float(np.sqrt(np.sum(d * d)))


def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def reference_pair_loss(table, pos, neg) -> np.ndarray:
    """Per-pair training loss from the model definitions, one pair at a
    time and with no kgeu scoring or loss code: max(0, margin - score(pos)
    + score(neg)) for transe and transh; for complex, softplus(-score(pos))
    + softplus(score(neg)) plus complex_reg times the squared norm of each
    distinct row the pair touches."""
    cfg = table.config
    losses = []
    for p, n in zip(np.asarray(pos).tolist(), np.asarray(neg).tolist()):
        sp, sn = oracle_score(table, *p), oracle_score(table, *n)
        if cfg.model != "complex":
            losses.append(max(0.0, cfg.margin - sp + sn))
            continue
        reg = sum(float(np.dot(table.node_vectors[i], table.node_vectors[i])) for i in set(p) | set(n))
        losses.append(_softplus(-sp) + _softplus(sn) + cfg.complex_reg * reg)
    return np.array(losses)


@pytest.fixture
def bilingual_raws() -> list[RawTriple]:
    return mini_bilingual()


@pytest.fixture
def bilingual_vocab(bilingual_raws):
    return build_vocabulary(bilingual_raws, unify=True)


@pytest.fixture
def bilingual_triples(bilingual_raws, bilingual_vocab) -> list[tuple[int, int, int]]:
    return intern(bilingual_raws, bilingual_vocab).triples


def random_graph(rng: np.random.Generator, n_entities: int, n_relations: int, n_triples: int,
                 property_nodes: bool = False) -> list[RawTriple]:
    """Random raw triples over e0..eN / r0..rM, optionally with a few
    statements about the relations themselves."""
    raws = []
    seen = set()
    while len(raws) < n_triples:
        s = int(rng.integers(n_entities))
        o = int(rng.integers(n_entities))
        p = int(rng.integers(n_relations))
        if (s, p, o) in seen:
            continue
        seen.add((s, p, o))
        raws.append(RawTriple(f"e{s}", f"r{p}", f"e{o}"))
    if property_nodes and n_relations >= 2:
        raws.append(RawTriple("r0", "r1", f"e{int(rng.integers(n_entities))}"))
        raws.append(RawTriple(f"e{int(rng.integers(n_entities))}", "r0", "r1"))
    return raws


def edit_header(archive: bytes, edit) -> bytes:
    """The archive with its JSON header replaced by `edit(header)`, which
    may return any JSON value; the header's length line is rewritten."""
    magic, length, rest = archive.split(b"\n", 2)
    n = int(length)
    header = json.dumps(edit(json.loads(rest[:n]))).encode()
    return magic + b"\n%d\n" % len(header) + header + rest[n:]


def _grad_row(keys: np.ndarray, rows: np.ndarray | None, key: int, width: int) -> np.ndarray:
    i = np.searchsorted(keys, key)
    if i == len(keys) or keys[i] != key:
        return np.zeros(width)
    return rows[i]


def node_grad(table, grad, id_: int) -> np.ndarray:
    """Gradient row of node `id_` in a SparseGrad of `table`; zeros if untouched."""
    return _grad_row(grad.node_ids, grad.node_grads, id_, table.config.width)


def normal_grad(table, grad, slot: int) -> np.ndarray:
    """Gradient of transh normal `slot` in a SparseGrad of `table`; zeros if untouched."""
    return _grad_row(grad.normal_slots, grad.normal_grads, slot, table.config.dim)


def reference_pair_grad(table, pos: np.ndarray, neg: np.ndarray):
    """The six-block batch gradient: every (s, p, o) role of the positive
    and of the negative triple gets its own (B, width) array of
    coefficient x score-gradient products; the six are concatenated with
    their ids in that role order and summed with one stable argsort and
    one np.add.reduceat. Then complex's regulariser adds 2·complex_reg·count·v
    to each row v, count being the number of pairs that touch v in any role.
    Returns (node_ids, node_grads, normal_slots, normal_grads); the
    last two are None except for transh."""
    cfg = table.config
    nodes = table.node_vectors

    def parts(ids):
        vs, vp, vo = nodes[ids[:, 0]], nodes[ids[:, 1]], nodes[ids[:, 2]]
        if cfg.model == "complex":
            k = cfg.dim
            sr, si, rr, ri, orr, oi = vs[:, :k], vs[:, k:], vp[:, :k], vp[:, k:], vo[:, :k], vo[:, k:]
            sc = np.sum((sr * rr - si * ri) * orr + (sr * ri + si * rr) * oi, axis=-1)
            return sc, [np.concatenate([rr * orr + ri * oi, -ri * orr + rr * oi], axis=1),
                        np.concatenate([sr * orr + si * oi, -si * orr + sr * oi], axis=1),
                        np.concatenate([sr * rr - si * ri, sr * ri + si * rr], axis=1)], None
        if cfg.model == "transe":
            d = vs + vp - vo
        else:
            w = table.relation_normals[table.normal_slot(ids[:, 1])]
            u = vs - vo
            wu = np.sum(w * u, axis=-1, keepdims=True)
            d = u - wu * w + vp
        if cfg.norm == "l2":
            n = np.linalg.norm(d, axis=-1)
            unit = d / np.where(n > 0.0, n, 1.0)[:, None]
        else:
            n, unit = np.abs(d).sum(axis=-1), np.sign(d)
        if cfg.model == "transe":
            return -n, [-unit, -unit, unit], None
        g = -unit
        gw = np.sum(g * w, axis=-1, keepdims=True)
        g_proj = g - gw * w
        return -n, [g_proj, g, -g_proj], -(gw * u + wu * g)

    def scatter(ids, rows):
        order = np.argsort(ids, kind="stable")
        ids_sorted = ids[order]
        starts = np.flatnonzero(np.r_[True, ids_sorted[1:] != ids_sorted[:-1]])
        return ids_sorted[starts], np.add.reduceat(rows[order], starts, axis=0)

    sp, p_rows, p_dw = parts(pos)
    sn, n_rows, n_dw = parts(neg)
    if cfg.model == "complex":
        cp = -_sigmoid(-sp)[:, None]
        cn = _sigmoid(sn)[:, None]
    else:
        act = (cfg.margin - sp + sn > 0.0).astype(np.float64)[:, None]
        cp, cn = -act, act
    ids = [pos[:, 0], pos[:, 1], pos[:, 2], neg[:, 0], neg[:, 1], neg[:, 2]]
    rows = [cp * r for r in p_rows] + [cn * r for r in n_rows]
    node_ids, node_grads = scatter(np.concatenate(ids), np.concatenate(rows))
    if cfg.model == "complex" and cfg.complex_reg > 0.0:
        touched = [set(p) | set(n) for p, n in zip(pos.tolist(), neg.tolist())]
        count = np.array([sum(i in pair for pair in touched) for i in node_ids.tolist()])
        node_grads += (2.0 * cfg.complex_reg * count)[:, None] * nodes[node_ids]
    if cfg.model != "transh":
        return node_ids, node_grads, None, None
    slots = np.concatenate([table.normal_slot(pos[:, 1]), table.normal_slot(neg[:, 1])])
    return (node_ids, node_grads) + scatter(slots, np.concatenate([cp * p_dw, cn * n_dw]))
