import numpy as np
import pytest

from kgeu import (
    EmbeddingTable,
    InvalidConfigError,
    ModelConfig,
    RawTriple,
    Triple,
    build_vocabulary,
    init_embeddings,
    intern,
    score_batch,
    score_candidates,
)
from kgeu.evaluator import QUERY_CHUNK
from kgeu.models import BLOCK_BYTES, DIRECTIONS, MODELS, NORMS, pair_grad_batch
from conftest import gradient, node_grad, normal_grad, reference_pair_grad, reference_pair_loss, score


def make_table(model="transe", dim=2, norm="l2", n_ids=4, n_props=1, **kw):
    cfg = ModelConfig(model=model, dim=dim, norm=norm, **kw)
    nodes = np.zeros((n_ids, cfg.width))
    normals = np.zeros((n_props, dim)) if model == "transh" else None
    prop_ids = np.arange(n_ids - n_props, n_ids, dtype=np.int64)
    return EmbeddingTable(cfg, nodes, normals, prop_ids)


def fd_gradient(table, pos, neg, h=1e-5):
    """Central finite differences of the pair loss over touched parameters."""
    grad = gradient(table, pos, neg)
    P, N = np.array([pos]), np.array([neg])
    node_fd = np.zeros_like(grad.node_grads) if len(grad.node_ids) else None
    for j, id_ in enumerate(grad.node_ids):
        for k in range(table.config.width):
            t2 = table.copy()
            t2.node_vectors[id_, k] += h
            up = reference_pair_loss(t2, P, N)[0]
            t2.node_vectors[id_, k] -= 2 * h
            down = reference_pair_loss(t2, P, N)[0]
            node_fd[j, k] = (up - down) / (2 * h)
    normal_fd = np.zeros_like(grad.normal_grads) if len(grad.normal_slots) else None
    for j, slot in enumerate(grad.normal_slots):
        for k in range(table.config.dim):
            t2 = table.copy()
            t2.relation_normals[slot, k] += h
            up = reference_pair_loss(t2, P, N)[0]
            t2.relation_normals[slot, k] -= 2 * h
            down = reference_pair_loss(t2, P, N)[0]
            normal_fd[j, k] = (up - down) / (2 * h)
    return grad, node_fd, normal_fd


def max_rel_err(analytic, fd):
    if analytic is None or len(analytic) == 0:
        return 0.0
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / scale))


def random_instance(rng, model, dim=8):
    raws = [
        RawTriple("e0", "p0", "e1"),
        RawTriple("e2", "p1", "e3"),
        RawTriple("p0", "p2", "p1"),  # dual-role terms: shared rows under unify
    ]
    vocab = build_vocabulary(raws, unify=True)
    cfg = ModelConfig(model=model, dim=dim, norm="l1" if rng.random() < 0.5 else "l2")
    table = init_embeddings(cfg, vocab, rng)
    table.node_vectors[:] = rng.normal(0.0, 0.8, table.node_vectors.shape)
    if table.relation_normals is not None:
        w = rng.normal(0.0, 1.0, table.relation_normals.shape)
        table.relation_normals[:] = w / np.linalg.norm(w, axis=1, keepdims=True)
    triples = intern(raws, vocab).triples
    pos = triples[int(rng.integers(len(triples)))]
    ent = vocab.entity_ids
    repl = int(ent[rng.integers(len(ent))])
    neg = Triple(repl, pos.p, pos.o) if rng.random() < 0.5 else Triple(pos.s, pos.p, repl)
    return table, vocab, pos, neg


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_init_uniform_bound():
    vocab = build_vocabulary([RawTriple(f"e{i}", "p", f"e{i+1}") for i in range(30)], unify=True)
    cfg = ModelConfig(model="transh", dim=200)
    table = init_embeddings(cfg, vocab, np.random.default_rng(0))
    bound = 6.0 / np.sqrt(200)
    assert np.all(np.abs(table.node_vectors) <= bound)
    assert 0.4 < np.max(np.abs(table.node_vectors)) <= bound  # actually fills the range


def test_init_transe_entity_rows_unit(bilingual_vocab):
    table = init_embeddings(ModelConfig(model="transe", dim=16), bilingual_vocab, np.random.default_rng(1))
    norms = np.linalg.norm(table.node_vectors[bilingual_vocab.entity_ids], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_init_transh_normals_unit(bilingual_vocab):
    table = init_embeddings(ModelConfig(model="transh", dim=16), bilingual_vocab, np.random.default_rng(2))
    assert np.allclose(np.linalg.norm(table.relation_normals, axis=1), 1.0, atol=1e-12)


def test_unified_term_is_one_row(bilingual_vocab):
    table = init_embeddings(ModelConfig(model="transe", dim=8), bilingual_vocab, np.random.default_rng(3))
    for _, eid, pid in bilingual_vocab.shared_terms():
        assert eid == pid  # same storage row by construction
        assert table.node_vectors[eid] is table.node_vectors[pid] or np.shares_memory(
            table.node_vectors[eid], table.node_vectors[pid]
        )


def test_non_unified_rows_differ(bilingual_raws):
    vocab = build_vocabulary(bilingual_raws, unify=False)
    table = init_embeddings(ModelConfig(model="complex", dim=8), vocab, np.random.default_rng(4))
    for _, eid, pid in vocab.shared_terms():
        assert not np.array_equal(table.node_vectors[eid], table.node_vectors[pid])


def test_init_only_share_copies_rows(bilingual_raws):
    vocab = build_vocabulary(bilingual_raws, unify=False)
    table = init_embeddings(ModelConfig(model="complex", dim=8), vocab, np.random.default_rng(5), share="init-only")
    assert vocab.shared_terms()
    for _, eid, pid in vocab.shared_terms():
        assert np.array_equal(table.node_vectors[eid], table.node_vectors[pid])


def test_invalid_config():
    with pytest.raises(InvalidConfigError):
        ModelConfig(model="transe", dim=0)
    with pytest.raises(InvalidConfigError):
        ModelConfig(model="nope")
    with pytest.raises(InvalidConfigError):
        ModelConfig(norm="l3")
    for margin in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError):
            ModelConfig(margin=margin)
    for reg in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError):
            ModelConfig(model="complex", complex_reg=reg)
    for bad in (dict(dim=8.0), dict(dim=True), dict(dim="8"), dict(dim=None), dict(model=1),
                dict(norm=None), dict(margin="1"), dict(margin=True), dict(margin=None),
                dict(complex_reg=[0.1]), dict(complex_reg=False)):
        with pytest.raises(InvalidConfigError):
            ModelConfig(**bad)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def test_transe_exact_translation_scores_zero():
    table = make_table("transe")
    table.node_vectors[0] = (1, 0)   # s
    table.node_vectors[3] = (0, 1)   # p
    table.node_vectors[1] = (1, 1)   # o
    assert score(table, Triple(0, 3, 1)) == 0.0


def test_transe_l1_l2_arithmetic():
    for norm, expected in (("l1", -5.0), ("l2", -np.sqrt(17.0))):
        table = make_table("transe", norm=norm)
        table.node_vectors[0] = (1, 2)
        table.node_vectors[3] = (3, -1)
        table.node_vectors[1] = (0, 0)
        assert score(table, Triple(0, 3, 1)) == pytest.approx(expected, abs=1e-12)


def test_transh_projection_kills_normal_component():
    table = make_table("transh")
    table.relation_normals[0] = (1, 0)
    table.node_vectors[0] = (5, 1)
    table.node_vectors[1] = (9, 1)
    table.node_vectors[3] = (0, 0)
    assert score(table, Triple(0, 3, 1)) == pytest.approx(0.0, abs=1e-12)


def test_transh_arithmetic():
    table = make_table("transh")
    table.relation_normals[0] = (0, 1)
    table.node_vectors[0] = (1, 1)
    table.node_vectors[3] = (1, 0)
    table.node_vectors[1] = (2, 5)
    assert score(table, Triple(0, 3, 1)) == pytest.approx(0.0, abs=1e-12)


def test_transh_self_loop_zero_translation():
    table = make_table("transh")
    table.relation_normals[0] = np.array([0.6, 0.8])
    table.node_vectors[0] = (0.3, -0.7)
    table.node_vectors[3] = (0, 0)
    assert score(table, Triple(0, 3, 0)) == pytest.approx(0.0, abs=1e-12)


def complex_row(values):
    re = [v.real for v in values]
    im = [v.imag for v in values]
    return np.array(re + im)


def test_complex_real_identity():
    table = make_table("complex", dim=1)
    table.node_vectors[0] = complex_row([1 + 0j])
    table.node_vectors[3] = complex_row([1 + 0j])
    table.node_vectors[1] = complex_row([1 + 0j])
    assert score(table, Triple(0, 3, 1)) == pytest.approx(1.0)


def test_complex_imaginary_product():
    table = make_table("complex", dim=1)
    table.node_vectors[0] = complex_row([1j])
    table.node_vectors[3] = complex_row([1j])
    table.node_vectors[1] = complex_row([1 + 0j])
    assert score(table, Triple(0, 3, 1)) == pytest.approx(-1.0)


def test_complex_antisymmetric_with_imaginary_relation():
    table = make_table("complex", dim=1, n_ids=5, n_props=1)
    table.node_vectors[0] = complex_row([1 + 0j])
    table.node_vectors[1] = complex_row([1j])
    table.node_vectors[4] = complex_row([0.7j])
    assert score(table, Triple(0, 4, 1)) == pytest.approx(-score(table, Triple(1, 4, 0)))


def test_complex_symmetric_with_real_relation():
    rng = np.random.default_rng(6)
    table = make_table("complex", dim=5, n_ids=6, n_props=1)
    table.node_vectors[:] = rng.normal(size=table.node_vectors.shape)
    table.node_vectors[5, 5:] = 0.0  # relation row purely real
    assert score(table, Triple(0, 5, 1)) == pytest.approx(score(table, Triple(1, 5, 0)))


def test_transe_translation_invariance():
    rng = np.random.default_rng(7)
    for norm in ("l1", "l2"):
        table = make_table("transe", dim=6, norm=norm, n_ids=4)
        table.node_vectors[:] = rng.normal(size=table.node_vectors.shape)
        base = score(table, Triple(0, 3, 1))
        c = rng.normal(size=6)
        table.node_vectors[0] += c
        table.node_vectors[1] += c
        assert score(table, Triple(0, 3, 1)) == pytest.approx(base, abs=1e-9)


def test_transh_invariant_to_normal_components():
    rng = np.random.default_rng(8)
    table = make_table("transh", dim=6, n_ids=4)
    table.node_vectors[:] = rng.normal(size=table.node_vectors.shape)
    w = rng.normal(size=6)
    table.relation_normals[0] = w / np.linalg.norm(w)
    base = score(table, Triple(0, 3, 1))
    table.node_vectors[0] += 2.5 * table.relation_normals[0]
    table.node_vectors[1] -= 1.3 * table.relation_normals[0]
    assert score(table, Triple(0, 3, 1)) == pytest.approx(base, abs=1e-9)


def test_score_batch_matches_single():
    rng = np.random.default_rng(9)
    for model in ("transe", "transh", "complex"):
        table, vocab, pos, neg = random_instance(rng, model)
        ids = np.array([pos, neg])
        batched = score_batch(table, ids[:, 0], ids[:, 1], ids[:, 2])
        assert batched[0] == pytest.approx(score(table, pos), abs=1e-12)
        assert batched[1] == pytest.approx(score(table, neg), abs=1e-12)


# ---------------------------------------------------------------------------
# score_candidates: bitwise equal to score_batch
# ---------------------------------------------------------------------------

def random_scoring_table(rng, model, dim, norm, n_ids, n_props=5):
    table = make_table(model, dim=dim, norm=norm, n_ids=n_ids, n_props=n_props)
    table.node_vectors[:] = rng.normal(size=table.node_vectors.shape)
    if table.relation_normals is not None:
        w = rng.normal(size=table.relation_normals.shape)
        table.relation_normals[:] = w / np.linalg.norm(w, axis=1, keepdims=True)
    return table


def random_queries(rng, table, direction, n):
    ent = rng.integers(0, len(table.node_vectors), n)
    if direction == "relation":
        return np.stack([ent, rng.integers(0, len(table.node_vectors), n)], axis=1)
    p = rng.choice(table.property_ids, n)
    return np.stack([ent, p] if direction == "tail" else [p, ent], axis=1)


def assert_bitwise_score_batch(table, queries, direction, candidates):
    got = score_candidates(table, queries, direction, candidates)
    assert got.shape == (len(queries), len(candidates))
    slot = DIRECTIONS.index(direction)
    for row, query in zip(got, queries):
        triples = np.insert(np.tile(query, (len(candidates), 1)), slot, candidates, axis=1)
        want = score_batch(table, *triples.T)
        assert np.array_equal(row.view(np.int64), want.view(np.int64))
    return got


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_score_candidates_bitwise_equal_to_score_batch(model, norm, direction):
    rng = np.random.default_rng(12)
    # every id is a property when candidates fill the predicate slot, so
    # transh takes one normal per candidate
    all_props = direction == "relation"
    # odd dim, fewer candidates than one block
    table = random_scoring_table(rng, model, dim=7, norm=norm, n_ids=40, n_props=40 if all_props else 5)
    assert_bitwise_score_batch(table, random_queries(rng, table, direction, 3), direction,
                               rng.integers(0, 40, 25))
    # row width 200: three full blocks and a partial one, with duplicate
    # candidates, for one query and for more than one evaluate() chunk
    dim = 100 if model == "complex" else 200
    step = BLOCK_BYTES // (8 * 200)
    n_ids = 3 * step + step // 2
    table = random_scoring_table(rng, model, dim, norm, n_ids, n_ids if all_props else 5)
    candidates = np.concatenate([rng.permutation(n_ids), rng.integers(0, n_ids, 40)])
    for n_queries in (1, QUERY_CHUNK + 3):
        queries = random_queries(rng, table, direction, n_queries)
        got = assert_bitwise_score_batch(table, queries, direction, candidates)
        for dup in range(n_ids, len(candidates)):
            twin = np.flatnonzero(candidates[:n_ids] == candidates[dup])[0]
            assert np.array_equal(got[:, dup], got[:, twin])  # exact ties


def test_score_candidates_rejects_unknown_direction():
    table = make_table()
    with pytest.raises(InvalidConfigError):
        score_candidates(table, [[0, 3]], "sideways", np.arange(3))


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_inactive_hinge_zero_gradient():
    # exact translation for the positive, distant negative, margin 1
    table = make_table("transe", n_ids=5, n_props=1)
    table.node_vectors[0] = (1, 0)
    table.node_vectors[4] = (0, 1)
    table.node_vectors[1] = (1, 1)
    table.node_vectors[2] = (9, 9)
    grad = gradient(table, Triple(0, 4, 1), Triple(0, 4, 2))
    assert grad.max_abs() == 0.0


def test_gradient_touches_shared_relation_row(bilingual_vocab, bilingual_triples):
    table = init_embeddings(ModelConfig(model="transe", dim=4), bilingual_vocab, np.random.default_rng(10))
    prop_triple = bilingual_triples[2]  # the statement about the two relations
    neg = Triple(bilingual_triples[0].s, prop_triple.p, prop_triple.o)
    grad = gradient(table, prop_triple, neg)
    assert bilingual_vocab.property_id("ex:birthplace") in grad.node_ids
    assert bilingual_vocab.property_id("ex:shusshin") in grad.node_ids


def test_shared_row_accumulates_both_roles():
    # one id plays subject and predicate at once; its gradient must be the
    # sum of the two role contributions, which only finite differences of
    # the true shared-storage loss can confirm
    rng = np.random.default_rng(11)
    raws = [RawTriple("p0", "p0", "e0"), RawTriple("e0", "p0", "e1")]
    vocab = build_vocabulary(raws, unify=True)
    cfg = ModelConfig(model="transe", dim=6)
    table = init_embeddings(cfg, vocab, rng)
    table.node_vectors[:] = rng.normal(0.0, 0.8, table.node_vectors.shape)
    triples = intern(raws, vocab).triples
    pos = triples[0]
    neg = Triple(pos.s, pos.p, triples[1].o)
    grad, node_fd, _ = fd_gradient(table, pos, neg)
    assert max_rel_err(grad.node_grads, node_fd) < 1e-6


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(25):
        table, vocab, pos, neg = random_instance(rng, model)
        grad, node_fd, normal_fd = fd_gradient(table, pos, neg)
        worst = max(worst, max_rel_err(grad.node_grads, node_fd))
        if normal_fd is not None:
            worst = max(worst, max_rel_err(grad.normal_grads, normal_fd))
    assert worst < 1e-4


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("norm", NORMS)
def test_pair_grad_batch_bitwise_equal_to_six_block_scatter(model, norm):
    # one pair; then, at row width 200, a batch whose 6B terms span several
    # scatter blocks and end in a partial one, and whose most common
    # relation id has a segment longer than a block
    rng = np.random.default_rng(14)
    dim = 100 if model == "complex" else 200
    step = BLOCK_BYTES // (8 * 200)
    for batch in (1, step - 5):
        table = random_scoring_table(rng, model, dim, norm, n_ids=40)
        p = np.where(rng.random(batch) < 0.1, rng.choice(table.property_ids, batch), table.property_ids[0])
        pos = np.stack([rng.integers(0, 35, batch), p, rng.integers(0, 35, batch)], axis=1)
        neg = pos.copy()
        col = np.where(rng.random(batch) < 0.5, 0, 2)
        neg[np.arange(batch), col] = rng.integers(0, 35, batch)
        grad, _ = pair_grad_batch(table, pos, neg)
        node_ids, node_grads, slots, normal_grads = reference_pair_grad(table, pos, neg)
        assert np.array_equal(grad.node_ids, node_ids)
        assert np.array_equal(grad.node_grads.view(np.int64), node_grads.view(np.int64))
        if model == "transh":
            assert np.array_equal(grad.normal_slots, slots)
            assert np.array_equal(grad.normal_grads.view(np.int64), normal_grads.view(np.int64))
        else:
            assert len(grad.normal_slots) == 0


def test_batch_gradient_equals_sum_of_pairs():
    rng = np.random.default_rng(13)
    for model in ("transe", "transh", "complex"):
        table, vocab, _, _ = random_instance(rng, model)
        triples = [Triple(0, 1, 2), Triple(3, 1, 0), Triple(0, 4, 2)]
        ent = vocab.entity_ids
        pairs = []
        for t in triples:
            repl = int(ent[rng.integers(len(ent))])
            pairs.append((t, Triple(repl, t.p, t.o)))
        pos = np.array([p for p, _ in pairs])
        neg = np.array([n for _, n in pairs])
        batch_grad, batch_losses = pair_grad_batch(table, pos, neg)
        for i, (p, n) in enumerate(pairs):
            assert reference_pair_loss(table, pos[i : i + 1], neg[i : i + 1])[0] == pytest.approx(batch_losses[i])
        for id_ in batch_grad.node_ids:
            summed = sum(node_grad(gradient(table, p, n), id_) for p, n in pairs)
            assert np.allclose(node_grad(batch_grad, id_), summed, atol=1e-12)
        for slot in batch_grad.normal_slots:
            summed = sum(normal_grad(gradient(table, p, n), slot) for p, n in pairs)
            assert np.allclose(normal_grad(batch_grad, slot), summed, atol=1e-12)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("complex_reg", [0.0, 1e-3])
def test_pair_losses_equal_reference_pair_loss(model, norm, complex_reg):
    # roles collide: s == o, property ids as subject or object, and the
    # predicate's own row as subject or object
    rng = np.random.default_rng(15)
    table = random_scoring_table(rng, model, dim=6, norm=norm, n_ids=12, n_props=3)
    table.config = ModelConfig(model=model, dim=6, norm=norm, complex_reg=complex_reg)
    batch = 60
    pos = np.stack([rng.integers(0, 12, batch), rng.choice(table.property_ids, batch),
                    rng.integers(0, 12, batch)], axis=1)
    pos[:10, 2] = pos[:10, 0]
    pos[10:20, 0] = rng.choice(table.property_ids, 10)
    pos[20:30, 2] = rng.choice(table.property_ids, 10)
    pos[30:35, 0] = pos[30:35, 1]
    pos[35:40, 2] = pos[35:40, 1]
    neg = pos.copy()
    col = np.where(rng.random(batch) < 0.5, 0, 2)
    neg[np.arange(batch), col] = rng.integers(0, 12, batch)
    _, losses = pair_grad_batch(table, pos, neg)
    want = reference_pair_loss(table, pos, neg)
    assert np.count_nonzero(want) > batch // 4
    assert np.all(np.abs(losses - want) <= 1e-12 * np.abs(want))
