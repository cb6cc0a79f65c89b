import numpy as np
import pytest

import kgeu.models
import kgeu.trainer
from kgeu import (
    AdamState,
    EmbeddingTable,
    EmptyDatasetError,
    EvalConfig,
    InvalidConfigError,
    ModelConfig,
    NonFiniteUpdateError,
    RawTriple,
    TripleIndex,
    TrainConfig,
    adam_step,
    build_vocabulary,
    dataset_stats,
    evaluate,
    init_embeddings,
    intern,
    negative_samples,
    pair_grad_batch,
    save,
    train,
)
from kgeu.models import SparseGrad, renormalize_entities, renormalize_normals
from kgeu.toy import ToySpec, generate_toy
from kgeu.trainer import MAX_REJECTION_ATTEMPTS
from conftest import random_graph


def small_config(**kw):
    model = kw.pop("model", ModelConfig(model="transe", dim=8))
    defaults = dict(learning_rate=0.05, epochs=30, seed=0)
    defaults.update(kw)
    return TrainConfig(model=model, **defaults)


# ---------------------------------------------------------------------------
# Negative sampling
# ---------------------------------------------------------------------------

def test_negative_sample_one_candidate_space():
    raws = [RawTriple("a", "p", "b")]
    vocab = build_vocabulary(raws, unify=True)
    (t,) = intern(raws, vocab).triples
    index = TripleIndex([t])
    rng = np.random.default_rng(0)
    a, b = vocab.entity_id("a"), vocab.entity_id("b")
    neg, capped = negative_samples(np.array([t] * 50), vocab.entity_ids, index, rng)
    assert capped == 0
    for row in neg.tolist():
        assert tuple(row) in ((b, t[1], t[2]), (t[0], t[1], a))


def test_negative_sample_never_touches_predicate(bilingual_vocab, bilingual_triples):
    index = TripleIndex(bilingual_triples)
    rng = np.random.default_rng(1)
    pos = np.array([bilingual_triples[i % len(bilingual_triples)] for i in range(10_000)])
    neg, _ = negative_samples(pos, bilingual_vocab.entity_ids, index, rng)
    assert np.array_equal(neg[:, 1], pos[:, 1])
    same_s, same_o = neg[:, 0] == pos[:, 0], neg[:, 2] == pos[:, 2]
    assert np.all((same_s != same_o) | np.any(neg != pos, axis=1))  # exactly one side changed
    assert np.all(same_s | same_o)  # the other side is kept


def test_negative_sample_head_tail_balance(bilingual_vocab, bilingual_triples):
    # empirical corruption ratio over 100k draws stays within 0.5 +/- 0.01;
    # the index holds the positive, so identity redraws are rejected and
    # a changed head happens exactly when the coin picked the head
    index = TripleIndex(bilingual_triples)
    rng = np.random.default_rng(2)
    t = bilingual_triples[0]
    n = 100_000
    neg, _ = negative_samples(np.array([t] * n), bilingual_vocab.entity_ids, index, rng)
    heads = np.count_nonzero(neg[:, 0] != t[0])
    assert abs(heads / n - 0.5) < 0.01


def test_negative_sample_cap_on_saturated_graph():
    # every corruption with predicate p is a known positive: the cap must
    # trigger on exactly those rows, while the row with predicate q escapes
    raws = [RawTriple(f"e{i}", "p", f"e{j}") for i in range(3) for j in range(3)]
    raws.append(RawTriple("e0", "q", "e1"))
    vocab = build_vocabulary(raws, unify=True)
    triples = intern(raws, vocab).triples
    index = TripleIndex(triples)
    rng = np.random.default_rng(3)
    neg, capped = negative_samples(np.array(triples), vocab.entity_ids, index, rng)
    known = index.contains(neg)
    assert capped == 9
    assert capped == np.count_nonzero(known)
    assert np.all(known[:9]) and not known[9]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def make_table_and_adam(dim=4, n_ids=5):
    vocab = build_vocabulary(
        [RawTriple(f"e{i}", "p0", f"e{i+1}") for i in range(n_ids - 2)], unify=True
    )
    table = init_embeddings(ModelConfig(model="transe", dim=dim), vocab, np.random.default_rng(4))
    return table, AdamState(table)


def test_adam_zero_gradient_advances_step_only():
    table, adam = make_table_and_adam()
    before = table.node_vectors.copy()
    adam_step(table, adam, SparseGrad(), learning_rate=0.1)
    assert adam.step == 1
    assert np.array_equal(table.node_vectors, before)


def test_adam_first_step_closed_form():
    table, adam = make_table_and_adam()
    g = np.zeros((1, table.config.width))
    g[0, 0] = 0.37
    before = table.node_vectors[2, 0]
    grad = SparseGrad(np.array([2]), g)
    adam_step(table, adam, grad, learning_rate=0.01)
    expected_delta = -0.01 * 0.37 / (abs(0.37) + adam.eps)
    assert table.node_vectors[2, 0] - before == pytest.approx(expected_delta, rel=1e-9)
    assert abs(table.node_vectors[2, 0] - before) == pytest.approx(0.01, rel=1e-6)


def test_adam_untouched_rows_and_moments_unchanged():
    table, adam = make_table_and_adam()
    before = table.node_vectors.copy()
    g = np.ones((1, table.config.width))
    grad = SparseGrad(np.array([1]), g)
    for _ in range(10):
        adam_step(table, adam, grad, learning_rate=0.02)
    touched = np.zeros(len(before), dtype=bool)
    touched[1] = True
    assert np.array_equal(table.node_vectors[~touched], before[~touched])
    assert np.all(adam.m_nodes[~touched] == 0.0)
    assert np.all(adam.v_nodes[~touched] == 0.0)
    assert np.all(adam.m_nodes[1] != 0.0)


def reference_adam_scalar(g_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook scalar Adam, written independently of the trainer."""
    m = v = 0.0
    theta = 0.0
    deltas = []
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        delta = -lr * m_hat / (np.sqrt(v_hat) + eps)
        theta += delta
        deltas.append(delta)
    return theta, deltas


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(5)
    g_seq = rng.normal(size=200)
    table, adam = make_table_and_adam()
    table.node_vectors[0, 0] = 0.0
    for g in g_seq:
        rows = np.zeros((1, table.config.width))
        rows[0, 0] = g
        adam_step(table, adam, SparseGrad(np.array([0]), rows), 0.03)
    ref_theta, _ = reference_adam_scalar(g_seq, 0.03)
    assert table.node_vectors[0, 0] == pytest.approx(ref_theta, rel=1e-12)


def test_adam_bitwise_equal_to_reference_formula():
    # the in-place update keeps the operation order of the textbook
    # vectorized form, so parameters and both moments agree bit for bit
    table, adam = make_table_and_adam(dim=16, n_ids=40)
    params, m, v = table.node_vectors.copy(), np.zeros_like(table.node_vectors), np.zeros_like(table.node_vectors)
    b1, b2, eps, lr = adam.beta1, adam.beta2, adam.eps, 0.01
    rng = np.random.default_rng(8)
    for step in range(1, 6):
        ids = np.sort(rng.choice(len(params), size=15, replace=False))
        grads = rng.normal(size=(15, table.config.width))
        adam_step(table, adam, SparseGrad(ids, grads), lr)
        m[ids] = b1 * m[ids] + (1.0 - b1) * grads
        v[ids] = b2 * v[ids] + (1.0 - b2) * grads ** 2
        m_hat = m[ids] / (1.0 - b1 ** step)
        v_hat = v[ids] / (1.0 - b2 ** step)
        params[ids] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for got, want in ((table.node_vectors, params), (adam.m_nodes, m), (adam.v_nodes, v)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_adam_bounded_step_under_constant_gradient():
    _, deltas = reference_adam_scalar([2.5] * 5000, lr=0.01)
    assert abs(deltas[-1]) == pytest.approx(0.01, rel=1e-4)
    table, adam = make_table_and_adam()
    rows = np.full((1, table.config.width), -2.5)
    grad = SparseGrad(np.array([0]), rows)
    prev = table.node_vectors[0].copy()
    for _ in range(5000):
        adam_step(table, adam, grad, 0.01)
    last_step = table.node_vectors[0] - prev
    # nothing to compare prev against per step; just assert direction and magnitude
    assert np.all(table.node_vectors[0] > 0)


def test_adam_rejects_non_finite():
    table, adam = make_table_and_adam()
    rows = np.full((1, table.config.width), np.inf)
    grad = SparseGrad(np.array([0]), rows)
    with pytest.raises(NonFiniteUpdateError):
        adam_step(table, adam, grad, 0.01)


def test_adam_whole_table_step_bitwise_equal_to_gathered_rows():
    # a step touching every row updates in place; the same step on a table
    # with one more, untouched row gathers and scatters the touched rows
    whole, adam = make_table_and_adam(dim=16, n_ids=40)
    n = len(whole.node_vectors)
    extra = np.full((1, whole.config.width), 0.5)
    gathered = EmbeddingTable(whole.config, np.concatenate([whole.node_vectors, extra]), None, whole.property_ids)
    adam_gathered = AdamState(gathered)
    rng = np.random.default_rng(9)
    for _ in range(5):
        grads = rng.normal(size=(n, whole.config.width))
        adam_step(whole, adam, SparseGrad(np.arange(n), grads), 0.01)
        adam_step(gathered, adam_gathered, SparseGrad(np.arange(n), grads), 0.01)
        for got, want in ((whole.node_vectors, gathered.node_vectors), (adam.m_nodes, adam_gathered.m_nodes),
                          (adam.v_nodes, adam_gathered.v_nodes)):
            assert np.array_equal(got.view(np.int64), want[:n].view(np.int64))
    assert np.array_equal(gathered.node_vectors[n:], extra)
    assert not adam_gathered.m_nodes[n:].any() and not adam_gathered.v_nodes[n:].any()
    grads[n // 2, 3] = np.inf
    with pytest.raises(NonFiniteUpdateError):
        adam_step(whole, adam, SparseGrad(np.arange(n), grads), 0.01)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_config_invariants():
    with pytest.raises(InvalidConfigError):
        small_config(epochs=0)
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError):
            small_config(learning_rate=lr)
    with pytest.raises(InvalidConfigError):
        small_config(batch_size=0)
    with pytest.raises(InvalidConfigError):
        small_config(negatives=0)
    with pytest.raises(InvalidConfigError):
        small_config(corruption="bernoulli")
    for bad in (dict(epochs=2.5), dict(epochs=True), dict(batch_size=4.0), dict(batch_size=False),
                dict(negatives=True), dict(negatives="2"), dict(seed=None), dict(seed=-1),
                dict(seed=1.0), dict(seed=True), dict(learning_rate="0.1"), dict(learning_rate=True),
                dict(corruption=None), dict(share=None), dict(share=1)):
        with pytest.raises(InvalidConfigError):
            small_config(**bad)


def test_config_dict_round_trip():
    cfg = small_config(model=ModelConfig(model="complex", dim=4, norm="l1"), batch_size=3,
                       negatives=2, share="init-only", seed=5)
    d = cfg.to_dict()
    assert sorted(d) == sorted(["model", "dim", "norm", "margin", "complex_reg", "learning_rate", "epochs",
                                "batch_size", "negatives", "corruption", "share", "seed"])
    assert d["model"] == "complex" and d["dim"] == 4 and d["seed"] == 5
    assert TrainConfig.from_dict(d) == cfg
    for key in d:
        with pytest.raises(InvalidConfigError, match="missing"):
            TrainConfig.from_dict({k: v for k, v in d.items() if k != key})
    with pytest.raises(InvalidConfigError, match="unknown"):
        TrainConfig.from_dict(dict(d, extra=1))
    with pytest.raises(InvalidConfigError):
        TrainConfig.from_dict(dict(d, dim="4"))


def test_non_finite_loss_is_named_as_the_loss():
    # a huge margin keeps every update finite but overflows the epoch's loss sum
    train_raws, _ = generate_toy(ToySpec())
    vocab = build_vocabulary(train_raws, unify=True)
    config = small_config(model=ModelConfig(model="transe", dim=8, margin=1e308), epochs=3)
    with pytest.raises(NonFiniteUpdateError, match="^non-finite loss at epoch 1$"):
        train(intern(train_raws, vocab).triples, vocab, config)


def test_train_empty_dataset(bilingual_vocab):
    with pytest.raises(EmptyDatasetError):
        train([], bilingual_vocab, small_config())


def test_train_deterministic(bilingual_vocab, bilingual_triples):
    cfg = small_config(epochs=40)
    a = train(bilingual_triples, bilingual_vocab, cfg)
    b = train(bilingual_triples, bilingual_vocab, cfg)
    assert np.array_equal(a.table.node_vectors, b.table.node_vectors)
    assert [s.mean_loss for s in a.log] == [s.mean_loss for s in b.log]


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_train_same_seed_same_archive_bytes(tmp_path, bilingual_vocab, bilingual_triples, model):
    cfg = small_config(model=ModelConfig(model=model, dim=8), epochs=20, batch_size=2)
    paths = [tmp_path / f"{k}.kgeu" for k in range(2)]
    for path in paths:
        save(train(bilingual_triples, bilingual_vocab, cfg).table, bilingual_vocab, cfg, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_id_arrays_and_tuple_lists_give_equal_results(tmp_path):
    # every function taking id triples: an (n, 3) array is the same input
    # as its list of int tuples, and an empty (0, 3) array is an empty dataset
    raws = random_graph(np.random.default_rng(5), n_entities=10, n_relations=3, n_triples=30, property_nodes=True)
    vocab = build_vocabulary(raws, unify=True)
    triples = intern(raws, vocab).triples
    arr = np.array(triples)
    cfg = small_config(model=ModelConfig(model="transh", dim=8), epochs=5, batch_size=7)
    paths = [tmp_path / "list.kgeu", tmp_path / "array.kgeu"]
    indexes, reports = [], []
    for source, path in zip((triples, arr), paths):
        index = TripleIndex(source)
        result = train(source, vocab, cfg)
        save(result.table, vocab, cfg, path)
        indexes.append(index)
        reports.append(evaluate(result.table, source, vocab, index, EvalConfig()))
    assert np.array_equal(indexes[0]._spo, indexes[1]._spo) and np.array_equal(indexes[0]._pos, indexes[1]._pos)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert reports[0] == reports[1]
    assert dataset_stats(vocab, triples) == dataset_stats(vocab, arr)
    empty = np.zeros((0, 3), dtype=np.int64)
    with pytest.raises(EmptyDatasetError):
        train(empty, vocab, cfg)
    with pytest.raises(EmptyDatasetError):
        evaluate(result.table, empty, vocab, indexes[0], EvalConfig())


@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
def test_non_integer_id_arrays_are_rejected(bilingual_vocab, bilingual_triples, dtype):
    # float ids would otherwise be truncated: [[0.7, 1.9, 2.2]] read as [[0, 1, 2]]
    ids = np.array(bilingual_triples, dtype=dtype)
    if dtype is not bool:
        ids += 0.7
    index = TripleIndex(bilingual_triples)
    table = train(bilingual_triples, bilingual_vocab, small_config(epochs=1)).table
    for call in (lambda: train(ids, bilingual_vocab, small_config(epochs=1)),
                 lambda: evaluate(table, ids, bilingual_vocab, index, EvalConfig()),
                 lambda: TripleIndex(ids)):
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            call()


def per_batch_training(triples, vocab: kgeu.Vocabulary, config: TrainConfig):
    """train() written as one pair_grad_batch (which plans its own batch)
    and one adam_step per batch, drawing each epoch's negatives the same
    way; returns the table and the mean loss of each epoch."""
    triples = np.array(triples)
    index = TripleIndex(triples)
    init_rng, shuffle_rng, sample_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(3))
    table = init_embeddings(config.model, vocab, init_rng, share=config.share)
    adam = AdamState(table)
    step = config.resolved_batch_size(len(triples)) * config.negatives
    mean_losses = []
    for _ in range(config.epochs):
        pos = np.repeat(triples[shuffle_rng.permutation(len(triples))], config.negatives, axis=0)
        neg, _ = negative_samples(pos, vocab.entity_ids, index, sample_rng)
        loss_sum = 0.0
        for start in range(0, len(pos), step):
            grad, losses = pair_grad_batch(table, pos[start:start + step], neg[start:start + step])
            adam_step(table, adam, grad, config.learning_rate)
            if config.model.model == "transh":
                renormalize_normals(table, grad.normal_slots)
            loss_sum += float(losses.sum())
        if config.model.model == "transe":
            renormalize_entities(table, vocab)
        mean_losses.append(loss_sum / len(pos))
    return table, mean_losses


@pytest.mark.parametrize("model,norm,complex_reg,unify,negatives,batch_size", [
    ("transe", "l1", 1e-3, True, 1, 7),
    ("transe", "l2", 1e-3, False, 3, 7),
    ("transh", "l1", 1e-3, False, 1, 7),
    ("transh", "l2", 1e-3, True, 3, 7),
    ("complex", "l2", 0.0, True, 1, 7),
    ("complex", "l2", 1e-2, False, 1, 7),
    ("complex", "l2", 1e-2, True, 3, 7),
    ("transh", "l2", 1e-3, True, 1, 1),
    ("complex", "l2", 1e-2, True, 1, 1),
])
def test_planned_epochs_equal_per_batch_steps(tmp_path, monkeypatch, model, norm, complex_reg, unify, negatives,
                                              batch_size):
    # 30 triples: in batches of 7, every epoch ends in a ragged batch of 2.
    # train() plans two batches per window in blocks of 10 terms, so windows
    # and blocks are both cut; the per-batch loop plans one batch at a time
    # in full-size blocks. Archive bytes and losses must agree.
    # Batches of one pair are the case where reshaping the planner's ids
    # needs no copy, so a plan must not write into its id arrays.
    raws = random_graph(np.random.default_rng(8), n_entities=10, n_relations=3, n_triples=30, property_nodes=True)
    vocab = build_vocabulary(raws, unify=unify)
    triples = intern(raws, vocab).triples
    cfg = small_config(model=ModelConfig(model=model, dim=4, norm=norm, complex_reg=complex_reg),
                       epochs=4, batch_size=batch_size, negatives=negatives)
    paths = [tmp_path / "planned.kgeu", tmp_path / "per-batch.kgeu"]
    with monkeypatch.context() as m:
        m.setattr(kgeu.models, "PLAN_TERMS", 2 * 6 * batch_size * negatives)
        m.setattr(kgeu.models, "BLOCK_BYTES", 10 * 8 * cfg.model.width)
        result = train(triples, vocab, cfg)
    table, mean_losses = per_batch_training(triples, vocab, cfg)
    save(result.table, vocab, cfg, paths[0])
    save(table, vocab, cfg, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert [s.mean_loss for s in result.log] == mean_losses


def test_train_draws_each_epochs_negatives_at_once(monkeypatch):
    # every p-fact over the entities e0..e2 is known, so corrupting one hits
    # the cap, while the q-facts' corruptions escape
    raws = [RawTriple(f"e{i}", "p", f"e{j}") for i in range(3) for j in range(3)]
    raws += [RawTriple("e0", "q", "e1"), RawTriple("e2", "q", "e0")]
    vocab = build_vocabulary(raws, unify=True)
    triples = intern(raws, vocab).triples
    index = TripleIndex(triples)
    calls = []

    def recording(pos, entities, idx, rng):
        neg, capped = negative_samples(pos, entities, idx, rng)
        calls.append((len(pos), neg, capped))
        return neg, capped

    monkeypatch.setattr(kgeu.trainer, "negative_samples", recording)
    result = train(triples, vocab, small_config(epochs=3, batch_size=4, negatives=2))
    assert [rows for rows, _, _ in calls] == [2 * len(triples)] * 3
    assert result.rejection_cap_hits == sum(capped for _, _, capped in calls) > 0
    for _, neg, capped in calls:  # exactly the capped rows are still known triples
        assert np.count_nonzero(index.contains(neg)) == capped


def test_train_seed_changes_result(bilingual_vocab, bilingual_triples):
    a = train(bilingual_triples, bilingual_vocab, small_config(seed=0))
    b = train(bilingual_triples, bilingual_vocab, small_config(seed=1))
    assert not np.array_equal(a.table.node_vectors, b.table.node_vectors)


@pytest.mark.parametrize("model,check", [
    ("transe", "entities"),
    ("transh", "normals"),
])
def test_train_maintains_constraints(bilingual_vocab, bilingual_triples, model, check):
    cfg = small_config(model=ModelConfig(model=model, dim=8), epochs=25)
    result = train(bilingual_triples, bilingual_vocab, cfg)
    if check == "entities":
        norms = np.linalg.norm(result.table.node_vectors[bilingual_vocab.entity_ids], axis=1)
    else:
        norms = np.linalg.norm(result.table.relation_normals, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)


def test_train_all_models_learn(bilingual_vocab, bilingual_triples):
    for model in ("transe", "transh", "complex"):
        cfg = small_config(model=ModelConfig(model=model, dim=8), epochs=60, learning_rate=0.05)
        result = train(bilingual_triples, bilingual_vocab, cfg)
        assert result.table.all_finite()
        assert result.log[-1].mean_loss < result.log[0].mean_loss


def test_train_log_format(bilingual_vocab, bilingual_triples):
    result = train(bilingual_triples, bilingual_vocab, small_config(epochs=3))
    lines = result.log_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines, start=1):
        epoch, loss, wall = line.split("\t")
        assert int(epoch) == i
        float(loss), float(wall)


def test_unified_rows_stay_identical_through_training(bilingual_raws):
    vocab = build_vocabulary(bilingual_raws, unify=True)
    triples = intern(bilingual_raws, vocab).triples
    result = train(triples, vocab, small_config(epochs=50))
    for _, eid, pid in vocab.shared_terms():
        assert np.array_equal(result.table.node_vectors[eid], result.table.node_vectors[pid])


def test_saturated_graph_loss_stays_near_margin():
    # positives and negatives are drawn from the same saturated fact set
    # (self-loops included so no corruption can escape), so the hinge
    # cannot separate them and the mean loss hugs the margin
    raws = [RawTriple(f"e{i}", "p", f"e{j}") for i in range(4) for j in range(4)]
    vocab = build_vocabulary(raws, unify=True)
    triples = intern(raws, vocab).triples
    cfg = small_config(epochs=40, learning_rate=0.01)
    result = train(triples, vocab, cfg)
    assert result.rejection_cap_hits > 0
    mean_loss = np.mean([s.mean_loss for s in result.log])
    assert cfg.model.margin - 0.45 < mean_loss < cfg.model.margin + 0.45


def test_full_batch_default_and_explicit_batching(bilingual_vocab, bilingual_triples):
    assert small_config().resolved_batch_size(4_342) == 4_342
    assert small_config().resolved_batch_size(50_000) == 512
    cfg = small_config(epochs=10, batch_size=2)
    result = train(bilingual_triples, bilingual_vocab, cfg)
    assert result.table.all_finite()


def test_negatives_per_positive(bilingual_vocab, bilingual_triples):
    cfg = small_config(epochs=5, negatives=3)
    result = train(bilingual_triples, bilingual_vocab, cfg)
    assert result.table.all_finite()


def test_loss_trend_loosely_monotone(bilingual_vocab, bilingual_triples):
    # after a warm-up, successive 50-epoch loss windows do not increase
    # (stochastic, so compared as window means with a small slack)
    cfg = small_config(epochs=500, learning_rate=0.01)
    result = train(bilingual_triples, bilingual_vocab, cfg)
    losses = np.array([s.mean_loss for s in result.log])
    windows = losses[100:].reshape(-1, 50).mean(axis=1)
    for earlier, later in zip(windows, windows[1:]):
        assert later <= earlier + 0.05
