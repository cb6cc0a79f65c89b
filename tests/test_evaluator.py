import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgeu import (
    EvalConfig,
    InvalidConfigError,
    ModelConfig,
    RawTriple,
    TrainConfig,
    TripleIndex,
    TrueAnswerNotCandidateError,
    build_vocabulary,
    candidate_set,
    evaluate,
    init_embeddings,
    intern,
    load,
    model_label,
    render_report_table,
    save,
    score_batch,
    summarize_reports,
)
from kgeu.evaluator import QUERY_CHUNK, DirectionStats, _chunk_ranks, _stats
from kgeu.models import SCREEN_NORM_LIMIT, CandidateScreen, EmbeddingTable
from conftest import oracle_score, random_graph, rank, reference_rank


# ---------------------------------------------------------------------------
# Independent brute-force oracle: nested loops, no index, scores recomputed
# from the raw table with plain arithmetic (conftest.oracle_score).
# ---------------------------------------------------------------------------

def oracle_rank(table, all_triples, t, direction, candidates, filtered):
    s, p, o = t
    true_id = s if direction == "head" else o
    true_score = oracle_score(table, *t)
    better_or_tied = 0
    for c in candidates:
        c = int(c)
        if c == true_id:
            continue
        cand = (c, p, o) if direction == "head" else (s, p, c)
        if filtered and cand in all_triples:  # linear scan, no index
            continue
        if oracle_score(table, *cand) >= true_score:
            better_or_tied += 1
    return 1 + better_or_tied


def oracle_evaluate(table, test_triples, all_triples, candidates, k):
    ranks = {"raw": [], "filtered": []}
    per_triple = []
    for t in test_triples:
        for direction in ("head", "tail"):
            r_raw = oracle_rank(table, all_triples, t, direction, candidates, filtered=False)
            r_filt = oracle_rank(table, all_triples, t, direction, candidates, filtered=True)
            ranks["raw"].append(r_raw)
            ranks["filtered"].append(r_filt)
            per_triple.append((t, direction, r_raw, r_filt))
    mean = lambda xs: sum(xs) / len(xs)
    hits = lambda xs: 100.0 * sum(1 for r in xs if r <= k) / len(xs)
    return mean(ranks["raw"]), mean(ranks["filtered"]), hits(ranks["raw"]), hits(ranks["filtered"]), per_triple


def build_random_model(rng, raws, model="transe", unify=True, dim=6):
    vocab = build_vocabulary(raws, unify=unify)
    cfg = ModelConfig(model=model, dim=dim, norm="l1" if rng.random() < 0.5 else "l2")
    table = init_embeddings(cfg, vocab, rng)
    table.node_vectors[:] = rng.normal(0.0, 1.0, table.node_vectors.shape)
    if table.relation_normals is not None:
        w = rng.normal(size=table.relation_normals.shape)
        table.relation_normals[:] = w / np.linalg.norm(w, axis=1, keepdims=True)
    triples = intern(raws, vocab).triples
    return vocab, table, triples


# ---------------------------------------------------------------------------
# Candidate sets
# ---------------------------------------------------------------------------

def test_candidates_include_shared_exclude_pure_properties(bilingual_vocab):
    cands = candidate_set(bilingual_vocab)
    assert len(cands) == 6
    assert bilingual_vocab.property_id("ex:birthplace") in cands
    assert bilingual_vocab.property_id("ex:shusshin") in cands
    assert bilingual_vocab.property_id("ex:honyaku") not in cands
    assert np.all(np.diff(cands) > 0)


def test_candidates_same_under_both_policies_without_overlap():
    raws = [RawTriple("a", "p", "b"), RawTriple("c", "q", "a")]
    vocab = build_vocabulary(raws, unify=True)
    a = candidate_set(vocab, "entities-only")
    b = candidate_set(vocab, "entities-plus-shared-properties")
    assert np.array_equal(a, b)
    assert np.array_equal(a, vocab.entity_ids)


def test_candidates_extended_policy_non_unified(bilingual_raws):
    vocab = build_vocabulary(bilingual_raws, unify=False)
    plain = candidate_set(vocab, "entities-only")
    extended = candidate_set(vocab, "entities-plus-shared-properties")
    assert len(extended) == len(plain) + 2  # the two dual-role property ids


# ---------------------------------------------------------------------------
# rank()
# ---------------------------------------------------------------------------

def scores_table(values):
    """transe d=1 table where candidate i scores -|values[i]|; the query
    is (s=len, p=len+1, candidate)."""
    n = len(values)
    nodes = np.zeros((n + 2, 1))
    nodes[:n, 0] = values
    cfg = ModelConfig(model="transe", dim=1)
    return EmbeddingTable(cfg, nodes, None, np.array([n + 1], dtype=np.int64))


def test_rank_strictly_best_is_one():
    table = scores_table([0.5, 1.0, 2.0, 3.0, 4.0])
    candidates = np.arange(5, dtype=np.int64)
    r = rank(table, (5, 6, 0), "tail", candidates, TripleIndex(), filtered=False)
    assert r == 1


def test_rank_third_best_no_collisions():
    table = scores_table([0.1, 0.2, 0.3, 0.4, 0.5])
    candidates = np.arange(5, dtype=np.int64)
    t = (5, 6, 2)
    index = TripleIndex([t])
    assert rank(table, t, "tail", candidates, index, filtered=False) == 3
    assert rank(table, t, "tail", candidates, index, filtered=True) == 3


def test_rank_filtered_removes_known_better_candidates():
    table = scores_table([0.1, 0.2, 0.3, 0.4, 0.5])
    candidates = np.arange(5, dtype=np.int64)
    t = (5, 6, 2)
    index = TripleIndex([t, (5, 6, 0), (5, 6, 1)])
    assert rank(table, t, "tail", candidates, index, filtered=False) == 3
    assert rank(table, t, "tail", candidates, index, filtered=True) == 1


def test_rank_true_answer_missing():
    table = scores_table([0.1, 0.2])
    with pytest.raises(TrueAnswerNotCandidateError):
        rank(table, (2, 3, 2), "tail", np.array([0, 1]), TripleIndex(), filtered=False)


def test_constant_scorer_gets_worst_case_rank(bilingual_vocab, bilingual_triples):
    cfg = ModelConfig(model="transe", dim=4)
    table = EmbeddingTable(cfg, np.zeros((len(bilingual_vocab), 4)), None, bilingual_vocab.property_ids)
    index = TripleIndex(bilingual_triples)
    report = evaluate(table, bilingual_triples, bilingual_vocab, index, EvalConfig())
    assert report.mean_rank_raw == len(candidate_set(bilingual_vocab))


def test_exact_l1_screen_decides_ties_without_rescoring(bilingual_vocab, bilingual_triples, monkeypatch):
    cfg = ModelConfig(model="transe", dim=4, norm="l1")
    table = EmbeddingTable(cfg, np.zeros((len(bilingual_vocab), 4)), None, bilingual_vocab.property_ids)
    scored = []

    def counting_score_batch(table, ids):
        scored.append(len(ids))
        return score_batch(table, ids)

    monkeypatch.setattr("kgeu.evaluator.score_batch", counting_score_batch)
    report = evaluate(table, bilingual_triples, bilingual_vocab, TripleIndex(bilingual_triples), EvalConfig())
    assert report.mean_rank_raw == len(candidate_set(bilingual_vocab))
    assert sum(scored) == len(bilingual_triples)  # the true scores only: every tie was decided


def test_perfect_single_triple_report():
    raws = [RawTriple("a", "p", "b"), RawTriple("c", "p", "d")]
    vocab = build_vocabulary(raws, unify=True)
    triples = intern(raws, vocab).triples
    nodes = np.zeros((len(vocab), 2))
    nodes[vocab.entity_id("a")] = (0.0, 0.0)
    nodes[vocab.property_id("p")] = (1.0, 0.0)
    nodes[vocab.entity_id("b")] = (1.0, 0.0)
    nodes[vocab.entity_id("c")] = (5.0, 5.0)
    nodes[vocab.entity_id("d")] = (-7.0, 3.0)
    table = EmbeddingTable(ModelConfig(model="transe", dim=2), nodes, None, vocab.property_ids)
    report = evaluate(table, triples[:1], vocab, TripleIndex(triples), EvalConfig())
    assert report.mean_rank_raw == 1.0
    assert report.hits_raw == 100.0
    assert report.n_triples == 1


@given(
    # coarse grid keeps distinct scores distinct after the transform
    # (float rounding would otherwise merge values and change tie sets)
    st.lists(st.integers(min_value=-100_000, max_value=100_000), min_size=2, max_size=30, unique=True),
    st.integers(min_value=0, max_value=29),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=-10, max_value=10),
)
@settings(max_examples=80)
def test_rank_invariant_under_increasing_transforms(grid, true_pos, scale, shift):
    scores = np.array(grid) / 1000.0
    true_pos = true_pos % len(scores)
    base = reference_rank(scores, true_pos)
    assert reference_rank(scale * scores + shift, true_pos) == base


# ---------------------------------------------------------------------------
# evaluate() against the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_evaluate_matches_oracle(model):
    rng = np.random.default_rng(20)
    raws = random_graph(rng, n_entities=14, n_relations=3, n_triples=200, property_nodes=True)
    vocab, table, triples = build_random_model(rng, raws, model=model)
    test_triples = triples[::3]
    assert len(test_triples) > QUERY_CHUNK
    index = TripleIndex(triples)
    candidates = candidate_set(vocab)
    config = EvalConfig(hits_k=5)
    report = evaluate(table, test_triples, vocab, index, config)
    mr_raw, mr_filt, h_raw, h_filt, per_triple = oracle_evaluate(
        table, test_triples, set(map(tuple, triples)), candidates, k=5
    )
    assert report.mean_rank_raw == pytest.approx(mr_raw)
    assert report.mean_rank_filtered == pytest.approx(mr_filt)
    assert report.hits_raw == pytest.approx(h_raw)
    assert report.hits_filtered == pytest.approx(h_filt)
    for t, direction, r_raw, r_filt in per_triple:
        assert rank(table, t, direction, candidates, index, filtered=False) == r_raw
        assert rank(table, t, direction, candidates, index, filtered=True) == r_filt
        assert r_filt <= r_raw


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_evaluate_ranks_equal_score_batch_ranks_under_ties(model):
    # embeddings on a 3-value grid make many candidates score exactly or
    # nearly alike; the chunked scorer must decide every such comparison
    # as the per-query score_batch scores do, in every chunk
    rng = np.random.default_rng(24)
    raws = random_graph(rng, n_entities=30, n_relations=3, n_triples=2 * QUERY_CHUNK + 5)
    vocab, table, triples = build_random_model(rng, raws, model=model, dim=2)
    table.node_vectors[:] = rng.choice([-0.3, 0.1, 0.7], table.node_vectors.shape)
    index = TripleIndex(triples)
    candidates = candidate_set(vocab)
    c = len(candidates)
    raw, filt, ties = [], [], 0
    for direction in ("head", "tail"):
        for t in triples:
            s, p, o = t
            if direction == "head":
                scores = score_batch(table, np.stack([candidates, np.full(c, p), np.full(c, o)], axis=1))
                known = {xs for xs, xp, xo in triples if (xp, xo) == (p, o)} - {s}
            else:
                scores = score_batch(table, np.stack([np.full(c, s), np.full(c, p), candidates], axis=1))
                known = {xo for xs, xp, xo in triples if (xs, xp) == (s, p)} - {o}
            true_pos = int(np.searchsorted(candidates, s if direction == "head" else o))
            ties += np.count_nonzero(scores == scores[true_pos]) - 1
            raw.append(reference_rank(scores, true_pos))
            filt.append(reference_rank(scores, true_pos, np.isin(candidates, list(known))))
            assert rank(table, t, direction, candidates, index, filtered=False) == raw[-1]
            assert rank(table, t, direction, candidates, index, filtered=True) == filt[-1]
    assert ties > len(raw) // 2  # a tie per two queries at least
    report = evaluate(table, triples, vocab, index, EvalConfig())
    assert report.mean_rank_raw == float(np.mean(raw))
    assert report.mean_rank_filtered == float(np.mean(filt))


def adversarial_model(model, norm, unify):
    """A random graph whose table defeats any fixed error band: duplicated
    and 1-ulp-apart candidate rows, all-zero rows, rows whose norm exceeds
    the screen's limit or whose squared norm overflows, nan and inf rows,
    and for transh hyperplane normals of norm other than 1."""
    rng = np.random.default_rng(31)
    raws = random_graph(rng, n_entities=26, n_relations=3, n_triples=QUERY_CHUNK + 20, property_nodes=True)
    vocab = build_vocabulary(raws, unify=unify)
    table = init_embeddings(ModelConfig(model=model, dim=3, norm=norm), vocab, rng)
    nodes = table.node_vectors
    nodes[:] = rng.normal(size=nodes.shape)
    e = [vocab.entity_id(f"e{i}") for i in range(26)]
    for dup, src in ((1, 0), (3, 2), (5, 4)):
        nodes[e[dup]] = nodes[e[src]]
    for near, src in ((6, 7), (8, 9), (10, 11), (12, 13)):
        nodes[e[near]] = np.nextafter(nodes[e[src]], np.inf if near % 4 else -np.inf)
    nodes[e[14], 0] = np.nextafter(nodes[e[15], 0], np.inf)
    nodes[e[14], 1:] = nodes[e[15], 1:]
    nodes[e[16]] = 0.0
    nodes[e[17]] *= 1e150                 # norm beyond the screen's limit
    nodes[e[18]] *= 1e160                 # squared norm overflows
    nodes[e[19], 0] = np.nan
    nodes[e[20], -1] = np.inf
    nodes[e[21], 0] = -np.inf
    if table.relation_normals is not None:
        table.relation_normals *= rng.uniform(0.2, 3.0, size=(len(table.relation_normals), 1))
    return vocab, table, intern(raws, vocab).triples


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("directions", [("head",), ("tail",), ("head", "tail")], ids="-".join)
@pytest.mark.parametrize("policy", ["entities-only", "entities-plus-shared-properties"])
@pytest.mark.parametrize("unify", [True, False])
def test_screened_ranks_equal_score_batch_ranks_on_adversarial_tables(model, norm, directions, policy, unify):
    vocab, table, triples = adversarial_model(model, norm, unify)
    index = TripleIndex(triples)
    candidates = candidate_set(vocab, policy)
    screen = CandidateScreen(table, candidates)
    c = len(candidates)
    ties = 0
    for n in (1, QUERY_CHUNK + 3):
        chunk = triples[:n]
        raw, filt = _chunk_ranks(screen, np.array(chunk), directions, index)
        assert raw.shape == filt.shape == (len(directions), n)
        for k, direction in enumerate(directions):
            for i, t in enumerate(chunk):
                s, p, o = t
                if direction == "head":
                    scores = score_batch(table, np.stack([candidates, np.full(c, p), np.full(c, o)], axis=1))
                    known = {xs for xs, xp, xo in triples if (xp, xo) == (p, o)} - {s}
                else:
                    scores = score_batch(table, np.stack([np.full(c, s), np.full(c, p), candidates], axis=1))
                    known = {xo for xs, xp, xo in triples if (xs, xp) == (s, p)} - {o}
                true_pos = int(np.searchsorted(candidates, s if direction == "head" else o))
                ties += np.count_nonzero(np.isfinite(scores) & (scores == scores[true_pos])) - 1
                assert raw[k, i] == reference_rank(scores, true_pos)
                assert filt[k, i] == reference_rank(scores, true_pos, np.isin(candidates, list(known)))
    assert ties > 0  # finite exact ties lie inside every band, so rescoring ran


def test_screen_rescores_where_the_bitwise_path_overflows():
    # Predicting the head, score_batch multiplies x by r first (inf - inf,
    # so nan) while the product multiplies r by o first (finite): x is
    # outside every proof and must be rescored, not counted.
    raws = [RawTriple("s", "r", "o"), RawTriple("x", "r", "o")]
    vocab = build_vocabulary(raws, unify=True)
    table = init_embeddings(ModelConfig(model="complex", dim=1), vocab, np.random.default_rng(0))
    s, o, x = (vocab.entity_id(t) for t in "sox")
    r = vocab.property_id("r")
    table.node_vectors[[s, r, o, x]] = [[1.0, 0.0], [1e300, 1e300], [1e-300, 1e-300], [2.0 ** 31, 2.0 ** 31]]
    candidates = candidate_set(vocab)
    c = len(candidates)
    scores = score_batch(table, np.stack([candidates, np.full(c, r), np.full(c, o)], axis=1))
    true_pos = int(np.searchsorted(candidates, s))
    raw, _ = _chunk_ranks(CandidateScreen(table, candidates), np.array([[s, r, o]] * 4), ("head",), TripleIndex())
    assert np.isnan(scores[np.searchsorted(candidates, x)])
    assert list(raw[0]) == [reference_rank(scores, true_pos)] * 4


def score_batch_ranks(table, t, direction, candidates, triples):
    """Raw and filtered rank of the true answer of `t` in `direction`, from
    score_batch and reference_rank; the filter is `triples`."""
    s, p, o = t
    c = len(candidates)
    if direction == "head":
        scores = score_batch(table, np.stack([candidates, np.full(c, p), np.full(c, o)], axis=1))
        known = {xs for xs, xp, xo in triples if (xp, xo) == (p, o)} - {s}
    else:
        scores = score_batch(table, np.stack([np.full(c, s), np.full(c, p), candidates], axis=1))
        known = {xo for xs, xp, xo in triples if (xs, xp) == (s, p)} - {o}
    true_pos = int(np.searchsorted(candidates, s if direction == "head" else o))
    return reference_rank(scores, true_pos), reference_rank(scores, true_pos, np.isin(candidates, list(known)))


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_a_wild_candidate_row_costs_only_its_own_column(model, monkeypatch):
    # The candidate rows lie within 1e-6 of one row, so a bound widened for
    # the wild rows (one at 1e6 times the others' norm, one past
    # SCREEN_NORM_LIMIT) would place almost none of them. Only the wild
    # columns and exact ties (a duplicated true answer) may be rescored.
    rng = np.random.default_rng(44)
    raws = random_graph(rng, n_entities=40, n_relations=3, n_triples=80)
    vocab, table, triples = build_random_model(rng, raws, model=model, dim=50)
    table.config = ModelConfig(model=model, dim=50, norm="l2")
    nodes = table.node_vectors
    ent = vocab.entity_ids
    nodes[ent] = rng.normal(size=nodes.shape[1]) + 1e-6 * rng.normal(size=(len(ent), nodes.shape[1]))
    wild = ent[:2]
    nodes[wild[0]] *= 1e6
    nodes[wild[1]] *= 1e11
    assert 1e6 * np.linalg.norm(nodes[ent[2]]) < SCREEN_NORM_LIMIT < np.linalg.norm(nodes[wild[1]])
    chunk = np.array([t for t in triples if not np.isin(t, wild).any()][:QUERY_CHUNK])
    nodes[ent[2]] = nodes[chunk[0, 2]]    # ties the true tail of chunk[0]
    candidates = candidate_set(vocab)
    table.node_vectors.flags.writeable = False
    calls = []

    def recording_score_batch(table, ids):
        calls.append(np.array(ids))
        return score_batch(table, ids)

    monkeypatch.setattr("kgeu.evaluator.score_batch", recording_score_batch)
    directions = ("head", "tail")
    raw, filt = _chunk_ranks(CandidateScreen(table, candidates), chunk, directions, TripleIndex(triples))
    monkeypatch.undo()
    expected, ties = [], 0
    for k, direction in enumerate(directions):
        slot = 0 if direction == "head" else 2
        for i, t in enumerate(chunk):
            assert (raw[k, i], filt[k, i]) == score_batch_ranks(table, t, direction, candidates, triples)
            completions = np.repeat(t[None], len(candidates), axis=0)
            completions[:, slot] = candidates
            scores = score_batch(table, completions)
            tied = scores == score_batch(table, t[None])[0]
            ties += np.count_nonzero(tied) - 1
            pick = (np.isin(candidates, wild) | tied) & (candidates != t[slot])
            expected += map(tuple, completions[pick].tolist())
    rescored = np.concatenate(calls[1:]) if len(calls) > 1 else np.empty((0, 3), dtype=np.int64)
    assert ties > 0
    assert sorted(map(tuple, rescored.tolist())) == sorted(expected)


@given(
    st.sampled_from(["transe", "transh", "complex"]),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.lists(st.sampled_from([1e-150, 1e-8, 1.0, 1e6, 2.0 ** 31, 2.0 ** 33, 1e150]), min_size=1, max_size=3),
    st.sampled_from([("head",), ("tail",), ("head", "tail")]),
    st.sampled_from([1, QUERY_CHUNK + 2]),
)
@settings(max_examples=40, deadline=None)
def test_screened_ranks_equal_score_batch_ranks_at_any_row_scale(model, seed, scales, directions, n):
    rng = np.random.default_rng(seed)
    raws = random_graph(rng, n_entities=10, n_relations=2, n_triples=25, property_nodes=True)
    vocab, table, triples = build_random_model(rng, raws, model=model, dim=3)
    table.config = ModelConfig(model=model, dim=3, norm="l2")
    nodes = table.node_vectors
    nodes *= rng.choice(scales, size=(len(nodes), 1))
    a, b, c, d = rng.choice(len(nodes), size=4, replace=False)
    nodes[a] = nodes[b]                                  # duplicated rows
    nodes[c] = np.nextafter(nodes[d], np.inf)            # rows 1 ulp apart
    chunk = np.array(triples)[rng.integers(len(triples), size=n)]
    candidates = candidate_set(vocab)
    raw, filt = _chunk_ranks(CandidateScreen(table, candidates), chunk, directions, TripleIndex(triples))
    for k, direction in enumerate(directions):
        for i, t in enumerate(chunk):
            assert (raw[k, i], filt[k, i]) == score_batch_ranks(table, t, direction, candidates, triples)


def score_batch_mean_ranks(table, triples, candidates):
    """Raw and filtered MeanRank over the head and tail of every triple, from
    score_batch and reference_rank; the filter is `triples` itself."""
    raw, filt = zip(*(score_batch_ranks(table, t, direction, candidates, triples)
                      for direction in ("head", "tail") for t in triples))
    return float(np.mean(raw)), float(np.mean(filt))


def spread_rows(table, rng):
    """Rescale every node row by its own factor in [0.1, 10], so each
    squared norm moves far from the old one, and the last row 1e4 times
    further, so the screen finds it wild."""
    factors = rng.uniform(0.1, 10.0, size=(len(table.node_vectors), 1))
    factors[-1] *= 1e4
    return table.node_vectors * factors


def assert_fresh_screen_norms(table):
    """The table's screen norms (squared norms, wild ids and cap) are those
    of a new table over a copy of its rows, and the last row is wild."""
    sq, wild, cap = table.screen_norms()
    nodes = table.node_vectors
    fresh = EmbeddingTable(table.config, nodes.copy(), table.relation_normals, table.property_ids)
    assert np.array_equal(sq, np.einsum("ij,ij->i", nodes, nodes))
    assert np.array_equal(wild, fresh.screen_norms()[1]) and list(wild) == [len(nodes) - 1]
    assert cap == fresh.screen_norms()[2] == np.sqrt(sq[:-1].max())


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_evaluate_sees_in_place_changes_to_a_writeable_table(model):
    rng = np.random.default_rng(41)
    raws = random_graph(rng, n_entities=20, n_relations=3, n_triples=60)
    vocab, table, triples = build_random_model(rng, raws, model=model)
    table.config = ModelConfig(model=model, dim=6, norm="l2")  # the screened path
    index = TripleIndex(triples)
    candidates = candidate_set(vocab)
    before = evaluate(table, triples, vocab, index)
    assert (before.mean_rank_raw, before.mean_rank_filtered) == score_batch_mean_ranks(table, triples, candidates)
    assert len(table.screen_norms()[1]) == 0
    table.node_vectors[:] = spread_rows(table, rng)  # same array, new values
    assert_fresh_screen_norms(table)
    after = evaluate(table, triples, vocab, index)
    assert (after.mean_rank_raw, after.mean_rank_filtered) == score_batch_mean_ranks(table, triples, candidates)
    assert after.mean_rank_raw != before.mean_rank_raw


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_replacing_node_vectors_of_a_loaded_table_drops_its_cached_norms(tmp_path, model):
    rng = np.random.default_rng(42)
    raws = random_graph(rng, n_entities=20, n_relations=3, n_triples=60)
    vocab, table, triples = build_random_model(rng, raws, model=model)
    cfg = TrainConfig(model=ModelConfig(model=model, dim=6, norm="l2"))
    save(EmbeddingTable(cfg.model, table.node_vectors, table.relation_normals, table.property_ids),
         vocab, cfg, tmp_path / "model.kgeu")
    loaded, vocab, _ = load(tmp_path / "model.kgeu")
    index = TripleIndex(triples)
    candidates = candidate_set(vocab)
    before = evaluate(loaded, triples, vocab, index)  # caches the norms of the loaded array
    assert (before.mean_rank_raw, before.mean_rank_filtered) == score_batch_mean_ranks(loaded, triples, candidates)
    assert len(loaded.screen_norms()[1]) == 0
    for writeable in (False, True):
        other = spread_rows(loaded, rng)
        other.flags.writeable = writeable
        loaded.node_vectors = other
        assert_fresh_screen_norms(loaded)
        after = evaluate(loaded, triples, vocab, index)
        assert (after.mean_rank_raw, after.mean_rank_filtered) == score_batch_mean_ranks(loaded, triples, candidates)
        assert after.mean_rank_raw != before.mean_rank_raw


def test_report_invariants_and_json(bilingual_vocab, bilingual_triples):
    rng = np.random.default_rng(21)
    cfg = ModelConfig(model="transe", dim=4)
    table = init_embeddings(cfg, bilingual_vocab, rng)
    index = TripleIndex(bilingual_triples)
    report = evaluate(table, bilingual_triples, bilingual_vocab, index, EvalConfig())
    assert report.mean_rank_filtered <= report.mean_rank_raw
    assert report.hits_filtered >= report.hits_raw
    payload = report.to_dict()
    assert payload["tie_break"] == "pessimistic"
    assert payload["per_direction"]["head"] == vars(report.head)
    assert "head" not in payload and "tail" not in payload
    assert json.loads(json.dumps(payload)) == payload  # plain JSON values


def test_render_table_one_decimal():
    rng = np.random.default_rng(22)
    raws = random_graph(rng, 6, 2, 10)
    vocab, table, triples = build_random_model(rng, raws)
    report = evaluate(table, triples, vocab, TripleIndex(triples), EvalConfig())
    text = render_report_table([("TransU(TransE)", report)])
    lines = text.splitlines()
    assert lines[0].startswith("Model")
    assert "MeanRank(Raw)" in lines[0] and "Hit@10(Filter)" in lines[0]
    assert lines[1].startswith("TransU(TransE)")
    cells = lines[1].split()
    assert all("." in c and len(c.split(".")[1]) == 1 for c in cells[1:])


def test_model_labels():
    assert model_label("transe", False) == "TransE"
    assert model_label("transh", True) == "TransU(TransH)"
    assert model_label("complex", True) == "TransU(ComplEx)"


def test_summarize_reports():
    rng = np.random.default_rng(23)
    raws = random_graph(rng, 8, 2, 15)
    vocab, table, triples = build_random_model(rng, raws)
    index = TripleIndex(triples)
    r1 = evaluate(table, triples, vocab, index, EvalConfig())
    table.node_vectors[:] = rng.normal(size=table.node_vectors.shape)
    r2 = evaluate(table, triples, vocab, index, EvalConfig())
    avg, best = summarize_reports([r1, r2], hits_k=10)
    assert avg.mean_rank_filtered == pytest.approx((r1.mean_rank_filtered + r2.mean_rank_filtered) / 2)
    assert best.mean_rank_filtered == min(r1.mean_rank_filtered, r2.mean_rank_filtered)


def test_eval_config_invariants():
    for hits_k in (0, True, 2.5, "3"):
        with pytest.raises(InvalidConfigError):
            EvalConfig(hits_k=hits_k)
    with pytest.raises(InvalidConfigError):
        EvalConfig(candidate_policy="everything")
    with pytest.raises(InvalidConfigError):
        EvalConfig(directions=())


def test_stats_equal_the_float_mean_formula_bitwise():
    # integer sums and counts give the bits of the float64 means they replaced
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 5_001))
        top = int(rng.choice([10, 1_000, 2**31]))
        raw = rng.integers(1, top + 1, n)
        filt = np.maximum(1, raw - rng.integers(0, 3, n))
        k = int(rng.integers(1, 20))
        r, f = raw.astype(np.float64), filt.astype(np.float64)
        want = DirectionStats(float(r.mean()), float(f.mean()), float((r <= k).mean() * 100.0),
                              float((f <= k).mean() * 100.0))
        got = _stats(raw, filt, k)
        assert all(type(v) is float for v in vars(got).values())
        assert np.array_equal(np.array(list(vars(got).values())).view(np.int64),
                              np.array(list(vars(want).values())).view(np.int64))
