"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `-v` alone still gives one pass/fail line per criterion via the
test names.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from kgeu import (
    EvalConfig,
    ModelConfig,
    RawTriple,
    TrainConfig,
    TripleIndex,
    build_vocabulary,
    candidate_set,
    evaluate,
    init_embeddings,
    intern,
    load,
    train,
)
from kgeu.cli import main
from kgeu.toy import ToySpec, generate_toy

from conftest import mini_bilingual, rank
from test_models import fd_gradient, max_rel_err, random_instance
from test_evaluator import build_random_model, oracle_evaluate


def _pass(n: int, msg: str) -> None:
    print(f"\n[acceptance] criterion {n}: PASS - {msg}")


# ---------------------------------------------------------------------------
# 1. Gradient oracle
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_oracle():
    started = time.monotonic()
    worst = 0.0
    for model in ("transe", "transh", "complex"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            table, vocab, pos, neg = random_instance(rng, model, dim=8)
            grad, node_fd, normal_fd = fd_gradient(table, pos, neg, h=1e-5)
            worst = max(worst, max_rel_err(grad.node_grads, node_fd))
            if normal_fd is not None:
                worst = max(worst, max_rel_err(grad.normal_grads, normal_fd))
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"worst relative error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _pass(1, f"3 models x 100 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Ranking oracle  /  3. Metric dominance
# ---------------------------------------------------------------------------

def _oracle_graphs():
    rng = np.random.default_rng(202)
    specs = []
    for i in range(20):
        n_ent = int(rng.integers(10, 51))
        n_rel = int(rng.integers(2, 6))
        n_tri = int(rng.integers(30, 301))
        n_tri = min(n_tri, n_ent * (n_ent - 1) * n_rel // 2)
        specs.append((n_ent, n_rel, n_tri, ["transe", "transh", "complex"][i % 3]))
    return rng, specs


def test_criterion_02_ranking_oracle():
    started = time.monotonic()
    rng, specs = _oracle_graphs()
    checked = 0
    for n_ent, n_rel, n_tri, model in specs:
        raws = []
        seen = set()
        while len(raws) < n_tri:
            s, o = rng.integers(n_ent, size=2)
            p = rng.integers(n_rel)
            if s == o or (s, p, o) in seen:
                continue
            seen.add((int(s), int(p), int(o)))
            raws.append(RawTriple(f"e{s}", f"r{p}", f"e{o}"))
        raws.append(RawTriple("r0", "r1", "e0"))  # a property as a node
        vocab, table, triples = build_random_model(rng, raws, model=model)
        test_triples = triples[::4]
        index = TripleIndex(triples)
        candidates = candidate_set(vocab)
        report = evaluate(table, test_triples, vocab, index, EvalConfig())
        # the oracle scans the full triple list: nested loops, no index
        mr_raw, mr_filt, h_raw, h_filt, per_triple = oracle_evaluate(
            table, test_triples, list(map(tuple, triples)), candidates, k=10
        )
        assert report.mean_rank_raw == pytest.approx(mr_raw)
        assert report.mean_rank_filtered == pytest.approx(mr_filt)
        for t, direction, r_raw, r_filt in per_triple:
            assert rank(table, t, direction, candidates, index, filtered=False) == r_raw
            assert rank(table, t, direction, candidates, index, filtered=True) == r_filt
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _pass(2, f"20 graphs, {checked} (triple, direction) ranks identical, {elapsed:.1f}s")


def test_criterion_03_metric_dominance():
    # across oracle graphs
    rng, specs = _oracle_graphs()
    pairs_checked = 0
    for n_ent, n_rel, n_tri, model in specs[:8]:
        raws = []
        seen = set()
        while len(raws) < min(n_tri, 120):
            s, o = rng.integers(n_ent, size=2)
            p = rng.integers(n_rel)
            if s == o or (s, p, o) in seen:
                continue
            seen.add((int(s), int(p), int(o)))
            raws.append(RawTriple(f"e{s}", f"r{p}", f"e{o}"))
        vocab, table, triples = build_random_model(rng, raws, model=model)
        index = TripleIndex(triples)
        candidates = candidate_set(vocab)
        for t in triples[::5]:
            for direction in ("head", "tail"):
                r_raw = rank(table, t, direction, candidates, index, filtered=False)
                r_filt = rank(table, t, direction, candidates, index, filtered=True)
                assert r_filt <= r_raw
                pairs_checked += 1
        report = evaluate(table, triples[::5], vocab, index, EvalConfig())
        assert report.mean_rank_filtered <= report.mean_rank_raw
        assert report.hits_filtered >= report.hits_raw

    # and across trained toy models, all three kinds
    spec = ToySpec(n_facts=40, n_entities=15, n_relations=3, seed=5)
    train_raws, test_raws = generate_toy(spec)
    vocab = build_vocabulary(train_raws, unify=True)
    triples = intern(train_raws, vocab).triples
    test_triples = intern(test_raws, vocab).triples
    index = TripleIndex(triples + test_triples)
    for model in ("transe", "transh", "complex"):
        cfg = TrainConfig(model=ModelConfig(model=model, dim=8), learning_rate=0.02,
                          epochs=80, seed=7)
        result = train(triples, vocab, cfg)
        report = evaluate(result.table, test_triples, vocab, index, EvalConfig())
        assert report.mean_rank_filtered <= report.mean_rank_raw
        assert report.hits_filtered >= report.hits_raw
    _pass(3, f"filtered <= raw for {pairs_checked} ranks and all trained-model reports")


# ---------------------------------------------------------------------------
# 4. Unified-row sharing invariant
# ---------------------------------------------------------------------------

def test_criterion_04_sharing_invariant(tmp_path):
    spec = ToySpec(n_facts=40, n_entities=15, n_relations=3, seed=11)
    train_raws, _ = generate_toy(spec)

    # unified + share always: one row per dual-role term, bitwise equal views
    vocab = build_vocabulary(train_raws, unify=True)
    triples = intern(train_raws, vocab).triples
    cfg = TrainConfig(model=ModelConfig(model="transe", dim=8), learning_rate=0.02,
                      epochs=60, seed=11, share="always")
    table = train(triples, vocab, cfg).table
    shared = vocab.shared_terms()
    assert shared
    for term, eid, pid in shared:
        assert eid == pid
        assert np.array_equal(table.node_vectors[eid], table.node_vectors[pid])

    # survives the archive round trip
    from kgeu import save
    path = tmp_path / "m.kgeu"
    save(table, vocab, cfg, path)
    table2, vocab2, _ = load(path)
    for term, eid, pid in vocab2.shared_terms():
        assert np.array_equal(table2.node_vectors[eid], table2.node_vectors[pid])

    # non-unified training on the miniature bilingual set: the two role
    # vectors start independent and stay different
    raws = mini_bilingual()
    vocab_split = build_vocabulary(raws, unify=False)
    triples_split = intern(raws, vocab_split).triples
    table_split = train(triples_split, vocab_split, cfg).table
    for term, eid, pid in vocab_split.shared_terms():
        assert not np.array_equal(table_split.node_vectors[eid], table_split.node_vectors[pid])

    # init-only sharing: rows start equal, then diverge in training
    cfg_init_only = TrainConfig(model=ModelConfig(model="complex", dim=8), learning_rate=0.02,
                                epochs=30, seed=11, share="init-only")
    table_io = train(triples_split, vocab_split, cfg_init_only).table
    for term, eid, pid in vocab_split.shared_terms():
        assert not np.array_equal(table_io.node_vectors[eid], table_io.node_vectors[pid])
    _pass(4, "shared rows bitwise identical under unify, distinct otherwise")


# ---------------------------------------------------------------------------
# 5. Bilingual toy: unified beats baseline
# ---------------------------------------------------------------------------

def test_criterion_05_toy_transfer():
    started = time.monotonic()
    spec = ToySpec(n_facts=120, n_entities=40, n_relations=4,
                   translation_fraction=1.0, holdout_fraction=0.5, seed=0)
    train_raws, test_raws = generate_toy(spec)
    model_cfg = ModelConfig(model="transe", dim=16, norm="l1", margin=2.0)

    def filtered_mean_rank(unify: bool, seed: int) -> float:
        vocab = build_vocabulary(train_raws, unify=unify)
        triples = intern(train_raws, vocab).triples
        cfg = TrainConfig(model=model_cfg, learning_rate=0.005, epochs=500,
                          batch_size=8, seed=seed)
        result = train(triples, vocab, cfg)
        test_triples = intern(test_raws, vocab).triples
        index = TripleIndex(triples + test_triples)
        return evaluate(result.table, test_triples, vocab, index, EvalConfig()).mean_rank_filtered

    unified = [filtered_mean_rank(True, seed) for seed in range(10)]
    baseline = [filtered_mean_rank(False, seed) for seed in range(10)]
    elapsed = time.monotonic() - started
    med_u, med_b = float(np.median(unified)), float(np.median(baseline))
    assert med_u < med_b, f"unified median {med_u:.2f} not below baseline {med_b:.2f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _pass(5, f"median filtered MeanRank {med_u:.1f} (unified) < {med_b:.1f} (baseline), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Pipeline determinism
# ---------------------------------------------------------------------------

def test_criterion_06_pipeline_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("KGEU_THREADS", "1")

    def pipeline(root: Path) -> dict[str, bytes]:
        root.mkdir()
        monkeypatch.chdir(root)
        assert main(["gen-toy", "--facts", "40", "--entities", "15", "--relations", "3",
                     "--seed", "1", "--out", "toy"]) == 0
        assert main(["train", "--model", "transe", "--dim", "8", "--epochs", "30",
                     "--lr", "0.02", "--seed", "1", "--out", "model.kgeu",
                     "toy/train.tsv"]) == 0
        assert main(["eval", "--train", "toy/train.tsv", "--out-json", "report.json",
                     "--out-text", "report.txt", "model.kgeu", "toy/test.tsv"]) == 0
        return {
            name: (root / name).read_bytes()
            for name in ("toy/train.tsv", "toy/test.tsv", "toy/manifest.json",
                         "model.kgeu", "model.kgeu.manifest.json",
                         "report.json", "report.txt")
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert first == second
    _pass(6, "two pipeline runs bitwise identical (archive, manifests, reports)")


# ---------------------------------------------------------------------------
# 7. Desk-scale throughput
# ---------------------------------------------------------------------------

def test_criterion_07_desk_scale_throughput():
    n_entities, n_properties, n_triples = 2234, 43, 4342
    rng = np.random.default_rng(77)
    raws = [RawTriple(f"e{i}", f"r{i % n_properties}", f"e{(i + 1) % n_entities}")
            for i in range(n_entities)]  # cycle covers every entity and property
    seen = {(t.subject, t.predicate, t.object) for t in raws}
    while len(raws) < n_triples:
        s, o = rng.integers(n_entities, size=2)
        p = rng.integers(n_properties)
        key = (f"e{s}", f"r{p}", f"e{o}")
        if s == o or key in seen:
            continue
        seen.add(key)
        raws.append(RawTriple(*key))
    vocab = build_vocabulary(raws, unify=True)
    triples = intern(raws, vocab).triples
    assert len(triples) == n_triples
    assert len(vocab.entity_ids) == n_entities
    assert len(vocab.property_ids) == n_properties

    cfg = TrainConfig(model=ModelConfig(model="transe", dim=200),
                      learning_rate=0.001, epochs=1000, seed=0)
    started = time.monotonic()
    result = train(triples, vocab, cfg)
    elapsed = time.monotonic() - started
    assert result.table.all_finite()
    assert result.log[-1].mean_loss < result.log[0].mean_loss
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _pass(7, f"{n_triples} triples, d=200, 1000 epochs in {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 8. Non-reproduction targets stated; benchmark smoke is opt-in
# ---------------------------------------------------------------------------

def test_criterion_08_non_targets_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "## Reproduction scope and non-targets" in readme
    for needle in ("FB15K", "speckled", "not"):
        assert needle in readme
    # the opt-in benchmark smoke is a separate module, skipped unless the
    # dataset directory is provided
    assert (Path(__file__).resolve().parent / "test_fb15k_smoke.py").exists()
    smoke_enabled = bool(os.environ.get("KGEU_FB15K_DIR"))
    _pass(8, "non-targets documented; benchmark smoke "
             + ("enabled" if smoke_enabled else "opt-in via KGEU_FB15K_DIR"))
