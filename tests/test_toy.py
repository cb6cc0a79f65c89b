import numpy as np
import pytest

from kgeu import InvalidSpecError, RawTriple, ToySpec, build_vocabulary, generate_toy
from kgeu.toy import TRANSLATION
from conftest import mini_bilingual


def terms_of(triples):
    return {term for t in triples for term in (t.subject, t.predicate, t.object)}


def test_mini_bilingual_shape():
    triples = mini_bilingual()
    assert len(triples) == 3
    assert triples[2].subject == "ex:birthplace"
    assert triples[2].object == "ex:shusshin"
    assert len(mini_bilingual(entity_links=True)) == 4


def test_single_fact_structure():
    spec = ToySpec(n_facts=1, n_entities=4, n_relations=1, translation_fraction=1.0,
                   holdout_fraction=1.0, seed=3)
    train, test = generate_toy(spec)
    assert len(test) == 1
    mirror = test[0]
    assert mirror.subject.startswith("l2:") and mirror.object.startswith("l2:")
    # original fact, property link, two entity links
    assert len(train) == 4
    assert sum(t.predicate == TRANSLATION for t in train) == 3
    assert RawTriple("l1:r0", TRANSLATION, "l2:r0") in train


def test_no_property_links_means_no_overlap():
    spec = ToySpec(n_facts=20, n_entities=10, n_relations=3, translation_fraction=0.0,
                   holdout_fraction=0.0, entity_links=False, seed=1)
    train, test = generate_toy(spec)
    assert test == []
    vocab = build_vocabulary(train, unify=True)
    assert len(vocab.shared_terms()) == 0


def test_property_links_create_overlap():
    spec = ToySpec(n_facts=30, n_entities=12, n_relations=4, translation_fraction=1.0, seed=2)
    train, _ = generate_toy(spec)
    vocab = build_vocabulary(train, unify=True)
    assert len(vocab.shared_terms()) > 0


def test_holdout_is_disjoint_and_covered():
    spec = ToySpec(n_facts=60, n_entities=20, n_relations=3, holdout_fraction=0.5, seed=4)
    train, test = generate_toy(spec)
    assert len(test) == 30
    assert set(test).isdisjoint(set(train))
    covered = terms_of(train)
    for t in test:
        assert {t.subject, t.predicate, t.object} <= covered


def test_coverage_repair_without_entity_links():
    # without entity links many mirrored terms appear only in held-out
    # facts; the generator must pull those back into training
    spec = ToySpec(n_facts=40, n_entities=25, n_relations=2, holdout_fraction=1.0,
                   entity_links=False, seed=5)
    train, test = generate_toy(spec)
    covered = terms_of(train)
    for t in test:
        assert {t.subject, t.predicate, t.object} <= covered
    assert set(test).isdisjoint(set(train))


def test_generation_deterministic():
    spec = ToySpec(seed=6)
    assert generate_toy(spec) == generate_toy(spec)
    other = ToySpec(seed=7)
    assert generate_toy(spec) != generate_toy(other)


def test_mirrored_originals_stay_in_training():
    spec = ToySpec(n_facts=50, n_entities=15, n_relations=2, holdout_fraction=0.4, seed=8)
    train, test = generate_toy(spec)
    train_set = set(train)
    for t in test:
        original = RawTriple(
            t.subject.replace("l2:", "l1:"),
            t.predicate.replace("l2:", "l1:"),
            t.object.replace("l2:", "l1:"),
        )
        assert original in train_set


def test_invalid_specs():
    with pytest.raises(InvalidSpecError):
        ToySpec(n_entities=1)
    with pytest.raises(InvalidSpecError):
        ToySpec(n_facts=0)
    with pytest.raises(InvalidSpecError):
        ToySpec(holdout_fraction=1.5)
    with pytest.raises(InvalidSpecError):
        ToySpec(n_facts=1000, n_entities=3, n_relations=1)
