import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgeu import (
    EmptyDatasetError,
    FormatError,
    IndexOverflowError,
    RawTriple,
    TripleIndex,
    UnknownTermError,
    build_vocabulary,
    dataset_stats,
    dump_vocabulary,
    intern,
    parse_tsv,
    parse_vocabulary,
    write_tsv,
)
from kgeu.vocab import MAX_INDEX_IDS
from conftest import random_graph, reference_intern


def test_unified_vocabulary_shares_ids(bilingual_raws):
    vocab = build_vocabulary(bilingual_raws, unify=True)
    assert len(vocab) == 7
    assert len(vocab.entity_ids) == 6
    assert len(vocab.property_ids) == 3
    shared = {term for term, _, _ in vocab.shared_terms()}
    assert shared == {"ex:birthplace", "ex:shusshin"}
    for _, eid, pid in vocab.shared_terms():
        assert eid == pid


def test_non_unified_vocabulary_disjoint_ids(bilingual_raws):
    vocab = build_vocabulary(bilingual_raws, unify=False)
    assert len(vocab) == 9
    assert set(vocab.entity_ids) & set(vocab.property_ids) == set()
    for _, eid, pid in vocab.shared_terms():
        assert eid != pid


def test_no_overlap_case():
    vocab = build_vocabulary([RawTriple("a", "p", "b")], unify=True)
    assert len(vocab) == 3
    assert len(vocab.entity_ids) == 2
    assert len(vocab.property_ids) == 1


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        build_vocabulary([], unify=True)


def test_first_occurrence_order(bilingual_raws):
    vocab = build_vocabulary(bilingual_raws, unify=True)
    assert vocab.id_to_term == [
        "ex:A", "ex:birthplace", "ex:Spain", "ex:B", "ex:shusshin", "ex:Supein", "ex:honyaku",
    ]


def test_ids_dense_and_covered(bilingual_raws):
    for unify in (True, False):
        vocab = build_vocabulary(bilingual_raws, unify=unify)
        covered = set(vocab.entity_ids) | set(vocab.property_ids)
        assert covered == set(range(len(vocab)))


raw_triples_lists = st.lists(
    st.builds(
        RawTriple,
        st.sampled_from([f"t{i}" for i in range(8)]),
        st.sampled_from([f"t{i}" for i in range(8)]),
        st.sampled_from([f"t{i}" for i in range(8)]),
    ),
    min_size=1,
    max_size=30,
)


@given(raw_triples_lists)
@settings(max_examples=60)
def test_unification_monotonicity(raws):
    unified = build_vocabulary(raws, unify=True)
    split = build_vocabulary(raws, unify=False)
    assert len(unified) == len(split) - len(split.shared_terms())


@given(raw_triples_lists)
@settings(max_examples=30)
def test_build_deterministic(raws):
    a = build_vocabulary(raws, unify=True)
    b = build_vocabulary(raws, unify=True)
    assert a.id_to_term == b.id_to_term
    assert np.array_equal(a.entity_ids, b.entity_ids)
    assert np.array_equal(a.property_ids, b.property_ids)


@given(raw_triples_lists, st.booleans())
@settings(max_examples=40)
def test_reintern_identity(raws, unify):
    vocab = build_vocabulary(raws, unify=unify)
    triples = intern(raws, vocab).triples
    for t in triples:
        again = intern([RawTriple(*map(vocab.term, t))], vocab).triples[0]
        assert again == t


@given(st.lists(st.builds(RawTriple, *[st.sampled_from(["t0", "t1", "t2", "t3", "x"])] * 3), max_size=30),
       st.booleans())
@settings(max_examples=100)
def test_intern_equals_reference(raws, unify):
    # the vocabulary lacks every role of "x" and some roles of t0..t3
    vocab = build_vocabulary([RawTriple("t0", "t1", "t2"), RawTriple("t2", "t3", "t1")], unify=unify)
    try:
        want = reference_intern(raws, vocab)
    except UnknownTermError as e:
        want = e.terms
    for triples in (iter(raws), parse_tsv(write_tsv(raws))):  # rows, and the same triples as term columns
        try:
            result = intern(triples, vocab)
            got = (result.triples, result.duplicates)
            assert all(type(t) is tuple for t in result.triples)
        except UnknownTermError as e:
            got = e.terms
        assert got == want


@given(raw_triples_lists, st.booleans())
@settings(max_examples=60)
def test_build_vocabulary_over_columns_equals_over_rows(raws, unify):
    by_rows = build_vocabulary(raws, unify=unify)
    by_columns = build_vocabulary(parse_tsv(write_tsv(raws)), unify=unify)
    assert by_columns.id_to_term == by_rows.id_to_term
    assert by_columns._entity_id == by_rows._entity_id
    assert by_columns._property_id == by_rows._property_id


def test_intern_returns_plain_int_tuples_the_collector_untracks():
    raws = random_graph(np.random.default_rng(4), n_entities=12, n_relations=4, n_triples=60, property_nodes=True)
    vocab = build_vocabulary(raws, unify=True)
    for source in (raws + raws[:5], parse_tsv(write_tsv(raws + raws[:5]))):
        triples = intern(source, vocab).triples
        assert triples
        assert all(type(t) is tuple and len(t) == 3 and all(type(i) is int for i in t) for t in triples)
        gc.collect()
        assert not any(gc.is_tracked(t) for t in triples)


def test_intern_self_consistency(bilingual_raws, bilingual_vocab):
    result = intern(bilingual_raws, bilingual_vocab)
    assert len(result.triples) == 3
    assert result.duplicates == 0


def test_intern_unknown_term(bilingual_vocab):
    with pytest.raises(UnknownTermError):
        intern([RawTriple("ex:A", "ex:birthplace", "ex:Mars")], bilingual_vocab)
    with pytest.raises(UnknownTermError) as exc:
        intern([RawTriple("ex:A", "ex:nope", "ex:Mars"), RawTriple("ex:Mars", "ex:birthplace", "ex:A")],
               bilingual_vocab)
    assert exc.value.terms == ["ex:Mars", "ex:nope"]


def test_intern_deduplicates(bilingual_raws, bilingual_vocab):
    result = intern(bilingual_raws + [bilingual_raws[0]], bilingual_vocab)
    assert len(result.triples) == len(bilingual_raws)
    assert result.duplicates == 1


def test_role_lookup_is_role_specific(bilingual_raws):
    vocab = build_vocabulary(bilingual_raws, unify=False)
    assert vocab.entity_id("ex:birthplace") != vocab.property_id("ex:birthplace")
    with pytest.raises(UnknownTermError):
        vocab.property_id("ex:A")  # entity-only term has no property id


def test_triple_index_contains(bilingual_triples):
    index = TripleIndex(bilingual_triples)
    assert index.contains(np.array([bilingual_triples[0]]))[0]
    assert not index.contains(np.array([(0, 1, 3)]))[0]
    assert len(index) == 3


def test_triple_index_matches_linear_scan():
    rng = np.random.default_rng(7)
    raws = random_graph(rng, n_entities=8, n_relations=3, n_triples=20)
    vocab = build_vocabulary(raws, unify=True)
    triples = intern(raws, vocab).triples
    index = TripleIndex(triples)
    keys_sp = sorted({(s, p) for s, p, o in triples})
    keys_po = sorted({(p, o) for s, p, o in triples})
    for direction, pairs, want in (
        ("tail", keys_sp, lambda s, p: {to for ts, tp, to in triples if (ts, tp) == (s, p)}),
        ("head", keys_po, lambda p, o: {ts for ts, tp, to in triples if (tp, to) == (p, o)}),
    ):
        rows, ids = index.known(pairs + [(999, 999)], direction)
        for q, pair in enumerate(pairs):
            assert set(ids[rows == q].tolist()) == want(*pair)
        assert not np.any(rows == len(pairs))


id_triples = st.lists(st.tuples(*[st.integers(0, 6)] * 3), max_size=40)


@given(id_triples, st.lists(st.tuples(*[st.integers(-3, 9)] * 3), min_size=1, max_size=40))
@settings(max_examples=100)
def test_triple_index_agrees_with_set_oracle(triples, probes):
    # probes reach past both ends of the id range; the empty index is drawn too
    index = TripleIndex(triples)
    known = set(triples)
    assert len(index) == len(known)
    probes = np.array(probes, dtype=np.int64)
    assert index.contains(probes).tolist() == [tuple(t) in known for t in probes.tolist()]
    assert all(index.contains(np.array([t]))[0] == (tuple(t) in known) for t in probes.tolist())
    for direction, cols, out in (("tail", [0, 1], 2), ("head", [1, 2], 0)):
        rows, ids = index.known(probes[:, [cols[0], cols[1]]], direction)
        assert np.all(np.diff(rows) >= 0)
        for q, t in enumerate(probes.tolist()):
            want = sorted({k[out] for k in known if [k[c] for c in cols] == [t[c] for c in cols]})
            assert ids[rows == q].tolist() == want


@given(id_triples)
@settings(max_examples=60)
def test_triple_index_keys_equal_np_unique(triples):
    arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
    n = int(arr.max()) + 1 if len(arr) else 0
    s, p, o = arr.T
    spo, pos = np.unique((s * n + p) * n + o), np.unique((p * n + o) * n + s)
    for source in (triples, (t for t in triples), arr):
        index = TripleIndex(source)
        assert index._spo.dtype == index._pos.dtype == np.int64
        assert np.array_equal(index._spo, spo) and np.array_equal(index._pos, pos)


@pytest.mark.parametrize("rows", [[(1, 2)], [(1, 2, 3, 4)], [(1, 2), (3, 4, 5, 6)], [(0, 1, 2), (3, 4)], [1, 2, 3]])
def test_triple_index_rejects_a_row_that_is_not_three_ids(rows):
    with pytest.raises((ValueError, TypeError)):
        TripleIndex(rows)


def test_triple_index_key_overflow_is_an_error():
    top = MAX_INDEX_IDS - 1
    index = TripleIndex([(top, top, top), (0, top, 1)])  # n**3 still fits int64
    assert index.contains([(top, top, top), (top, top, 0)]).tolist() == [True, False]
    rows, ids = index.known([(top, 1), (top, top)], "head")
    assert rows.tolist() == [0, 1] and ids.tolist() == [0, top]
    with pytest.raises(IndexOverflowError):
        TripleIndex([(0, 0, MAX_INDEX_IDS)])
    with pytest.raises(IndexOverflowError):
        TripleIndex([(0, -1, 1)])


def test_dataset_stats_bilingual(bilingual_vocab, bilingual_triples):
    stats = dataset_stats(bilingual_vocab, bilingual_triples)
    assert stats.n_triples == 3
    assert stats.n_entities == 6
    assert stats.n_properties == 3
    assert stats.n_shared == 2
    assert stats.property_node_triples == 1
    assert "overlap=2" in stats.summary()


def test_dataset_stats_zero_overlap():
    raws = [RawTriple("a", "p", "b"), RawTriple("b", "q", "c")]
    vocab = build_vocabulary(raws, unify=True)
    stats = dataset_stats(vocab, intern(raws, vocab).triples)
    assert stats.n_shared == 0
    assert stats.property_node_triples == 0


@pytest.mark.parametrize("unify", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dataset_stats_property_node_count_equals_per_triple_loop(unify, seed):
    raws = random_graph(np.random.default_rng(seed), n_entities=12, n_relations=4, n_triples=40,
                        property_nodes=True)
    vocab = build_vocabulary(raws, unify=unify)
    triples = intern(raws, vocab).triples
    want = sum(vocab.has_property(vocab.term(s)) or vocab.has_property(vocab.term(o)) for s, _, o in triples)
    assert want > 0
    assert dataset_stats(vocab, triples).property_node_triples == want


@pytest.mark.parametrize("unify", [True, False])
def test_vocabulary_dump_round_trip(bilingual_raws, unify):
    vocab = build_vocabulary(bilingual_raws, unify=unify)
    dump = dump_vocabulary(vocab)
    lines = dump.splitlines()
    assert len(lines) == len(vocab)
    assert all(line.count("\t") == 2 for line in lines)
    assert dump.endswith("\n")
    loaded = parse_vocabulary(dump, unify=unify)
    assert loaded.id_to_term == vocab.id_to_term
    assert np.array_equal(loaded.entity_ids, vocab.entity_ids)
    assert np.array_equal(loaded.property_ids, vocab.property_ids)
    assert dump_vocabulary(loaded) == dump


def test_vocabulary_dump_roles(bilingual_vocab):
    roles = dict(
        line.split("\t")[1:] for line in dump_vocabulary(bilingual_vocab).splitlines()
    )
    assert roles["ex:A"] == "E"
    assert roles["ex:honyaku"] == "P"
    assert roles["ex:birthplace"] == "EP"


def test_parse_vocabulary_rejects_garbage():
    with pytest.raises(FormatError):
        parse_vocabulary("0\tterm\n", unify=True)  # missing role column
    with pytest.raises(FormatError):
        parse_vocabulary("1\tterm\tE\n", unify=True)  # ids not dense
    with pytest.raises(FormatError):
        parse_vocabulary("0\tterm\tEP\n", unify=False)  # shared id without unify


def test_parse_vocabulary_non_integer_id_is_format_error():
    with pytest.raises(FormatError, match="not an integer"):
        parse_vocabulary("x\tfoo\tE\n", unify=True)


@pytest.mark.parametrize("text", ["+0\tx\tE\n", " 0 \tx\tE\n", "\u0660\tx\tE\n", "0\tx\tE"])
def test_parse_vocabulary_rejects_what_dump_never_writes(text):
    # int() takes a sign, padding and non-ASCII digits; a dump always ends in \n
    with pytest.raises(FormatError):
        parse_vocabulary(text, unify=True)
    assert dump_vocabulary(parse_vocabulary("0\tx\tE\n", unify=True)) == "0\tx\tE\n"
    assert len(parse_vocabulary("", unify=True)) == 0


def test_parse_vocabulary_unified_term_with_two_ids_is_format_error():
    with pytest.raises(FormatError, match="second id"):
        parse_vocabulary("0\tx\tE\n1\tx\tP\n", unify=True)
    with pytest.raises(FormatError, match="second id"):
        parse_vocabulary("0\tx\tEP\n1\tx\tE\n", unify=True)
    vocab = parse_vocabulary("0\tx\tE\n1\tx\tP\n", unify=False)  # two roles, two ids: fine apart
    assert vocab.entity_id("x") == 0 and vocab.property_id("x") == 1


def _edit_dump(lines: list[str], edit: tuple) -> None:
    """Apply one edit to the dump lines in place: swap two lines, insert a
    copy of one, or set one line's roles."""
    kind, i, j, roles = edit
    i %= len(lines)
    if kind == "swap":
        j %= len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "dup":
        lines.insert(j % (len(lines) + 1), lines[i])
    else:
        id_, term, _ = lines[i].split("\t")
        lines[i] = f"{id_}\t{term}\t{roles}\n"


dump_edits = st.lists(
    st.tuples(st.sampled_from(["swap", "dup", "roles"]), st.integers(0, 99), st.integers(0, 99),
              st.sampled_from(["E", "P", "EP", "PE", ""])),
    max_size=4,
)


@given(raw_triples_lists, st.booleans(), dump_edits, st.booleans())
@settings(max_examples=150)
def test_parse_vocabulary_loads_exactly_what_it_dumps(raws, unify, edits, renumber):
    # a dump, edited or not, either is rejected or loads to a vocabulary
    # whose dump is the same text; renumbering keeps ids dense so that the
    # edit, not the id column, decides
    lines = dump_vocabulary(build_vocabulary(raws, unify=unify)).splitlines(keepends=True)
    for edit in edits:
        _edit_dump(lines, edit)
    if renumber:
        rest = [line.split("\t", 1)[1] for line in lines]
        lines = [f"{k}\t{r}" for k, r in enumerate(rest)]
    text = "".join(lines)
    try:
        vocab = parse_vocabulary(text, unify=unify)
    except FormatError:
        return
    assert dump_vocabulary(vocab) == text
