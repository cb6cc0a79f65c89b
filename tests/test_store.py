from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kgeu import (
    DimensionMismatchError,
    FormatError,
    ModelConfig,
    TrainConfig,
    build_vocabulary,
    dump_vocabulary,
    intern,
    load,
    save,
    train,
)
from kgeu.store import MAGIC
from conftest import edit_header, mini_bilingual, score


def trained(bilingual_raws, model="transe", dim=4, unify=True, epochs=15):
    vocab = build_vocabulary(bilingual_raws, unify=unify)
    triples = intern(bilingual_raws, vocab).triples
    cfg = TrainConfig(model=ModelConfig(model=model, dim=dim), learning_rate=0.05, epochs=epochs, seed=9)
    result = train(triples, vocab, cfg)
    return result.table, vocab, cfg, triples


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_round_trip_bitwise(tmp_path, bilingual_raws, model):
    table, vocab, cfg, triples = trained(bilingual_raws, model=model)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    table2, vocab2, cfg2 = load(path)
    assert np.array_equal(table.node_vectors, table2.node_vectors)
    if model == "transh":
        assert np.array_equal(table.relation_normals, table2.relation_normals)
    assert vocab2.id_to_term == vocab.id_to_term
    assert vocab2.unify == vocab.unify
    assert cfg2 == cfg
    for t in triples:
        assert score(table2, t) == score(table, t)


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_loaded_table_is_read_only_and_copy_is_writeable(tmp_path, bilingual_raws, model):
    table, vocab, cfg, _ = trained(bilingual_raws, model=model)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    loaded, _, _ = load(path)
    arrays = [loaded.node_vectors] + ([loaded.relation_normals] if model == "transh" else [])
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    copy = loaded.copy()
    copy.node_vectors[0, 0] = 1.0
    if model == "transh":
        copy.relation_normals[0, 0] = 1.0
    assert np.array_equal(loaded.node_vectors, table.node_vectors)  # the copy shares nothing
    assert copy.node_vectors[0, 0] == 1.0


def test_save_load_save_is_byte_identical(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    p1, p2 = tmp_path / "a.kgeu", tmp_path / "b.kgeu"
    save(table, vocab, cfg, p1)
    save(*load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_at_offset_zero(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    assert path.read_bytes()[: len(MAGIC)] == b"KGEU1\n"


def test_exact_file_size(tmp_path, bilingual_raws):
    # 7-id vocabulary at dim 4: every section length is derivable
    table, vocab, cfg, _ = trained(bilingual_raws, model="transe", dim=4)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    data = path.read_bytes()
    header_len = int(data[len(MAGIC):].split(b"\n", 1)[0])
    vocab_bytes = dump_vocabulary(vocab).encode()
    payload = 8 * 4 * 7
    expected = (
        len(MAGIC)
        + len(str(header_len)) + 1 + header_len
        + len(str(len(vocab_bytes))) + 1 + len(vocab_bytes)
        + len(str(payload)) + 1 + payload
    )
    assert len(data) == expected


def test_transh_payload_includes_normals(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws, model="transh", dim=4)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    plain_payload = 8 * 4 * 7
    normals_payload = 8 * 4 * 3  # one normal per property id
    assert str(plain_payload + normals_payload).encode() in path.read_bytes()


def test_bad_magic_rejected(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    data = bytearray(path.read_bytes())
    data[:6] = b"KGEU9\n"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load(path)


def test_bad_version_rejected(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    data = path.read_bytes().replace(b'"format_version":1', b'"format_version":9')
    path.write_bytes(data)
    with pytest.raises(FormatError):
        load(path)


def test_truncated_payload_rejected(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(FormatError):
        load(path)


def test_row_count_mismatch_rejected(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    data = path.read_bytes()
    # drop one vocabulary line and fix the section length so only the
    # payload/vocabulary consistency check can catch it
    vocab_bytes = dump_vocabulary(vocab).encode()
    lines = vocab_bytes.splitlines(keepends=True)
    shorter = b"".join(lines[:-1])
    data = data.replace(b"%d\n" % len(vocab_bytes) + vocab_bytes, b"%d\n" % len(shorter) + shorter)
    path.write_bytes(data)
    with pytest.raises(DimensionMismatchError):
        load(path)


def test_trailing_garbage_rejected(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(FormatError):
        load(path)


def test_non_finite_save_rejected(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    table.node_vectors[0, 0] = np.nan
    with pytest.raises(FormatError):
        save(table, vocab, cfg, tmp_path / "model.kgeu")


def test_non_finite_load_rejected(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([np.inf]).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load(path)


def without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def setting(key, value):
    return lambda h: dict(h, **{key: value})


@pytest.mark.parametrize("edit", [
    without("unify"), without("model"), without("seed"), setting("dim", "8"), lambda h: [h],
    lambda h: None, setting("epochs", 2.5), setting("seed", None), setting("seed", -1),
    setting("batch_size", 0), setting("margin", "nan"), setting("unify", "yes"), setting("unify", 1),
    setting("model", "transd"), setting("extra", 1),
], ids=["no-unify", "no-model", "no-seed", "dim-str", "list", "null", "epochs-float", "seed-null",
        "seed-negative", "batch-zero", "margin-str", "unify-str", "unify-int", "model-unknown", "extra-key"])
def test_bad_header_is_format_error(tmp_path, bilingual_raws, edit):
    table, vocab, cfg, _ = trained(bilingual_raws, epochs=1)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    path.write_bytes(edit_header(path.read_bytes(), edit))
    with pytest.raises(FormatError, match="archive header"):
        load(path)


def test_header_edit_that_keeps_the_schema_loads(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws, epochs=1)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    path.write_bytes(edit_header(path.read_bytes(), setting("seed", 77)))
    assert load(path)[2] == replace(cfg, seed=77)


def test_invalid_utf8_is_format_error(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws, epochs=1)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    data = path.read_bytes()
    for target in (b'"model"', b"ex:A"):  # one in the header, one in the vocabulary
        path.write_bytes(data.replace(target, target[:-1] + b"\xff", 1))
        with pytest.raises(FormatError, match="UTF-8"):
            load(path)


def test_section_length_past_the_end_is_format_error(tmp_path, bilingual_raws):
    table, vocab, cfg, _ = trained(bilingual_raws, epochs=1)
    path = tmp_path / "model.kgeu"
    save(table, vocab, cfg, path)
    magic, length, rest = path.read_bytes().split(b"\n", 2)
    for n in (b"99999999999999999999999999", b"-1", b"%d" % (len(rest) + 1)):
        path.write_bytes(magic + b"\n" + n + b"\n" + rest)
        with pytest.raises(FormatError, match="truncated header"):
            load(path)


HEADER_KEYS = ["format_version", "unify", "model", "dim", "norm", "margin", "complex_reg", "learning_rate",
               "epochs", "batch_size", "negatives", "corruption", "share", "seed", "extra"]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.sampled_from(["transe", "transh", "complex", "l1", "l2", "uniform", "always", "init-only"]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _truncate(data, at):
    return data[:at % (len(data) + 1)]


def _flip(data, bit):
    if not data:
        return data
    bit %= 8 * len(data)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _insert(data, at, chunk):
    at %= len(data) + 1
    return data[:at] + chunk + data[at:]


def _edit_key(data, key, value, delete):
    try:
        return edit_header(data, without(key) if delete else setting(key, value))
    except (ValueError, TypeError, AttributeError):  # an earlier mutation broke the header already
        return data


MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just(_truncate), st.integers(0, 1 << 16)),
    st.tuples(st.just(_flip), st.integers(0, 1 << 20)),
    st.tuples(st.just(_insert), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=12)),
    st.tuples(st.just(_edit_key), st.sampled_from(HEADER_KEYS), JSON_VALUES, st.booleans()),
), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def fuzz_archives(tmp_path_factory):
    raws = mini_bilingual()
    out = tmp_path_factory.mktemp("fuzz")
    archives = []
    for model in ("transe", "transh", "complex"):
        table, vocab, cfg, _ = trained(raws, model=model, dim=2, epochs=1)
        save(table, vocab, cfg, out / "model.kgeu")
        archives.append((out / "model.kgeu").read_bytes())
    return out / "mutated.kgeu", archives


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(which=st.integers(0, 2), mutations=MUTATIONS)
def test_corrupted_archive_loads_or_raises_format_error(fuzz_archives, which, mutations):
    path, archives = fuzz_archives
    data = archives[which]
    for fn, *args in mutations:
        data = fn(data, *args)
    path.write_bytes(data)
    try:
        load(path)
    except FormatError:  # DimensionMismatchError included
        pass
