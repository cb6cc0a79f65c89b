import json
import os
import warnings

import numpy as np
import pytest

from kgeu import build_vocabulary, candidate_set, load, parse_tsv, save, score_batch, write_tsv, write_ntriples
from kgeu.cli import build_parser, main, _train_config
from conftest import edit_header, mini_bilingual


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setenv("KGEU_THREADS", "1")


@pytest.fixture
def bilingual_tsv(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text(write_tsv(mini_bilingual()), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_stats(capsys, bilingual_tsv):
    code, out, _ = run(capsys, "ingest", "--format", "tsv", "--unify", bilingual_tsv)
    assert code == 0
    assert "triples=3" in out
    assert "entities=6" in out
    assert "properties=3" in out
    assert "overlap=2" in out


def test_ingest_nt_equals_tsv(capsys, tmp_path, bilingual_tsv):
    nt = tmp_path / "train.nt"
    nt.write_text(write_ntriples(mini_bilingual()), encoding="utf-8")
    _, out_nt, _ = run(capsys, "ingest", "--format", "nt", nt)
    _, out_tsv, _ = run(capsys, "ingest", bilingual_tsv)
    assert out_nt == out_tsv


def test_ingest_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", tmp_path / "nope.tsv")
    assert code == 1
    assert "nope.tsv" in err


def test_ingest_malformed_line_reports_file_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\tc\nonly-one-field\n", encoding="utf-8")
    code, _, err = run(capsys, "ingest", bad)
    assert code == 1
    assert "bad.tsv" in err and "line 2" in err


def test_ingest_writes_vocab_dump(capsys, tmp_path, bilingual_tsv):
    dump = tmp_path / "vocab.tsv"
    code, _, _ = run(capsys, "ingest", "--dump", dump, bilingual_tsv)
    assert code == 0
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 7
    assert lines[0] == "0\tex:A\tE"


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_defaults_follow_model():
    parser = build_parser()
    args = parser.parse_args(["train", "--model", "transe", "--out", "m.kgeu", "t.tsv"])
    cfg = _train_config(args)
    assert cfg.model.dim == 200 and cfg.learning_rate == 0.001 and cfg.epochs == 1000
    args = parser.parse_args(["train", "--model", "complex", "--out", "m.kgeu", "t.tsv"])
    cfg = _train_config(args)
    assert cfg.model.dim == 100 and cfg.learning_rate == 0.01


def test_train_epochs_zero_is_usage_error(bilingual_tsv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--model", "transe", "--epochs", "0",
              "--out", str(tmp_path / "m.kgeu"), str(bilingual_tsv)])
    assert exc.value.code == 2


def test_train_writes_archive_log_and_manifest(capsys, tmp_path, bilingual_tsv):
    out = tmp_path / "model.kgeu"
    code, _, _ = run(
        capsys, "train", "--model", "transe", "--dim", "8", "--epochs", "5",
        "--lr", "0.05", "--log", "--out", out, bilingual_tsv,
    )
    assert code == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "model.kgeu.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["model"]["dim"] == 8
    assert manifest["config"]["unify"] is True
    assert manifest["config"] == {  # TrainConfig's fields without seed, plus seeds and unify
        "model": {"model": "transe", "dim": 8, "norm": "l2", "margin": 1.0, "complex_reg": 1e-3},
        "learning_rate": 0.05, "epochs": 5, "batch_size": None, "negatives": 1,
        "corruption": "uniform", "share": "always", "seeds": [0], "unify": True,
    }
    assert str(bilingual_tsv) in manifest["inputs"]
    assert len(manifest["inputs"][str(bilingual_tsv)]) == 64  # sha-256 hex
    log_lines = (tmp_path / "model.kgeu.log").read_text().splitlines()
    assert len(log_lines) == 5
    assert log_lines[0].split("\t")[0] == "1"


@pytest.mark.parametrize("flag,value", [("--margin", "nan"), ("--complex-reg", "inf"), ("--lr", "nan")])
def test_train_rejects_non_finite_config(capsys, tmp_path, bilingual_tsv, flag, value):
    out = tmp_path / "model.kgeu"
    code, _, err = run(capsys, "train", "--model", "complex", "--dim", "4", "--epochs", "2",
                       flag, value, "--out", out, bilingual_tsv)
    assert code == 1
    assert err.startswith("kgeu: error:")
    assert not out.exists()


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
def test_train_whose_loss_overflows_is_an_error(capsys, tmp_path, model):
    run(capsys, "gen-toy", "--out", tmp_path / "toy")
    out = tmp_path / "model.kgeu"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, "train", "--model", model, "--dim", "8", "--epochs", "4",
                           "--lr", "1e300", "--log", "--out", out, tmp_path / "toy" / "train.tsv")
    assert code == 1
    assert err.startswith("kgeu: error:")
    assert not list(tmp_path.glob("model.kgeu*"))


def test_train_rejects_negative_seed(capsys, tmp_path, bilingual_tsv):
    out = tmp_path / "model.kgeu"
    code, _, err = run(capsys, "train", "--model", "transe", "--dim", "4", "--epochs", "2",
                       "--seed", "-1", "--out", out, bilingual_tsv)
    assert code == 1
    assert err.startswith("kgeu: error:") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-3", "1.5"])
def test_train_rejects_bad_kgeu_threads(capsys, monkeypatch, tmp_path, bilingual_tsv, threads):
    monkeypatch.setenv("KGEU_THREADS", threads)
    out = tmp_path / "model.kgeu"
    code, _, err = run(capsys, "train", "--model", "transe", "--dim", "4", "--epochs", "2",
                       "--out", out, bilingual_tsv)
    assert code == 1
    assert err.startswith("kgeu: error:") and "KGEU_THREADS" in err
    assert not out.exists()


def test_train_empty_kgeu_threads_is_the_default(capsys, monkeypatch, tmp_path, bilingual_tsv):
    monkeypatch.setenv("KGEU_THREADS", "")
    code, _, _ = run(capsys, "train", "--model", "transe", "--dim", "4", "--epochs", "2",
                     "--out", tmp_path / "model.kgeu", bilingual_tsv)
    assert code == 0


def test_process_pool_archives_equal_serial_archives(capsys, monkeypatch, tmp_path, bilingual_tsv):
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("KGEU_THREADS", threads)
        out = tmp_path / threads / "model.kgeu"
        out.parent.mkdir()
        code, stdout, _ = run(capsys, "train", "--model", "transh", "--dim", "4", "--epochs", "5",
                              "--lr", "0.05", "--seeds", "2", "--log", "--out", out, bilingual_tsv)
        assert code == 0
        files = sorted(p.name for p in out.parent.iterdir() if p.name != "model.kgeu.manifest.json")
        assert files == ["model.kgeu.s0", "model.kgeu.s0.log", "model.kgeu.s1", "model.kgeu.s1.log"]
        outputs[threads] = (stdout.replace(str(out.parent), ""),
                            [(out.parent / f).read_bytes() for f in files if not f.endswith(".log")])
    assert outputs["1"] == outputs["2"]


def test_train_multi_seed(capsys, tmp_path, bilingual_tsv):
    out = tmp_path / "model.kgeu"
    code, stdout, _ = run(
        capsys, "train", "--model", "transe", "--dim", "4", "--epochs", "3",
        "--seeds", "2", "--out", out, bilingual_tsv,
    )
    assert code == 0
    assert (tmp_path / "model.kgeu.s0").exists()
    assert (tmp_path / "model.kgeu.s1").exists()
    assert "seed=0" in stdout and "seed=1" in stdout


# ---------------------------------------------------------------------------
# eval / predict
# ---------------------------------------------------------------------------

@pytest.fixture
def trained_archive(capsys, tmp_path, bilingual_tsv):
    out = tmp_path / "model.kgeu"
    code, _, _ = run(
        capsys, "train", "--model", "transe", "--dim", "16", "--epochs", "200",
        "--lr", "0.05", "--seed", "3", "--out", out, bilingual_tsv,
    )
    assert code == 0
    return out


def test_eval_end_to_end(capsys, tmp_path, bilingual_tsv, trained_archive):
    text_out = tmp_path / "report.txt"
    json_out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "eval", "--train", bilingual_tsv, "--out-text", text_out,
        "--out-json", json_out, trained_archive, bilingual_tsv,
    )
    assert code == 0
    assert "TransU(TransE)" in stdout
    assert "MeanRank(Raw)" in stdout
    payload = json.loads(json_out.read_text())
    report = payload[0]
    for key in ("mean_rank_raw", "mean_rank_filtered", "hits_raw", "hits_filtered"):
        assert isinstance(report[key], float)
    assert text_out.read_text() == stdout


def test_eval_multiple_archives_emits_avg_best(capsys, tmp_path, bilingual_tsv):
    out = tmp_path / "m.kgeu"
    run(capsys, "train", "--model", "transe", "--dim", "8", "--epochs", "20",
        "--lr", "0.05", "--seeds", "2", "--out", out, bilingual_tsv)
    code, stdout, _ = run(
        capsys, "eval", tmp_path / "m.kgeu.s0", tmp_path / "m.kgeu.s1", bilingual_tsv,
    )
    assert code == 0
    assert "TransU(TransE):Avg" in stdout
    assert "TransU(TransE):Best" in stdout


def test_eval_unknown_test_term(capsys, tmp_path, trained_archive):
    test = tmp_path / "test.tsv"
    test.write_text("ex:A\tex:birthplace\tex:Mars\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", trained_archive, test)
    assert code == 1
    assert "ex:Mars" in err


def test_predict_returns_all_when_k_exceeds_candidates(capsys, trained_archive):
    code, stdout, _ = run(
        capsys, "predict", "--subject", "ex:A", "--predicate", "ex:birthplace",
        "-k", "50", trained_archive,
    )
    assert code == 0
    assert len(stdout.splitlines()) == 6  # entity-role candidate count


def test_predict_unknown_relation(capsys, trained_archive):
    code, _, err = run(
        capsys, "predict", "--subject", "ex:A", "--predicate", "ex:orbit", trained_archive,
    )
    assert code == 1
    assert "ex:orbit" in err


def test_predict_requires_subject_for_tail(trained_archive):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--predicate", "ex:birthplace", str(trained_archive)])
    assert exc.value.code == 2


def test_predict_relation_direction(capsys, trained_archive):
    code, stdout, _ = run(
        capsys, "predict", "--direction", "relation", "--subject", "ex:A",
        "--object", "ex:Spain", "-k", "10", trained_archive,
    )
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 3  # the three property ids
    assert lines[0].split("\t")[0] == "ex:birthplace"  # trained fact ranks first


def test_ingest_invalid_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"a\tb\t\xff\xfe\n")
    code, _, err = run(capsys, "ingest", bad)
    assert code == 1
    assert "utf-8" in err or "decode" in err


PREDICT_QUERY = {
    "tail": ("--subject", "ex:A", "--predicate", "ex:birthplace"),
    "head": ("--predicate", "ex:birthplace", "--object", "ex:Spain"),
    "relation": ("--subject", "ex:A", "--object", "ex:Spain"),
}


@pytest.mark.parametrize("direction", PREDICT_QUERY)
def test_predict_known_filter(capsys, tmp_path, bilingual_tsv, trained_archive, direction):
    answer = {"tail": "ex:Spain", "head": "ex:A", "relation": "ex:birthplace"}[direction]
    query = ("--direction", direction, *PREDICT_QUERY[direction], "-k", "50")
    _, unfiltered, _ = run(capsys, "predict", *query, trained_archive)
    code, filtered, _ = run(capsys, "predict", *query, "--known", bilingual_tsv, trained_archive)
    assert code == 0
    assert answer in unfiltered
    assert len(filtered.splitlines()) == len(unfiltered.splitlines()) - 1
    assert answer not in filtered


@pytest.mark.parametrize("model", ["transe", "transh", "complex"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_eval_and_predict_on_overflowing_rows_warn_nothing(capsys, tmp_path, bilingual_tsv, model, norm):
    archive = tmp_path / "model.kgeu"
    run(capsys, "train", "--model", model, "--norm", norm, "--dim", "8", "--epochs", "20",
        "--out", archive, bilingual_tsv)
    table, vocab, cfg = load(archive)
    ids = [vocab.entity_id("ex:A"), vocab.property_id("ex:birthplace"), vocab.entity_id("ex:Spain"),
           vocab.entity_id("ex:B"), vocab.property_id("ex:shusshin")]
    table.node_vectors[ids] *= 1e160  # squares overflow; the archive still saves and loads
    save(table, vocab, cfg, archive)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, "eval", "--train", bilingual_tsv, archive, bilingual_tsv)
        assert (code, err) == (0, "")
        for direction, query in PREDICT_QUERY.items():
            code, _, err = run(capsys, "predict", "--direction", direction, *query,
                               "--known", bilingual_tsv, archive)
            assert (code, err) == (0, "")


@pytest.mark.parametrize("direction", ["head", "tail", "relation"])
def test_predict_top_k_matches_score_batch_order(capsys, trained_archive, direction):
    table, vocab, _ = load(trained_archive)
    candidates = vocab.property_ids if direction == "relation" else candidate_set(vocab)
    c = len(candidates)
    s, o = np.full(c, vocab.entity_id("ex:A")), np.full(c, vocab.entity_id("ex:Spain"))
    p = np.full(c, vocab.property_id("ex:birthplace"))
    if direction == "tail":
        scores = score_batch(table, s, p, candidates)
    elif direction == "head":
        scores = score_batch(table, candidates, p, o)
    else:
        scores = score_batch(table, s, candidates, o)
    order = np.argsort(-scores, kind="stable")[:4]
    expected = "".join(f"{vocab.term(int(candidates[i]))}\t{scores[i]:.6f}\n" for i in order)
    code, stdout, _ = run(capsys, "predict", "--direction", direction, *PREDICT_QUERY[direction], "-k", "4",
                          trained_archive)
    assert code == 0
    assert stdout == expected


@pytest.mark.parametrize("char", ["\r", "\x85", "\u2028", "\u2029", "\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_term_with_a_line_break_other_than_lf_round_trips(capsys, tmp_path, char):
    # str.splitlines() breaks at these too; the vocabulary dump must not
    term = f"ex:a{char}b"
    data = tmp_path / "train.tsv"
    data.write_text(f"{term}\tex:p\tex:c\nex:c\tex:p\t{term}\n", encoding="utf-8")
    out = tmp_path / "m.kgeu"
    code, _, _ = run(capsys, "train", "--model", "transe", "--dim", "4", "--epochs", "1", "--out", out, data)
    assert code == 0
    _, vocab, _ = load(out)
    text = data.read_bytes().decode("utf-8")  # read_text() would turn a lone \r into \n
    assert vocab.id_to_term == build_vocabulary(parse_tsv(text), unify=True).id_to_term
    assert term in vocab.id_to_term
    code, stdout, err = run(capsys, "predict", "--subject", term, "--predicate", "ex:p", out)
    assert code == 0, err
    assert stdout.count("\n") == 2  # both entities, one line each


def test_archive_with_non_integer_vocabulary_id_is_an_error(capsys, tmp_path, bilingual_tsv, trained_archive):
    data = trained_archive.read_bytes()
    first_id = data.index(b"\n0\t") + 1  # the id of the first vocabulary line
    bad = tmp_path / "bad.kgeu"
    bad.write_bytes(data[:first_id] + b"x" + data[first_id + 1:])
    for argv in (("eval", bad, bilingual_tsv),
                 ("predict", "--subject", "ex:A", "--predicate", "ex:birthplace", bad)):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("kgeu: error:")
        assert "not an integer" in err


def test_predict_finds_translated_answer_majority_of_seeds(capsys, tmp_path):
    # cross-lingual completion on the miniature dataset: querying with the
    # language-1 relation from the language-2 subject should surface the
    # mirrored answer pair for most seeds once the vocabulary is unified
    train_tsv = tmp_path / "train.tsv"
    train_tsv.write_text(write_tsv(mini_bilingual(entity_links=True)), encoding="utf-8")
    hits = 0
    for seed in range(10):
        out = tmp_path / f"m{seed}.kgeu"
        code, _, _ = run(
            capsys, "train", "--model", "transe", "--dim", "16", "--epochs", "300",
            "--lr", "0.05", "--seed", seed, "--out", out, train_tsv,
        )
        assert code == 0
        code, stdout, _ = run(
            capsys, "predict", "--subject", "ex:B", "--predicate", "ex:birthplace",
            "-k", "3", out,
        )
        assert code == 0
        top = stdout.splitlines()
        hits += any(("ex:Supein" in line or "ex:Spain" in line) for line in top)
    assert hits >= 6


# ---------------------------------------------------------------------------
# gen-toy
# ---------------------------------------------------------------------------

def test_gen_toy_writes_files_and_manifest(capsys, tmp_path):
    out_dir = tmp_path / "toy"
    code, stdout, _ = run(
        capsys, "gen-toy", "--facts", "30", "--entities", "12", "--relations", "3",
        "--seed", "5", "--out", out_dir,
    )
    assert code == 0
    assert (out_dir / "train.tsv").exists()
    assert (out_dir / "test.tsv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen-toy"
    assert manifest["config"]["n_facts"] == 30


def test_gen_toy_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "gen-toy", "--seed", "9", "--out", a)
    run(capsys, "gen-toy", "--seed", "9", "--out", b)
    assert (a / "train.tsv").read_bytes() == (b / "train.tsv").read_bytes()
    assert (a / "test.tsv").read_bytes() == (b / "test.tsv").read_bytes()


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "unify"},
    lambda h: {k: v for k, v in h.items() if k != "model"},
    lambda h: dict(h, dim="8"),
    lambda h: [h],
    lambda h: dict(h, epochs=2.5),
    lambda h: dict(h, seed=None),
], ids=["no-unify", "no-model", "dim-str", "list", "epochs-float", "seed-null"])
def test_archive_with_bad_header_is_an_error(capsys, tmp_path, bilingual_tsv, trained_archive, edit):
    bad = tmp_path / "bad.kgeu"
    bad.write_bytes(edit_header(trained_archive.read_bytes(), edit))
    for argv in (("eval", bad, bilingual_tsv),
                 ("predict", "--subject", "ex:A", "--predicate", "ex:birthplace", bad)):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("kgeu: error: archive header")
        assert "Traceback" not in err
