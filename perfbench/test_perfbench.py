"""Self-tests of the benchmark: its checks are not vacuous, its inputs are
reproducible, its tracer survives missing hooks, and it refuses to run
without the program's sources.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np

import kgeu.evaluator
import kgeu.store
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = workloads.WORKLOADS["toy-bilingual"]


def _toy_state(tmp_path, seed=3):
    workloads.generate("toy-bilingual", seed, tmp_path)
    return workloads.setup(TOY, tmp_path)


def _train(state, tmp_path, model_index=0):
    cfg = replace(TOY.configs[model_index], seed=1)
    archive = tmp_path / "model.kgeu"
    result, _, _ = workloads.train_op(state, cfg, archive)
    return result, archive


def _off_by_one_rank(monkeypatch):
    """Add one to every rank that evaluate() reports. The fault sits at the
    public boundary, so it holds however evaluate() computes its ranks."""
    evaluate = kgeu.evaluator.evaluate

    def shifted(stats):
        return replace(stats, mean_rank_raw=stats.mean_rank_raw + 1,
                       mean_rank_filtered=stats.mean_rank_filtered + 1)

    def off_by_one(*args, **kwargs):
        report = shifted(evaluate(*args, **kwargs))
        return replace(report, head=shifted(report.head), tail=shifted(report.tail))

    monkeypatch.setattr(kgeu.evaluator, "evaluate", off_by_one)


def _flip_saved_bit(monkeypatch):
    """Flip one bit of every archive that save() writes."""
    save = kgeu.store.save

    def flipped(table, vocab, config, path):
        save(table, vocab, config, path)
        data = bytearray(Path(path).read_bytes())
        data[-8] ^= 1  # lowest mantissa bit of the last stored float
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(kgeu.store, "save", flipped)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, (json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None)


def test_eval_check_passes_then_catches_off_by_one_rank(tmp_path, monkeypatch):
    state = _toy_state(tmp_path)
    result, _ = _train(state, tmp_path, model_index=1)
    checker = checks.Checker()
    report, _, _ = workloads.eval_op(state, result.table)
    checker.check_eval("transh", report, result.table, state)
    assert checker.failed == 0, checker.problems

    _off_by_one_rank(monkeypatch)
    for fresh in (False, True):  # cached oracle, and a fresh one that also ranks each query alone
        checker = checks.Checker() if fresh else checker
        before = checker.failed
        report, _, _ = workloads.eval_op(state, result.table)
        checker.check_eval("transh", report, result.table, state)
        assert checker.failed == before + 1
        assert "mean_rank_raw" in checker.problems[-1] or "ranks" in checker.problems[-1]


def test_oracle_ranks_are_pessimistic_under_ties(tmp_path):
    state = _toy_state(tmp_path)
    table = kgeu.init_embeddings(kgeu.ModelConfig(model="complex", dim=4), state.eval_vocab,
                                 np.random.default_rng(0))
    table.node_vectors[:] = 0.0  # every candidate scores 0: each query gets the worst rank
    candidates = np.asarray(state.eval_vocab.entity_ids)
    known = np.array(state.known, dtype=np.int64)
    ranks = checks.oracle_ranks(table, state.queries[:3], known, candidates, ("head", "tail"))
    assert all(raw == len(candidates) for raw, _ in ranks)
    assert all(filt <= raw for raw, filt in ranks)
    report, _, _ = workloads.eval_op(state, table)
    checker = checks.Checker()
    checker.check_eval("complex", report, table, state)
    assert checker.failed == 0, checker.problems


def test_archive_check_passes_then_catches_flipped_byte(tmp_path):
    state = _toy_state(tmp_path)
    result, archive = _train(state, tmp_path)
    checker = checks.Checker()
    assert checker.check_train("transe", result, archive, state.train_vocab) is not None
    assert checker.failed == 0, checker.problems

    data = bytearray(archive.read_bytes())
    data[-8] ^= 1
    archive.write_bytes(bytes(data))
    flipped = checks.Checker()
    flipped.check_train("transe", result, archive, state.train_vocab)
    assert flipped.failed == 1
    assert flipped.problems[0].startswith("train transe: ")


def test_inputs_depend_on_the_seed_alone(tmp_path):
    for name in ("train-desk", "toy-bilingual"):
        a, b, c = (tmp_path / f"{name}-{i}" for i in range(3))
        workloads.generate(name, 5, a)
        workloads.generate(name, 5, b)
        workloads.generate(name, 6, c)
        assert workloads.digests(a) == workloads.digests(b)
        assert workloads.digests(a) != workloads.digests(c)


def test_fb15k_shape():
    train, test = workloads._fb15k_ids(np.random.default_rng(4))
    again, _ = workloads._fb15k_ids(np.random.default_rng(4))
    assert np.array_equal(train, again)
    assert (len(train), len(test)) == (workloads.FB_TRAIN, workloads.FB_TEST)
    both = np.concatenate([train, test])
    assert len(np.unique(both, axis=0)) == len(both)
    assert len(np.unique(train[:, [0, 2]])) == workloads.FB_ENTITIES
    assert len(np.unique(train[:, 1])) == workloads.FB_RELATIONS


def test_missing_hooks_are_reported_not_fatal(tmp_path, monkeypatch):
    # A stand-in module, so the counts asserted here do not depend on how
    # kgeu happens to be split into functions.
    fake = types.ModuleType("perfbench_fake")
    fake.draw = lambda n: list(range(n))
    fake.step = lambda: None
    monkeypatch.setitem(sys.modules, "perfbench_fake", fake)
    draw, train = fake.draw, kgeu.trainer.train
    hooks = tracing.HOOKS + (
        ("perfbench_fake", "draw", "trainer.negative_sample",
         lambda c, args, out: c("trainer.negatives_drawn", len(out))),
        ("perfbench_fake", "step", None, lambda c, args, out: args[99]),  # a counter that breaks
        ("kgeu.trainer", "no_such_function", "x.gone", None),
        ("kgeu.no_such_module", "f", "y.gone", None),
    )
    state = _toy_state(tmp_path)
    tracer = tracing.Tracer()
    tracer.install(hooks)
    try:
        with tracer.op("train", "transe"):
            _train(state, tmp_path)
            fake.draw(5)
            fake.draw(2)
            fake.step()
        fake.draw(3)  # outside an operation: not traced
    finally:
        tracer.uninstall()
    assert {"kgeu.trainer.no_such_function", "kgeu.no_such_module.f"} <= set(tracer.absent)
    assert "perfbench_fake.draw" not in tracer.absent
    assert "<lambda>" in tracer.broken
    assert fake.draw is draw and kgeu.trainer.train is train
    metrics = tracing.layer_metrics(tracer)
    assert metrics["trace.hooks_absent"] == len(tracer.absent) + len(tracer.broken)
    if "kgeu.trainer.negative_sample" in tracer.absent:
        assert metrics["trainer.negatives_drawn.transe"] == 7
    else:  # the real hook may count too, while train() still calls it
        assert metrics["trainer.negatives_drawn.transe"] >= 7
    assert metrics["trainer.negative_sample_s.transe"] > 0


def test_clean_runs_print_the_declared_metrics():
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc, result = _run("--workload", "toy-bilingual", "--seed", "2", "--seconds", "0.3",
                            "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_injected_faults_make_the_error_rate_nonzero(tmp_path, monkeypatch):
    workloads.generate("toy-bilingual", 2, tmp_path)
    for inject in (_off_by_one_rank, _flip_saved_bit):
        checker = checks.Checker()
        with monkeypatch.context() as m:
            inject(m)
            workloads.run(TOY, tmp_path, 0.3, 2, checker, min_setups=1)
        assert 0 < checker.failed <= checker.attempted, inject.__name__


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _run("--workload", "train-desk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
