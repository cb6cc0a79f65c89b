"""The benchmark's workloads: input generation, set-up and the timed operations.

Every call into kgeu goes through a module attribute looked up at call
time (``trainer.train``, ``store.save``, ...), so the traced run can wrap
those attributes from the outside. Inputs are generated from the workload
seed alone, in a child process, and the program only ever sees the files
written there.
"""

import contextlib
import gc
import hashlib
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import kgeu.evaluator as evaluator
import kgeu.ingest as ingest
import kgeu.store as store
import kgeu.trainer as trainer
import kgeu.vocab as vocab_mod
from kgeu.models import ModelConfig, init_embeddings
from kgeu.toy import ToySpec, generate_toy

EVAL_CONFIG = evaluator.EvalConfig()  # entities-only candidates, Hits@10, both directions
MIN_ROUNDS = 3  # every phase runs at least this many rounds, whatever its time budget
MAX_ROUNDS = 2_000  # bounds a phase whose operations take next to no time
SETUP_SECONDS = 1.0  # set-up repeats until it has spent this long, and at least a given count

# Shape of the FB15K benchmark graph (Bordes et al. 2013).
FB_ENTITIES, FB_RELATIONS, FB_TRAIN, FB_TEST = 14_951, 1_345, 483_142, 59_071
FB_ZIPF = 1.0          # exponent of the entity and relation frequency skew
FB_TRAIN_SAMPLE = 4_096
FB_EVAL_TRIPLES = 4    # test triples ranked per evaluate() call, both directions
DESK_EVAL_TRIPLES = 64


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[trainer.TrainConfig, ...]  # one training operation per config; seed set per run
    train_share: float                        # share of the run's seconds spent training
    archives: bool = False                    # eval tables come from generated archives


def _cfg(model: str, dim: int, lr: float, epochs: int, batch: int | None) -> trainer.TrainConfig:
    return trainer.TrainConfig(model=ModelConfig(model=model, dim=dim), learning_rate=lr,
                               epochs=epochs, batch_size=batch)


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-7 graph, TransE d=200, one full batch per epoch.
        Workload("train-desk", (_cfg("transe", 200, 0.001, 5, None),), train_share=0.7),
        # Default gen-toy graph, the three models at d=16 and batch 8 (kgeu's default rates).
        # Epoch losses are noisy here; 40 epochs is long enough for the loss check.
        Workload("toy-bilingual", (
            _cfg("transe", 16, 0.001, 40, 8),
            _cfg("transh", 16, 0.001, 40, 8),
            _cfg("complex", 16, 0.01, 40, 8),
        ), train_share=0.6),
        # FB15K-shaped graph; training uses the FB15K smoke-test model (d=50, batch 512)
        # on a sample, at a rate that lets the loss fall clearly within three epochs.
        Workload("eval-fb15k-shape", (_cfg("transe", 50, 0.01, 3, 512),), train_share=0.25,
                 archives=True),
    )
}
FB_TABLES = {"transe": 200, "transh": 200, "complex": 100}  # dim of each random-init eval table


# ---------------------------------------------------------------------------
# Input generation (child process; not timed)
# ---------------------------------------------------------------------------

def _write_tsv(path: Path, rows) -> None:
    path.write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o, *_ in rows), encoding="utf-8")


def _desk_rows(rng: np.random.Generator) -> list[tuple[str, str, str]]:
    """The criterion-7 graph: a cycle covering every term, then random facts."""
    n_e, n_p, n_t = 2_234, 43, 4_342
    rows = [(f"e{i}", f"r{i % n_p}", f"e{(i + 1) % n_e}") for i in range(n_e)]
    seen = set(rows)
    while len(rows) < n_t:
        s, o = rng.integers(n_e, size=2)
        row = (f"e{s}", f"r{rng.integers(n_p)}", f"e{o}")
        if s == o or row in seen:
            continue
        seen.add(row)
        rows.append(row)
    return rows


def _zipf(n: int, rng: np.random.Generator) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** FB_ZIPF
    return rng.permutation(w / w.sum())


def _fb15k_ids(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) id triples: a cycle covering every entity and relation
    (all in train), then distinct Zipf-skewed facts, FB_TEST of them held out."""
    n, m = FB_ENTITIES, FB_RELATIONS
    ids = np.arange(n, dtype=np.int64)
    cover = np.stack([ids, ids % m, (ids + 1) % n], axis=1)

    def keys(t):
        return (t[:, 0] * m + t[:, 1]) * n + t[:, 2]

    need = FB_TRAIN + FB_TEST - n
    p_ent, p_rel = _zipf(n, rng), _zipf(m, rng)
    drawn = np.empty((0, 3), dtype=np.int64)
    while len(drawn) < need:
        k = 2 * (need - len(drawn)) + 1_000
        cand = np.stack([rng.choice(n, k, p=p_ent), rng.choice(m, k, p=p_rel), rng.choice(n, k, p=p_ent)], axis=1)
        both = np.concatenate([drawn, cand[cand[:, 0] != cand[:, 2]]])
        _, first = np.unique(keys(both), return_index=True)
        both = both[np.sort(first)]
        drawn = both[~np.isin(keys(both), keys(cover))]
    drawn = drawn[:need]
    held = np.zeros(need, dtype=bool)
    held[rng.choice(need, FB_TEST, replace=False)] = True
    train = np.concatenate([cover, drawn[~held]])
    return train[rng.permutation(len(train))], drawn[held]


def _fb_rows(ids: np.ndarray) -> list[tuple[str, str, str]]:
    return [(f"/m/0e{s}", f"/r/rel{p}", f"/m/0e{o}") for s, p, o in ids.tolist()]


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the workload's input files for `seed` into `out`.

    Every workload writes train.tsv (the training input), queries.tsv (the
    triples ranked by each evaluate() call) and known-*.tsv (the filter
    index). eval-fb15k-shape also writes one random-init archive per model.
    """
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "train-desk":
        rows = _desk_rows(rng)
        _write_tsv(out / "train.tsv", rows)
        _write_tsv(out / "known-train.tsv", rows)
        pick = np.sort(rng.choice(len(rows), DESK_EVAL_TRIPLES, replace=False))
        _write_tsv(out / "queries.tsv", [rows[i] for i in pick])
    elif workload == "toy-bilingual":
        train_raws, test_raws = generate_toy(ToySpec(seed=seed))
        _write_tsv(out / "train.tsv", train_raws)
        _write_tsv(out / "known-train.tsv", train_raws)
        _write_tsv(out / "known-test.tsv", test_raws)
        _write_tsv(out / "queries.tsv", test_raws)
    elif workload == "eval-fb15k-shape":
        train_ids, test_ids = _fb15k_ids(rng)
        train_rows, test_rows = _fb_rows(train_ids), _fb_rows(test_ids)
        _write_tsv(out / "known-train.tsv", train_rows)
        _write_tsv(out / "known-test.tsv", test_rows)
        sample = np.sort(rng.choice(len(train_rows), FB_TRAIN_SAMPLE, replace=False))
        _write_tsv(out / "train.tsv", [train_rows[i] for i in sample])
        pick = np.sort(rng.choice(len(test_rows), FB_EVAL_TRIPLES, replace=False))
        _write_tsv(out / "queries.tsv", [test_rows[i] for i in pick])
        raws = [ingest.RawTriple(*r) for r in train_rows + test_rows]
        vocab = vocab_mod.build_vocabulary(raws, unify=True)
        for model, dim in FB_TABLES.items():
            cfg = trainer.TrainConfig(model=ModelConfig(model=model, dim=dim), seed=seed)
            table = init_embeddings(cfg.model, vocab, rng)
            store.save(table, vocab, cfg, out / f"{model}.kgeu")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# Set-up: what `kgeu train` and `kgeu eval` do before their first step
# ---------------------------------------------------------------------------

@dataclass
class State:
    train_vocab: vocab_mod.Vocabulary
    train_triples: list
    eval_vocab: vocab_mod.Vocabulary
    queries: list
    index: vocab_mod.TripleIndex
    known: list                           # the triples of the filter index
    tables: dict = field(default_factory=dict)  # model -> table to evaluate


def setup(workload: Workload, inputs: Path) -> State:
    """Parse, build the vocabulary, intern, index and load archives."""
    parsed: dict[str, list] = {}

    def parse(name: str) -> list:
        if name not in parsed:
            with open(inputs / name, encoding="utf-8") as f:
                parsed[name] = ingest.parse_tsv(f)
        return parsed[name]

    train_vocab = vocab_mod.build_vocabulary(parse("train.tsv"), unify=True)
    train_triples = vocab_mod.intern(parse("train.tsv"), train_vocab).triples
    tables = {}
    eval_vocab = train_vocab
    if workload.archives:
        for model in FB_TABLES:
            table, archive_vocab, _ = store.load(inputs / f"{model}.kgeu")
            if eval_vocab is train_vocab:
                eval_vocab = archive_vocab
            elif archive_vocab.id_to_term != eval_vocab.id_to_term:
                raise ValueError(f"{model}.kgeu has another vocabulary than the other archives")
            tables[model] = table
    known = []
    for path in sorted(inputs.glob("known-*.tsv")):
        known += vocab_mod.intern(parse(path.name), eval_vocab).triples
    index = vocab_mod.TripleIndex(known)
    queries = vocab_mod.intern(parse("queries.tsv"), eval_vocab).triples
    return State(train_vocab, train_triples, eval_vocab, queries, index, known, tables)


# ---------------------------------------------------------------------------
# The timed operations and the closed loop that repeats them
# ---------------------------------------------------------------------------

def train_op(state: State, cfg: trainer.TrainConfig, archive: Path):
    """One `kgeu train` step: train() until save() has written the archive."""
    t0 = time.perf_counter()
    result = trainer.train(state.train_triples, state.train_vocab, cfg)
    store.save(result.table, state.train_vocab, cfg, archive)
    seconds = time.perf_counter() - t0
    return result, seconds, cfg.epochs * len(state.train_triples) * cfg.negatives


def eval_op(state: State, table):
    """One `kgeu eval` step: raw and filtered ranks of every query triple."""
    t0 = time.perf_counter()
    report = evaluator.evaluate(table, state.queries, state.eval_vocab, state.index, EVAL_CONFIG)
    seconds = time.perf_counter() - t0
    return report, seconds, len(state.queries) * len(EVAL_CONFIG.directions)


@dataclass
class PhaseResult:
    seconds: dict = field(default_factory=dict)  # model -> per-operation wall times
    work: dict = field(default_factory=dict)     # model -> pairs or queries per operation
    budget: float = 0.0                          # seconds this phase should spend inside operations
    spent: float = 0.0                           # wall time inside operations, failed ones too; checks excluded
    rounds: int = 0
    typical: Callable = statistics.median        # one model's operation time from its list of times

    def add(self, model: str, seconds: float, work: int) -> None:
        self.seconds.setdefault(model, []).append(seconds)
        self.work[model] = work

    def rate(self) -> float:
        """Work per second of the model mix: each model's work per operation
        over the sum of each model's typical operation time (0 without any
        successful operation)."""
        total = sum(self.typical(s) for s in self.seconds.values())
        return sum(self.work.values()) / total if total else 0.0


def run(workload: Workload, inputs: Path, seconds: float, seed: int, checker, min_setups: int,
        tracer=None) -> tuple[PhaseResult, PhaseResult, PhaseResult]:
    """Closed loop, one caller: set-ups, training rounds and evaluation rounds.

    A round runs one operation per model. Training and evaluation share
    `seconds` of time inside operations; set-up gets SETUP_SECONDS of its
    own. After the first set-up, the next step always goes to the phase
    furthest behind its share of time. Where one set-up takes longer than
    SETUP_SECONDS, that puts the remaining set-ups after training and
    evaluation. A phase is done once it has its share and its minimum
    count: MIN_ROUNDS rounds, `min_setups` set-ups. Each set-up drops the
    previous state first, so peak memory is that of one set-up. Checks run
    between operations; their time counts against no budget. An operation
    that raises counts as failed.
    """
    op_span = tracer.op if tracer is not None else _no_span
    state = None

    def set_up() -> None:
        nonlocal state
        tables = state.tables if state is not None and not workload.archives else {}
        state = None
        gc.collect()
        with op_span("setup", None):
            t0 = time.perf_counter()
            fresh = setup(workload, inputs)
            dt = time.perf_counter() - t0
        fresh.tables.update(tables)  # keep the trained tables the evaluation rounds rank with
        state = fresh
        setups.add("setup", dt, 1)
        setups.spent += dt
        setups.rounds += 1

    def run_round(phase, items, run_one) -> None:
        for model, item in items:
            checker.attempted += 1
            failed = checker.failed
            t0 = time.perf_counter()
            try:
                dt = run_one(phase, model, item)
            except Exception as e:  # a failing operation is a measured outcome
                dt = time.perf_counter() - t0
                if checker.failed == failed:
                    checker.fail(f"{model} raised {type(e).__name__}: {e}")
            phase.spent += dt
        phase.rounds += 1

    def train_one(phase, model, cfg):
        archive = inputs / f"trained-{model}.kgeu"
        with op_span("train", model) as record:
            result, dt, pairs = train_op(state, cfg, archive)
        if record is not None:
            record.epoch_ms = [e.wall_ms for e in result.log]
        phase.add(model, dt, pairs)
        table = checker.check_train(model, result, archive, state.train_vocab)
        if not workload.archives and table is not None:
            state.tables[model] = table
        return dt

    def eval_one(phase, model, table):
        with op_span("eval", model) as record:
            report, dt, queries = eval_op(state, table)
        if record is not None:
            record.queries = queries
        phase.add(model, dt, queries)
        checker.check_eval(model, report, table, state)
        return dt

    configs = [(cfg.model.model, replace(cfg, seed=seed)) for cfg in workload.configs]
    train_budget = seconds * workload.train_share
    setups = PhaseResult(budget=SETUP_SECONDS)
    trained = PhaseResult(budget=train_budget)
    # The host's speed changes in blocks of seconds. evaluate() calls are
    # short, so a run's fastest call is its steadiest figure; a run makes
    # only about ten longer train() calls, whose fastest depends on luck, so
    # training takes the median (see README.md, Bounds).
    ranked = PhaseResult(budget=seconds - train_budget, typical=min)
    phases = (
        (setups, min_setups, lambda: True, set_up),
        (trained, MIN_ROUNDS, lambda: True, lambda: run_round(trained, configs, train_one)),
        (ranked, MIN_ROUNDS, lambda: bool(state.tables),
         lambda: run_round(ranked, list(state.tables.items()), eval_one)),
    )
    set_up()
    while True:
        pending = [(phase, step) for phase, minimum, ready, step in phases
                   if ready() and (phase.rounds < minimum
                                   or (phase.spent < phase.budget and phase.rounds < MAX_ROUNDS))]
        if not pending:
            return setups, trained, ranked
        min(pending, key=lambda p: p[0].spent / p[0].budget)[1]()


def _no_span(kind: str, model: str):
    return contextlib.nullcontext()


if __name__ == "__main__":  # input generation, run in a child process by run.py
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
