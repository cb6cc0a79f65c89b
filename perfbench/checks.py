"""Correctness checks that decide whether an operation failed.

* Training: the table is finite and the last epoch's mean loss is below
  the first epoch's.
* Archives: save -> load gives bitwise-equal arrays, saving the loaded
  table again gives identical bytes, and every training operation of one
  model writes the same bytes (training is deterministic per seed).
* Evaluation: a brute-force numpy oracle, which calls neither
  score_batch, rank nor TripleIndex, ranks the same queries again. Raw and
  filtered ranks must match exactly under pessimistic ties, and filtered
  must not exceed raw.
"""

import contextlib
import hashlib
from pathlib import Path

import numpy as np

import kgeu.evaluator as evaluator
import kgeu.store as store
from kgeu.errors import KgeError

from workloads import EVAL_CONFIG

REL_TOL = 1e-9  # means of integer ranks; one rank off moves a mean by far more
CHUNK = 1_024   # candidates the oracle scores at once, so it adds little to peak memory


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def _oracle_scores(table, query, direction: str, candidates: np.ndarray) -> np.ndarray:
    """Scores of every candidate in the missing position, straight from the
    model definitions (see kgeu.models), CHUNK candidates at a time."""
    return np.concatenate([_chunk_scores(table, query, direction, candidates[i:i + CHUNK])
                           for i in range(0, len(candidates), CHUNK)])


def _chunk_scores(table, query, direction: str, candidates: np.ndarray) -> np.ndarray:
    cfg = table.config
    rows = table.node_vectors
    s, p, o = query
    if direction == "head":
        heads, tails = rows[candidates], rows[[o]]
    else:
        heads, tails = rows[[s]], rows[candidates]
    rel = rows[p]
    if cfg.model == "complex":
        dim = cfg.dim
        zh = heads[:, :dim] + 1j * heads[:, dim:]
        zr = rel[:dim] + 1j * rel[dim:]
        zt = tails[:, :dim] + 1j * tails[:, dim:]
        return np.real(np.sum(zh * zr * np.conj(zt), axis=1))
    if cfg.model == "transh":
        w = table.relation_normals[int(np.flatnonzero(table.property_ids == p)[0])]
        heads = heads - np.outer(heads @ w, w)
        tails = tails - np.outer(tails @ w, w)
    d = heads + rel - tails
    if cfg.norm == "l2":
        return -np.sqrt(np.sum(d * d, axis=1))
    return -np.sum(np.abs(d), axis=1)


def oracle_ranks(table, queries, known: np.ndarray, candidates: np.ndarray, directions) -> list:
    """(raw, filtered) pessimistic ranks per query and direction, in the
    order evaluate() visits them: triple by triple, directions inside."""
    out = []
    for t in queries:
        s, p, o = (int(v) for v in t)
        for direction in directions:
            scores = _oracle_scores(table, (s, p, o), direction, candidates)
            if direction == "head":
                true_id = s
                answers = known[(known[:, 1] == p) & (known[:, 2] == o), 0]
            else:
                true_id = o
                answers = known[(known[:, 0] == s) & (known[:, 1] == p), 2]
            is_true = candidates == true_id
            beats = (scores >= scores[is_true][0]) & ~is_true
            filtered_out = np.isin(candidates, answers)
            out.append((1 + int(np.count_nonzero(beats)), 1 + int(np.count_nonzero(beats & ~filtered_out))))
    return out


def _aggregates(ranks: list, k: int) -> dict:
    raw = [r for r, _ in ranks]
    filt = [f for _, f in ranks]
    return {
        "mean_rank_raw": sum(raw) / len(raw),
        "mean_rank_filtered": sum(filt) / len(filt),
        "hits_raw": 100.0 * sum(r <= k for r in raw) / len(raw),
        "hits_filtered": 100.0 * sum(f <= k for f in filt) / len(filt),
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def compare_report(report, ranks: list, directions, k: int) -> list[str]:
    """Differences between an EvalReport and the oracle's ranks."""
    problems = []
    expected = {"combined": _aggregates(ranks, k)}
    for i, direction in enumerate(directions):
        expected[direction] = _aggregates(ranks[i::len(directions)], k)
    for scope, want in expected.items():
        got = report if scope == "combined" else getattr(report, scope)
        for key, value in want.items():
            if not _close(getattr(got, key), value):
                problems.append(f"{scope} {key}: program {getattr(got, key)!r}, oracle {value!r}")
        if got.mean_rank_filtered > got.mean_rank_raw or got.hits_filtered < got.hits_raw:
            problems.append(f"{scope}: filtered is worse than raw")
    return problems


# ---------------------------------------------------------------------------
# Checker: runs the checks and counts failed operations
# ---------------------------------------------------------------------------

def _table_digest(table) -> str:
    """sha256 of the table's arrays (shape, dtype and bits), read in place
    through the buffer protocol rather than copied."""
    h = hashlib.sha256()
    for a in (table.node_vectors, table.relation_normals):
        if a is not None:
            h.update(f"{a.shape}{a.dtype.str}".encode())
            h.update(np.ascontiguousarray(a))
    return h.hexdigest()


class Checker:
    """Checks each operation once it has returned. The caller counts
    `attempted`; `failed` counts the operations whose result was wrong."""

    def __init__(self):
        self.tracer = None  # set for the traced pass, whose hooks pause during checks
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._archive_digest: dict[str, str] = {}
        self._oracle: dict[tuple, list] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def _paused(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def check_train(self, model: str, result, archive: Path, vocab):
        """Check one train()+save() operation; returns the table loaded back
        from its archive, or None when it cannot be loaded."""
        with self._paused():
            problems, loaded = self._train_problems(model, result, archive, vocab)
        if problems:
            self.fail(f"train {model}: " + "; ".join(problems))
        return loaded

    def _train_problems(self, model, result, archive, vocab):
        problems = []
        table = result.table
        arrays = [table.node_vectors] + ([] if table.relation_normals is None else [table.relation_normals])
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("non-finite parameters")
        if not result.log[-1].mean_loss < result.log[0].mean_loss:
            problems.append(f"loss did not fall ({result.log[0].mean_loss} -> {result.log[-1].mean_loss})")
        written = archive.read_bytes()
        digest = hashlib.sha256(written).hexdigest()
        if self._archive_digest.setdefault(model, digest) != digest:
            problems.append("archive differs from an earlier operation with the same seed")
        try:
            loaded, loaded_vocab, loaded_cfg = store.load(archive)
        except KgeError as e:
            return problems + [f"archive does not load: {e}"], None
        if _table_digest(loaded) != _table_digest(table):
            problems.append("loaded arrays differ from the trained table")
        if loaded_vocab.id_to_term != vocab.id_to_term:
            problems.append("loaded vocabulary differs")
        again = archive.with_name(archive.name + ".again")
        store.save(loaded, loaded_vocab, loaded_cfg, again)
        if again.read_bytes() != written:
            problems.append("saving the loaded table gives other bytes")
        again.unlink()
        return problems, loaded

    def check_eval(self, model: str, report, table, state) -> None:
        """Compare one evaluate() report with the oracle. The first time a
        table is seen, each query is also ranked alone and compared."""
        with self._paused():
            problems = self._eval_problems(model, report, table, state)
        if problems:
            self.fail(f"eval {model}: " + "; ".join(problems[:3]))

    def _eval_problems(self, model, report, table, state) -> list[str]:
        directions = EVAL_CONFIG.directions
        k = EVAL_CONFIG.hits_k
        key = (model, _table_digest(table))
        problems = []
        if key not in self._oracle:
            # The program's own calls come first, while the oracle holds no
            # arrays, so the checks do not raise the program's peak memory.
            program = self._single_query_ranks(table, state, directions, k)
            candidates = np.asarray(state.eval_vocab.entity_ids, dtype=np.int64)
            known = np.array(state.known, dtype=np.int64).reshape(-1, 3)
            ranks = oracle_ranks(table, state.queries, known, candidates, directions)
            self._oracle[key] = ranks
            queries = [(tuple(t), d) for t in state.queries for d in directions]
            problems += [f"{t} {d}: program ranks {got}, oracle {want}"
                         for (t, d), got, want in zip(queries, program, ranks) if got != want]
        return problems + compare_report(report, self._oracle[key], directions, k)

    @staticmethod
    def _single_query_ranks(table, state, directions, k) -> list[tuple]:
        """(raw, filtered) rank of each query and direction, from evaluate()
        on that query alone, in the order oracle_ranks() gives them."""
        ranks = []
        for t in state.queries:
            for direction in directions:
                cfg = evaluator.EvalConfig(hits_k=k, directions=(direction,))
                one = evaluator.evaluate(table, [t], state.eval_vocab, state.index, cfg)
                ranks.append((one.mean_rank_raw, one.mean_rank_filtered))
        return ranks
