"""Tracing from the outside: wrappers assigned to kgeu module attributes.

Hooks are installed only for the traced run and removed after it. Each
wrapped call records a span (name, start, end, parent, operation), kept
in memory and written out when the run ends; counts are recorded at the
same calls. A hook whose target no longer exists is reported as absent
and the run goes on without it, so renaming a function in kgeu costs the
trace one metric, never the run.
"""

import contextlib
import functools
import gzip
import importlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

MODELS = ("transe", "transh", "complex")


def _lines(c, args, out):
    c("ingest.lines", len(out))


def _archive_bytes(c, args, out):
    c("store.archive_bytes", Path(args[3]).stat().st_size)


def _drawn(c, args, out):
    c("trainer.negatives_drawn", 1)
    c("trainer.cap_hits", int(bool(out[1])))


def _scatter(c, args, out):
    c("models.scatter_rows_in", len(args[0]))
    c("models.scatter_rows_out", len(out[0]))


def _adam(c, args, out):
    grad = args[2]
    c("trainer.batches", 1)
    c("trainer.adam_rows", len(grad.node_ids) + len(grad.normal_slots))


def _scored(c, args, out):
    table, rows = args[0], len(args[1])
    c("evaluator.candidates_scored", rows)
    c("models.score_gather_bytes", 3 * rows * table.config.width * 8)


def _lookup(c, args, out):
    c("vocab.index_lookups", 1)
    c("evaluator.known_answers", len(out))


def _member(c, args, out):
    c("trainer.membership_tests", 1)


# (module, attribute, span name or None for count-only, counter)
HOOKS = (
    ("kgeu.ingest", "parse_tsv", "ingest.parse_tsv", _lines),
    ("kgeu.vocab", "build_vocabulary", "vocab.build", None),
    ("kgeu.vocab", "intern", "vocab.intern", None),
    ("kgeu.vocab", "TripleIndex.__init__", "vocab.index_build", None),
    ("kgeu.vocab", "TripleIndex.__contains__", None, _member),
    ("kgeu.vocab", "TripleIndex.objects_for", "vocab.index_lookup", _lookup),
    ("kgeu.vocab", "TripleIndex.subjects_for", "vocab.index_lookup", _lookup),
    ("kgeu.store", "save", "store.save", _archive_bytes),
    ("kgeu.store", "load", "store.load", None),
    ("kgeu.trainer", "train", "trainer.train", None),
    ("kgeu.trainer", "negative_sample", "trainer.negative_sample", _drawn),
    ("kgeu.trainer", "pair_grad_batch", "models.pair_grad", None),
    ("kgeu.models", "scatter_sum", "models.scatter_sum", _scatter),
    ("kgeu.trainer", "adam_step", "trainer.adam_step", _adam),
    ("kgeu.trainer", "renormalize_entities", "trainer.renorm", None),
    ("kgeu.trainer", "renormalize_normals", "trainer.renorm", None),
    ("kgeu.evaluator", "evaluate", "evaluator.evaluate", None),
    ("kgeu.evaluator", "score_batch", "models.score_batch", _scored),
    ("kgeu.evaluator", "rank_from_scores", "evaluator.rank", None),
)


@dataclass
class Op:
    """One benchmark operation: a set-up, a train()+save() or an evaluate()."""
    kind: str
    model: str | None
    epoch_ms: list = field(default_factory=list)
    queries: int = 0


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent span, op index)
        self.ops: list[Op] = []
        self.counts: dict = {}       # (op index, counter) -> total
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self._op)

    def _count(self, name: str, value: int) -> None:
        key = (self._op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def op(self, kind: str, model: str | None):
        """Bench-level span around one operation; yields its Op record."""
        record = Op(kind, model)
        self.ops.append(record)
        self._op = len(self.ops) - 1
        self.active = True
        idx = self._open("bench." + kind)
        start = perf_counter()
        try:
            yield record
        finally:
            self._close(idx, "bench." + kind, start)
            self.active = False
            self._op = -1

    @contextlib.contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def _wrap(self, fn, name, counter):
        tracer = self

        def count(c_name, value):
            tracer._count(c_name, value)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name is None:
                out = fn(*args, **kwargs)
            else:
                idx = tracer._open(name)
                start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, name, start)
            if counter is not None:
                try:
                    counter(count, args, out)
                except Exception:  # the program changed shape; lose the count, not the run
                    tracer.broken.add(counter.__name__)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        for module_name, attr, name, counter in hooks:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, name, counter))
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines, gzip-compressed, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                model = self.ops[op].model if op >= 0 else None
                f.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, model, op]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class _OpTotals:
    """Span durations, self times and counts summed over one operation."""

    def __init__(self):
        self.dur: dict = {}
        self.self_: dict = {}
        self.counts: dict = {}

    def d(self, name):
        return self.dur.get(name, 0.0)

    def s(self, name):
        return self.self_.get(name, 0.0)

    def c(self, name):
        return self.counts.get(name, 0)


def _percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, value for one operation)
TRAIN = {
    "trainer.negative_sample_s": ("s", lambda t, op: t.d("trainer.negative_sample")),
    "trainer.negatives_drawn": ("count", lambda t, op: t.c("trainer.negatives_drawn")),
    "trainer.membership_tests": ("count", lambda t, op: t.c("trainer.membership_tests")),
    "trainer.neg_accept_ratio": ("ratio", lambda t, op: _ratio(t.c("trainer.negatives_drawn"),
                                                               t.c("trainer.membership_tests"))),
    "trainer.cap_hits": ("count", lambda t, op: t.c("trainer.cap_hits")),
    "models.pair_grad_self_s": ("s", lambda t, op: t.s("models.pair_grad")),
    "models.scatter_sum_s": ("s", lambda t, op: t.d("models.scatter_sum")),
    "models.scatter_rows_in": ("count", lambda t, op: t.c("models.scatter_rows_in")),
    "models.scatter_rows_out": ("count", lambda t, op: t.c("models.scatter_rows_out")),
    "trainer.adam_step_s": ("s", lambda t, op: t.d("trainer.adam_step")),
    "trainer.adam_rows": ("count", lambda t, op: t.c("trainer.adam_rows")),
    "trainer.renorm_s": ("s", lambda t, op: t.d("trainer.renorm")),
    "trainer.index_build_s": ("s", lambda t, op: t.d("vocab.index_build")),
    "trainer.train_self_s": ("s", lambda t, op: t.s("trainer.train")),
    "trainer.batches": ("count", lambda t, op: t.c("trainer.batches")),
    "trainer.epoch_ms_p50": ("ms", lambda t, op: _percentile(op.epoch_ms, 0.5)),
    "trainer.epoch_ms_p90": ("ms", lambda t, op: _percentile(op.epoch_ms, 0.9)),
    "store.save_s": ("s", lambda t, op: t.d("store.save")),
    "store.archive_bytes": ("bytes", lambda t, op: t.c("store.archive_bytes")),
}
EVAL = {
    "models.score_batch_s": ("s", lambda t, op: t.d("models.score_batch")),
    "models.score_gather_bytes": ("bytes", lambda t, op: t.c("models.score_gather_bytes")),
    "evaluator.candidates_scored": ("count", lambda t, op: t.c("evaluator.candidates_scored")),
    "evaluator.evaluate_self_s": ("s", lambda t, op: t.s("evaluator.evaluate")),
    "evaluator.rank_s": ("s", lambda t, op: t.d("evaluator.rank")),
    "evaluator.queries": ("count", lambda t, op: op.queries),
    "evaluator.known_filtered": ("count", lambda t, op: max(0, t.c("evaluator.known_answers") - op.queries)),
    "vocab.index_lookup_s": ("s", lambda t, op: t.d("vocab.index_lookup")),
    "vocab.index_lookups": ("count", lambda t, op: t.c("vocab.index_lookups")),
}
SETUP = {
    "ingest.parse_tsv_s": ("s", lambda t, op: t.d("ingest.parse_tsv")),
    "ingest.lines": ("count", lambda t, op: t.c("ingest.lines")),
    "vocab.build_s": ("s", lambda t, op: t.d("vocab.build")),
    "vocab.intern_s": ("s", lambda t, op: t.d("vocab.intern")),
    "vocab.index_build_s": ("s", lambda t, op: t.d("vocab.index_build")),
    "store.load_s": ("s", lambda t, op: t.d("store.load")),
}
OVERHEAD = {
    "trace.overhead.setup_s": "s",
    "trace.overhead.train_pairs_per_s": "1/s",
    "trace.overhead.eval_queries_per_s": "1/s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for table in (TRAIN, EVAL):
        for name, (unit, _) in table.items():
            for model in MODELS:
                units[f"{name}.{model}"] = unit
    units.update({name: unit for name, (unit, _) in SETUP.items()})
    units.update(OVERHEAD)
    units["trace.hooks_absent"] = "count"
    return units


def _totals(tracer: Tracer) -> list[_OpTotals]:
    totals = [_OpTotals() for _ in tracer.ops]
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op < 0:
            continue
        t = totals[op]
        t.dur[name] = t.dur.get(name, 0.0) + (end - start)
        t.self_[name] = t.self_.get(name, 0.0) + (end - start - child[i])
    for (op, name), value in tracer.counts.items():
        if op >= 0:
            totals[op].counts[name] = value
    return totals


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Each metric is the median over the operations it belongs to;
    operations of a model the workload does not run give 0."""
    totals = _totals(tracer)
    values: dict[str, list] = {}
    for op, t in zip(tracer.ops, totals):
        table = {"train": TRAIN, "eval": EVAL, "setup": SETUP}[op.kind]
        suffix = "" if op.kind == "setup" else f".{op.model}"
        for name, (_, value) in table.items():
            values.setdefault(name + suffix, []).append(value(t, op))
    out = {name: 0.0 for name in metric_units()}
    out.update({name: float(statistics.median(v)) for name, v in values.items()})
    out["trace.hooks_absent"] = float(len(tracer.absent) + len(tracer.broken))
    return out
