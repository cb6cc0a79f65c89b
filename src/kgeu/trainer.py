"""Negative sampling, sparse Adam, and the training loop.

Training is single-writer and fully deterministic for a given seed: the
seed spawns three independent streams (initialization, epoch shuffling,
negative sampling), batches sum pair gradients in fixed index order, and
all arithmetic is float64.
"""

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import EmptyDatasetError, InvalidConfigError, NonFiniteUpdateError
from .models import (
    SHARE_MODES,
    EmbeddingTable,
    ModelConfig,
    SparseGrad,
    init_embeddings,
    is_finite_real,
    is_int,
    pair_grad_batch,
    plan_pairs,
    renormalize_entities,
    renormalize_normals,
)
from .vocab import IdTriples, TripleIndex, Vocabulary, id_array

MAX_REJECTION_ATTEMPTS = 100
FULL_BATCH_LIMIT = 10_000  # datasets smaller than this default to one batch per epoch


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    learning_rate: float = 0.001
    epochs: int = 1000
    batch_size: int | None = None      # None: 512, or full-batch under FULL_BATCH_LIMIT
    negatives: int = 1                 # negatives per positive
    corruption: str = "uniform"        # replace head or tail, uniformly
    share: str = "always"              # or "init-only": copy at init, train apart
    seed: int = 0

    def __post_init__(self):
        if not (is_finite_real(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfigError("learning_rate must be positive and finite")
        if not (is_int(self.epochs) and self.epochs >= 1):
            raise InvalidConfigError("epochs must be an integer of at least 1")
        if self.batch_size is not None and not (is_int(self.batch_size) and self.batch_size >= 1):
            raise InvalidConfigError("batch_size must be an integer of at least 1")
        if not (is_int(self.negatives) and self.negatives >= 1):
            raise InvalidConfigError("negatives must be an integer of at least 1")
        if not (is_int(self.seed) and self.seed >= 0):
            raise InvalidConfigError("seed must be a non-negative integer")
        if self.corruption != "uniform":
            raise InvalidConfigError(f"unknown corruption scheme {self.corruption!r}")
        if self.share not in SHARE_MODES:
            raise InvalidConfigError(f"unknown share mode {self.share!r}")

    def to_dict(self) -> dict:
        """Every field by name, the model's fields inlined: the archive
        header's config keys."""
        d = asdict(self)
        return dict(d.pop("model"), **d)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of to_dict; a missing or unknown key, or a value that
        breaks an invariant, raises InvalidConfigError."""
        model_keys = [f.name for f in fields(ModelConfig)]
        own_keys = [f.name for f in fields(cls) if f.name != "model"]
        for k in model_keys + own_keys:
            if k not in d:
                raise InvalidConfigError(f"missing key {k!r}")
        for k in d:
            if k not in model_keys + own_keys:
                raise InvalidConfigError(f"unknown key {k!r}")
        return cls(model=ModelConfig(**{k: d[k] for k in model_keys}), **{k: d[k] for k in own_keys})

    def resolved_batch_size(self, n_triples: int) -> int:
        if self.batch_size is not None:
            return self.batch_size
        return n_triples if n_triples < FULL_BATCH_LIMIT else 512


def negative_samples(
    pos: np.ndarray, entities: np.ndarray, index: TripleIndex, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Corrupt the head or tail (never the predicate) of every (B, 3)
    positive with a uniform entity.

    One coin per row picks the side. Each round redraws the replacement
    of every row whose corruption is still a known positive, up to
    MAX_REJECTION_ATTEMPTS rounds; a row still rejected then keeps its
    last draw. Returns the negatives and the number of such capped rows.
    """
    neg = pos.copy()
    col = np.where(rng.random(len(pos)) < 0.5, 0, 2)
    pending = np.arange(len(pos))
    for _ in range(MAX_REJECTION_ATTEMPTS):
        neg[pending, col[pending]] = entities[rng.integers(len(entities), size=len(pending))]
        pending = pending[index.contains(neg[pending])]
        if not len(pending):
            break
    return neg, len(pending)


class AdamState:
    """First/second-moment accumulators shaped like every parameter,
    updated sparsely: rows a step does not touch keep their moments."""

    def __init__(self, table: EmbeddingTable, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m_nodes = np.zeros_like(table.node_vectors)
        self.v_nodes = np.zeros_like(table.node_vectors)
        if table.relation_normals is not None:
            self.m_normals = np.zeros_like(table.relation_normals)
            self.v_normals = np.zeros_like(table.relation_normals)
        else:
            self.m_normals = self.v_normals = None

    def _update(self, params: np.ndarray, m: np.ndarray, v: np.ndarray,
                ids: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """Adam on rows `ids` (unique ascending): each of m, v and params is
        gathered and scattered once, or, when `ids` is every row, updated
        where it is; the arithmetic is the textbook order,
        p -= lr * m_hat / (sqrt(v_hat) + eps), done in place."""
        b1, b2 = self.beta1, self.beta2
        whole = len(ids) == len(params)
        # overflow/invalid surface as non-finite params and raise below
        with np.errstate(invalid="ignore", over="ignore"):
            mi, vi, pi = (m, v, params) if whole else (m[ids], v[ids], params[ids])
            g = np.multiply(grads, 1.0 - b1)
            mi *= b1
            mi += g                                   # b1 * m + (1 - b1) * g
            np.multiply(grads, grads, out=g)
            g *= 1.0 - b2
            vi *= b2
            vi += g                                   # b2 * v + (1 - b2) * g**2
            if not whole:
                m[ids] = mi
                v[ids] = vi
            mi = np.divide(mi, 1.0 - b1 ** self.step, out=None if whole else mi)    # m_hat
            vi = np.divide(vi, 1.0 - b2 ** self.step, out=g)                          # v_hat
            np.sqrt(vi, out=vi)
            vi += self.eps
            mi *= lr
            mi /= vi
            pi -= mi
            if not whole:
                params[ids] = pi
        if not np.isfinite(pi).all():
            raise NonFiniteUpdateError()


def adam_step(table: EmbeddingTable, adam: AdamState, grad: SparseGrad, learning_rate: float) -> None:
    """One bias-corrected Adam step applied to the touched rows only."""
    adam.step += 1
    if len(grad.node_ids):
        adam._update(table.node_vectors, adam.m_nodes, adam.v_nodes,
                     grad.node_ids, grad.node_grads, learning_rate)
    if len(grad.normal_slots):
        adam._update(table.relation_normals, adam.m_normals, adam.v_normals,
                     grad.normal_slots, grad.normal_grads, learning_rate)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    wall_ms: float

    def log_line(self) -> str:
        return f"{self.epoch}\t{self.mean_loss:.6f}\t{self.wall_ms:.1f}"


@dataclass
class TrainResult:
    table: EmbeddingTable
    log: list[EpochStats]
    rejection_cap_hits: int

    def log_text(self) -> str:
        return "".join(s.log_line() + "\n" for s in self.log)


@np.errstate(over="ignore", invalid="ignore")  # non-finite losses and parameters raise below
def train(train_triples: IdTriples, vocab: Vocabulary, config: TrainConfig) -> TrainResult:
    """Run the full training loop and return the learned table.

    Per epoch: shuffle, corrupt each positive into `negatives` negatives
    with one negative_samples call, plan the batches' scatters from their
    ids (plan_pairs), then per batch sum the pair gradients, apply Adam,
    and re-apply per-model constraints (transe entity renorm at epoch end;
    transh normals after every step). Corruption rejection checks
    negatives against the training triples.
    """
    triples = id_array(train_triples)
    if not len(triples):
        raise EmptyDatasetError("no training triples")
    index = TripleIndex(triples)

    init_rng, shuffle_rng, sample_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(3)
    )
    table = init_embeddings(config.model, vocab, init_rng, share=config.share)
    adam = AdamState(table)

    n = len(triples)
    pairs_per_batch = config.resolved_batch_size(n) * config.negatives
    cap_hits = 0
    log: list[EpochStats] = []

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        pos = triples[shuffle_rng.permutation(n)]
        if config.negatives > 1:
            pos = np.repeat(pos, config.negatives, axis=0)
        neg, capped = negative_samples(pos, vocab.entity_ids, index, sample_rng)
        cap_hits += capped
        loss_sum = 0.0
        pair_count = 0
        for batch_no, plan in enumerate(plan_pairs(table, pos, neg, pairs_per_batch)):
            batch = slice(batch_no * pairs_per_batch, (batch_no + 1) * pairs_per_batch)
            try:
                grad, losses = pair_grad_batch(table, pos[batch], neg[batch], plan)
                adam_step(table, adam, grad, config.learning_rate)
            except NonFiniteUpdateError:
                raise NonFiniteUpdateError(epoch=epoch, batch=batch_no) from None
            if config.model.model == "transh" and len(grad.normal_slots):
                renormalize_normals(table, grad.normal_slots)
            loss_sum += float(losses.sum())
            pair_count += len(losses)
        if config.model.model == "transe":
            renormalize_entities(table, vocab)
        if not table.all_finite():
            raise NonFiniteUpdateError(epoch=epoch)
        if not np.isfinite(loss_sum):
            raise NonFiniteUpdateError(epoch=epoch, quantity="loss")
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.append(EpochStats(epoch, loss_sum / pair_count, wall_ms))

    return TrainResult(table, log, cap_hits)
