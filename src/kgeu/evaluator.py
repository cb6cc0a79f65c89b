"""Link-prediction evaluation: raw/filtered MeanRank and Hits@k.

For each test triple and direction, every candidate id is substituted
into the missing position and scored. A CandidateScreen places most
candidates of a chunk of test triples above or below the true answer's
bitwise score_batch score, from one matrix product against the table and
a proven error bound; the rest are rescored with score_batch, so every
rank is the one that bitwise scores give. The filtered setting removes
candidates that form a known triple, except the true answer. Ties are
broken pessimistically: a candidate scoring exactly the true answer's
score counts against it, so a constant scorer earns the worst-case rank.
"""

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import EmptyDatasetError, InvalidConfigError, TrueAnswerNotCandidateError
from .models import BLOCK_BYTES, DIRECTIONS, CandidateScreen, EmbeddingTable, is_int, score_batch
from .vocab import IdTriples, TripleIndex, Vocabulary, id_array

CANDIDATE_POLICIES = ("entities-only", "entities-plus-shared-properties")
TIE_BREAK = "pessimistic"
# Test triples per screen call, at most, and fewer where their query rows
# (triples x directions) times the ids would exceed SCREEN_ELEMENTS: evaluate()
# holds a few such arrays, however large the table, and reads it in place.
# Each cap is the faster one somewhere. On a 2,277-id TransE d=200 table,
# 4,342 triples took 280-310 ms in chunks of 64 and 354-387 ms in the chunks
# of 230 that SCREEN_ELEMENTS alone allows; on 16,296 ids, 2,048 triples took
# 20-35% longer with SCREEN_ELEMENTS at 2^18 or 2^19 (8 or 16 per chunk)
# than at 2^20 (32 per chunk).
QUERY_CHUNK = 64
SCREEN_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class EvalConfig:
    candidate_policy: str = "entities-only"
    hits_k: int = 10
    directions: tuple[str, ...] = ("head", "tail")

    def __post_init__(self):
        if self.candidate_policy not in CANDIDATE_POLICIES:
            raise InvalidConfigError(f"unknown candidate policy {self.candidate_policy!r}")
        if not (is_int(self.hits_k) and self.hits_k >= 1):
            raise InvalidConfigError("hits_k must be an integer of at least 1")
        if not self.directions or any(d not in ("head", "tail") for d in self.directions):
            raise InvalidConfigError("directions must be a non-empty subset of head/tail")


def candidate_set(vocab: Vocabulary, policy: str = "entities-only") -> np.ndarray:
    """Ranking candidates, ascending by id.

    'entities-only' is E1 exactly: terms that never occur as a node are
    excluded. Under a unified vocabulary E1 already contains the shared
    property ids. 'entities-plus-shared-properties' additionally admits
    the property-role ids of dual-role terms, which only differs from E1
    for non-unified vocabularies.
    """
    if policy not in CANDIDATE_POLICIES:
        raise InvalidConfigError(f"unknown candidate policy {policy!r}")
    if policy == "entities-only":
        return vocab.entity_ids
    shared = np.fromiter((pid for _, _, pid in vocab.shared_terms()), dtype=np.int64)
    return np.union1d(vocab.entity_ids, shared)


def _chunk_ranks(screen: CandidateScreen, triples: np.ndarray, directions: tuple[str, ...],
                 index: TripleIndex) -> tuple[np.ndarray, np.ndarray]:
    """Raw and filtered ranks of the true answers of (Q, 3) `triples`, as
    (len(directions), Q) arrays.

    Both count, from one (D·Q, n_ids) `score >= true score` matrix with
    the columns of non-candidates masked out, the other candidates that
    tie or beat the true answer; the filtered rank then drops those that
    complete a known triple, found with index.known(). score_batch gives
    the true scores and those of the candidates the screen cannot place.
    """
    table, n_q = screen.table, len(triples)
    slots = np.array([DIRECTIONS.index(d) for d in directions])
    true_ids = triples[:, slots].T.ravel()      # the true answer's column in each row
    bad = ~screen.is_candidate[true_ids]
    if bad.any():
        i = int(np.argmax(bad))
        raise TrueAnswerNotCandidateError(
            f"true {directions[i // n_q]} id {true_ids[i]} is not in the candidate set")
    true = score_batch(table, triples)
    ge, unsure = screen(triples, directions, true)
    ge &= screen.is_candidate
    unsure &= screen.is_candidate
    r = np.arange(len(ge))
    unsure[r, true_ids] = False
    rq, rc = np.divmod(np.flatnonzero(unsure), unsure.shape[1])  # 2-d np.nonzero is many times slower
    step = max(1, BLOCK_BYTES // (table.node_vectors.itemsize * table.config.width))
    for b0 in range(0, len(rq), step):
        iq, ic = rq[b0:b0 + step], rc[b0:b0 + step]
        rescored = triples[iq % n_q]
        rescored[np.arange(len(iq)), slots[iq // n_q]] = ic
        ge[iq, ic] = score_batch(table, rescored) >= true[iq % n_q]
    ge[r, true_ids] = False
    # a popcount of the packed rows: several times faster than count_nonzero(axis=1)
    raw = 1 + np.bitwise_count(np.packbits(ge, axis=1)).sum(axis=1, dtype=np.intp).reshape(len(directions), n_q)
    filt = raw.copy()
    for k, direction in enumerate(directions):
        rows, ids = index.known(np.delete(triples, slots[k], axis=1), direction)
        inside = ids < ge.shape[1]
        rows, ids = rows[inside], ids[inside]
        filt[k] -= np.bincount(rows[ge[k * n_q + rows, ids]], minlength=n_q)
    if np.any(filt > raw):
        k, bad = np.unravel_index(np.argmax(filt > raw), filt.shape)
        raise RuntimeError(f"filtered rank {filt[k, bad]} exceeds raw rank {raw[k, bad]} "
                           f"for {directions[k]} of {tuple(triples[bad].tolist())}")
    return raw, filt


@dataclass(frozen=True)
class DirectionStats:
    mean_rank_raw: float
    mean_rank_filtered: float
    hits_raw: float
    hits_filtered: float


@dataclass(frozen=True)
class EvalReport:
    n_triples: int
    n_candidates: int
    hits_k: int
    candidate_policy: str
    mean_rank_raw: float
    mean_rank_filtered: float
    hits_raw: float       # percentages
    hits_filtered: float
    head: DirectionStats
    tail: DirectionStats

    def to_dict(self) -> dict:
        d = asdict(self)
        d["per_direction"] = {"head": d.pop("head"), "tail": d.pop("tail")}
        return dict(d, tie_break=TIE_BREAK)


def _stats(ranks_raw: np.ndarray, ranks_filt: np.ndarray, k: int) -> DirectionStats:
    """Means as integer sums and counts over n, rounded once: the bits of
    the float64 means while sums stay below 2^53, where their partial sums
    are exact."""
    n = len(ranks_raw)
    return DirectionStats(
        mean_rank_raw=int(ranks_raw.sum()) / n,
        mean_rank_filtered=int(ranks_filt.sum()) / n,
        hits_raw=int(np.count_nonzero(ranks_raw <= k)) / n * 100.0,
        hits_filtered=int(np.count_nonzero(ranks_filt <= k)) / n * 100.0,
    )


def evaluate(
    table: EmbeddingTable,
    test_triples: IdTriples,
    vocab: Vocabulary,
    index: TripleIndex,
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Rank every test triple in every configured direction.

    MeanRank averages over (triples x directions); Hits@k is the
    percentage of those ranks at or under k. `index` holds the known
    triples removed in the filtered setting (conventionally the union of
    train and test). Results are deterministic for fixed inputs.
    """
    triples = id_array(test_triples)
    if not len(triples):
        raise EmptyDatasetError("no test triples to evaluate")
    candidates = candidate_set(vocab, config.candidate_policy)
    screen = CandidateScreen(table, candidates)
    per_triple = len(config.directions) * len(table.node_vectors)
    step = max(1, min(QUERY_CHUNK, SCREEN_ELEMENTS // per_triple))
    chunks = [_chunk_ranks(screen, triples[start:start + step], config.directions, index)
              for start in range(0, len(triples), step)]
    raw = np.concatenate([r for r, _ in chunks], axis=1)
    filt = np.concatenate([f for _, f in chunks], axis=1)

    ranks = dict(zip(config.directions, zip(raw, filt)))
    combined = _stats(raw.ravel(), filt.ravel(), config.hits_k)
    empty = DirectionStats(0.0, 0.0, 0.0, 0.0)
    head = _stats(*ranks["head"], config.hits_k) if "head" in ranks else empty
    tail = _stats(*ranks["tail"], config.hits_k) if "tail" in ranks else empty
    return EvalReport(
        n_triples=len(triples),
        n_candidates=len(candidates),
        hits_k=config.hits_k,
        candidate_policy=config.candidate_policy,
        **vars(combined),
        head=head,
        tail=tail,
    )


def model_label(model: str, unified: bool) -> str:
    name = {"transe": "TransE", "transh": "TransH", "complex": "ComplEx"}[model]
    return f"TransU({name})" if unified else name


def render_report_table(rows: list[tuple[str, EvalReport]], hits_k: int = 10) -> str:
    """Text table with one row per (label, report), 1-decimal precision."""
    header = ("Model", "MeanRank(Raw)", "MeanRank(Filter)", f"Hit@{hits_k}(Raw)", f"Hit@{hits_k}(Filter)")
    body = [
        (
            label,
            f"{r.mean_rank_raw:.1f}",
            f"{r.mean_rank_filtered:.1f}",
            f"{r.hits_raw:.1f}",
            f"{r.hits_filtered:.1f}",
        )
        for label, r in rows
    ]
    widths = [max(len(row[i]) for row in [header] + body) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in [header] + body]
    return "\n".join(lines) + "\n"


def summarize_reports(reports: list[EvalReport], hits_k: int) -> tuple[EvalReport, EvalReport]:
    """Avg and Best aggregates over multi-seed reports.

    Avg averages every metric; Best is the single report with the lowest
    filtered MeanRank.
    """
    if not reports:
        raise InvalidConfigError("no reports to summarize")

    def mean_stats(stats: list) -> dict:
        return {f.name: float(np.mean([getattr(x, f.name) for x in stats])) for f in fields(DirectionStats)}

    avg = replace(
        reports[0],
        hits_k=hits_k,
        **mean_stats(reports),
        head=DirectionStats(**mean_stats([r.head for r in reports])),
        tail=DirectionStats(**mean_stats([r.tail for r in reports])),
    )
    best = min(reports, key=lambda r: r.mean_rank_filtered)
    return avg, best
