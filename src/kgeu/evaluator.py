"""Link-prediction evaluation: raw/filtered MeanRank and Hits@k.

For each test triple and direction, every candidate id is substituted
into the missing position and scored. A CandidateScreen scores a chunk of
QUERY_CHUNK test triples at a time with one matrix product, each score
with a proven error bound. Candidates that the bound places above or
below the true answer's bitwise score_batch score are counted from it;
the rest are rescored with score_batch and compared exactly, so every
rank is the one that bitwise scores give. The filtered setting removes
candidates that form a known triple, except the true answer. Ties are
broken pessimistically: a candidate scoring exactly the true answer's
score counts against it, so a constant scorer earns the worst-case rank.
"""

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import EmptyDatasetError, InvalidConfigError, TrueAnswerNotCandidateError
from .models import BLOCK_BYTES, DIRECTIONS, CandidateScreen, EmbeddingTable, is_int, score_batch
from .vocab import Triple, TripleIndex, Vocabulary, id_array

CANDIDATE_POLICIES = ("entities-only", "entities-plus-shared-properties")
TIE_BREAK = "pessimistic"
# Test triples per screen call: evaluate() holds a few QUERY_CHUNK x C
# arrays besides the C gathered candidate rows.
QUERY_CHUNK = 64


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


def _true_positions(triples: np.ndarray, direction: str, candidates: np.ndarray) -> np.ndarray:
    true_ids = triples[:, DIRECTIONS.index(direction)]
    pos = np.searchsorted(candidates, true_ids)
    bad = pos == len(candidates)
    bad[~bad] = candidates[pos[~bad]] != true_ids[~bad]
    if bad.any():
        raise TrueAnswerNotCandidateError(
            f"true {direction} id {true_ids[np.argmax(bad)]} is not in the candidate set"
        )
    return pos


def _chunk_ranks(screen: CandidateScreen, triples: np.ndarray, direction: str,
                 index: TripleIndex) -> tuple[np.ndarray, np.ndarray]:
    """Raw and filtered ranks of the true answers of (Q, 3) `triples`.

    Both count, from one (Q, C) `score >= true score` matrix, the other
    candidates that tie or beat the true answer; the filtered rank then
    drops those that complete a known triple, found with index.known().
    The true scores come from score_batch. A candidate is decided by the
    screen when approx - bound >= true score (counted) or approx + bound <
    true score (not counted); every other one, and every candidate of a
    query whose true score is not finite, is rescored with score_batch.
    """
    table, candidates = screen.table, screen.candidates
    slot = DIRECTIONS.index(direction)
    queries = np.delete(triples, slot, axis=1)
    true_pos = _true_positions(triples, direction, candidates)
    true = score_batch(table, triples[:, 0], triples[:, 1], triples[:, 2])
    approx, bound = screen(queries, direction)
    t = np.where(np.isfinite(true), true, np.nan)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # nan edges stay unsure
        edge = approx - bound
        ge = edge >= t
        np.add(approx, bound, out=edge)
        unsure = ~(ge | (edge < t))
    q = np.arange(len(triples))
    unsure[q, true_pos] = False
    rq, rc = np.nonzero(unsure)
    step = max(1, BLOCK_BYTES // (table.node_vectors.itemsize * table.config.width))
    for b0 in range(0, len(rq), step):
        iq, ic = rq[b0:b0 + step], rc[b0:b0 + step]
        rescored = triples[iq]
        rescored[:, slot] = candidates[ic]
        ge[iq, ic] = score_batch(table, rescored[:, 0], rescored[:, 1], rescored[:, 2]) >= true[iq]
    ge[q, true_pos] = False
    raw = 1 + np.count_nonzero(ge, axis=1)
    rows, ids = index.known(queries, direction)
    at = np.searchsorted(candidates, ids)
    hit = at < len(candidates)
    hit[hit] = candidates[at[hit]] == ids[hit]
    rows, at = rows[hit], at[hit]
    filt = raw - np.bincount(rows[ge[rows, at]], minlength=len(q))
    if np.any(filt > raw):
        bad = int(np.argmax(filt > raw))
        raise RuntimeError(f"filtered rank {filt[bad]} exceeds raw rank {raw[bad]} "
                           f"for {direction} of {Triple(*triples[bad].tolist())}")
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
    raw = ranks_raw.astype(np.float64)
    filt = ranks_filt.astype(np.float64)
    return DirectionStats(
        mean_rank_raw=float(raw.mean()),
        mean_rank_filtered=float(filt.mean()),
        hits_raw=float((raw <= k).mean() * 100.0),
        hits_filtered=float((filt <= k).mean() * 100.0),
    )


def evaluate(
    table: EmbeddingTable,
    test_triples: list[Triple],
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
    if not test_triples:
        raise EmptyDatasetError("no test triples to evaluate")
    candidates = candidate_set(vocab, config.candidate_policy)
    screen = CandidateScreen(table, candidates)
    by_dir: dict[str, tuple[list, list]] = {d: ([], []) for d in config.directions}
    for start in range(0, len(test_triples), QUERY_CHUNK):
        ids = id_array(test_triples[start:start + QUERY_CHUNK])
        for direction in config.directions:
            raw, filt = _chunk_ranks(screen, ids, direction, index)
            by_dir[direction][0].append(raw)
            by_dir[direction][1].append(filt)

    ranks = {d: (np.concatenate(raws), np.concatenate(filts)) for d, (raws, filts) in by_dir.items()}
    all_raw = np.concatenate([raw for raw, _ in ranks.values()])
    all_filt = np.concatenate([filt for _, filt in ranks.values()])
    combined = _stats(all_raw, all_filt, config.hits_k)
    empty = DirectionStats(0.0, 0.0, 0.0, 0.0)
    head = _stats(*ranks["head"], config.hits_k) if "head" in ranks else empty
    tail = _stats(*ranks["tail"], config.hits_k) if "tail" in ranks else empty
    return EvalReport(
        n_triples=len(test_triples),
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
