"""Link-prediction evaluation: raw/filtered MeanRank and Hits@k.

For each test triple and direction, every candidate id is substituted
into the missing position and scored; score_candidates scores a chunk of
QUERY_CHUNK test triples at a time. The filtered setting removes
candidates that form a known triple, except the true answer. Ties are
broken pessimistically: a candidate scoring exactly the true answer's
score counts against it, so a constant scorer earns the worst-case rank.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, InvalidConfigError, TrueAnswerNotCandidateError
from .models import EmbeddingTable, score_candidates
from .vocab import Triple, TripleIndex, Vocabulary

CANDIDATE_POLICIES = ("entities-only", "entities-plus-shared-properties")
TIE_BREAK = "pessimistic"
# Test triples per score_candidates call: evaluate() holds at most
# QUERY_CHUNK x C scores besides the C gathered candidate rows.
QUERY_CHUNK = 64


@dataclass(frozen=True)
class EvalConfig:
    candidate_policy: str = "entities-only"
    hits_k: int = 10
    directions: tuple[str, ...] = ("head", "tail")

    def __post_init__(self):
        if self.candidate_policy not in CANDIDATE_POLICIES:
            raise InvalidConfigError(f"unknown candidate policy {self.candidate_policy!r}")
        if self.hits_k < 1:
            raise InvalidConfigError("hits_k must be at least 1")
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


def rank_from_scores(scores: np.ndarray, true_pos: int, excluded: np.ndarray | None = None) -> int:
    """Pessimistic rank of the candidate at `true_pos`.

    rank = 1 + number of non-excluded other candidates scoring >= the
    true answer. Monotone transforms of the scores leave it unchanged.
    """
    others = np.ones(len(scores), dtype=bool)
    if excluded is not None:
        others &= ~excluded
    others[true_pos] = False
    return 1 + int(np.count_nonzero(scores[others] >= scores[true_pos]))


def _queries(triples: np.ndarray, direction: str) -> np.ndarray:
    """score_candidates queries for (n, 3) triples: (p, o) for head, (s, p) for tail."""
    return triples[:, 1:] if direction == "head" else triples[:, :2]


def _known_mask(t: Triple, direction: str, candidates: np.ndarray, index: TripleIndex) -> np.ndarray:
    known = index.subjects_for(t.p, t.o) if direction == "head" else index.objects_for(t.s, t.p)
    if not known:
        return np.zeros(len(candidates), dtype=bool)
    return np.isin(candidates, np.fromiter(known, dtype=np.int64))


def _true_position(t: Triple, direction: str, candidates: np.ndarray) -> int:
    true_id = t.s if direction == "head" else t.o
    pos = int(np.searchsorted(candidates, true_id))
    if pos == len(candidates) or candidates[pos] != true_id:
        raise TrueAnswerNotCandidateError(
            f"true {direction} id {true_id} is not in the candidate set"
        )
    return pos


def _ranks(scores: np.ndarray, t: Triple, direction: str, candidates: np.ndarray,
           index: TripleIndex) -> tuple[int, int]:
    """Raw and filtered ranks of `t`'s true answer from its candidates' scores."""
    true_pos = _true_position(t, direction, candidates)
    excluded = _known_mask(t, direction, candidates, index)
    excluded[true_pos] = False
    r_raw = rank_from_scores(scores, true_pos)
    r_filt = rank_from_scores(scores, true_pos, excluded)
    if r_filt > r_raw:
        raise RuntimeError(f"filtered rank {r_filt} exceeds raw rank {r_raw} for {direction} of {t}")
    return r_raw, r_filt


def rank(
    table: EmbeddingTable,
    t: Triple,
    direction: str,
    candidates: np.ndarray,
    index: TripleIndex,
    filtered: bool,
) -> int:
    """Rank of the true answer when `direction` is predicted for `t`."""
    queries = _queries(np.array([t], dtype=np.int64), direction)
    scores = score_candidates(table, queries, direction, candidates)[0]
    r_raw, r_filt = _ranks(scores, t, direction, candidates, index)
    return r_filt if filtered else r_raw


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
        return {
            "n_triples": self.n_triples,
            "n_candidates": self.n_candidates,
            "hits_k": self.hits_k,
            "candidate_policy": self.candidate_policy,
            "tie_break": TIE_BREAK,
            "mean_rank_raw": self.mean_rank_raw,
            "mean_rank_filtered": self.mean_rank_filtered,
            "hits_raw": self.hits_raw,
            "hits_filtered": self.hits_filtered,
            "per_direction": {
                name: vars(stats) for name, stats in (("head", self.head), ("tail", self.tail)) if stats
            },
        }

    def to_json(self, label: str | None = None) -> str:
        payload = self.to_dict()
        if label is not None:
            payload["model"] = label
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _stats(ranks_raw: list[int], ranks_filt: list[int], k: int) -> DirectionStats | None:
    if not ranks_raw:
        return None
    raw = np.array(ranks_raw, dtype=np.float64)
    filt = np.array(ranks_filt, dtype=np.float64)
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
    by_dir: dict[str, tuple[list[int], list[int]]] = {d: ([], []) for d in config.directions}
    for start in range(0, len(test_triples), QUERY_CHUNK):
        chunk = test_triples[start:start + QUERY_CHUNK]
        ids = np.array(chunk, dtype=np.int64)
        for direction in config.directions:
            scores = score_candidates(table, _queries(ids, direction), direction, candidates)
            for t, row in zip(chunk, scores):
                r_raw, r_filt = _ranks(row, t, direction, candidates, index)
                by_dir[direction][0].append(r_raw)
                by_dir[direction][1].append(r_filt)

    all_raw = [r for raws, _ in by_dir.values() for r in raws]
    all_filt = [r for _, filts in by_dir.values() for r in filts]
    combined = _stats(all_raw, all_filt, config.hits_k)
    empty = DirectionStats(0.0, 0.0, 0.0, 0.0)
    head = _stats(*by_dir["head"], config.hits_k) if "head" in by_dir else empty
    tail = _stats(*by_dir["tail"], config.hits_k) if "tail" in by_dir else empty
    return EvalReport(
        n_triples=len(test_triples),
        n_candidates=len(candidates),
        hits_k=config.hits_k,
        candidate_policy=config.candidate_policy,
        mean_rank_raw=combined.mean_rank_raw,
        mean_rank_filtered=combined.mean_rank_filtered,
        hits_raw=combined.hits_raw,
        hits_filtered=combined.hits_filtered,
        head=head or empty,
        tail=tail or empty,
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

    def mean(getter):
        return float(np.mean([getter(r) for r in reports]))

    def mean_dir(which: str) -> DirectionStats:
        return DirectionStats(
            mean_rank_raw=mean(lambda r: getattr(r, which).mean_rank_raw),
            mean_rank_filtered=mean(lambda r: getattr(r, which).mean_rank_filtered),
            hits_raw=mean(lambda r: getattr(r, which).hits_raw),
            hits_filtered=mean(lambda r: getattr(r, which).hits_filtered),
        )

    first = reports[0]
    avg = EvalReport(
        n_triples=first.n_triples,
        n_candidates=first.n_candidates,
        hits_k=hits_k,
        candidate_policy=first.candidate_policy,
        mean_rank_raw=mean(lambda r: r.mean_rank_raw),
        mean_rank_filtered=mean(lambda r: r.mean_rank_filtered),
        hits_raw=mean(lambda r: r.hits_raw),
        hits_filtered=mean(lambda r: r.hits_filtered),
        head=mean_dir("head"),
        tail=mean_dir("tail"),
    )
    best = min(reports, key=lambda r: r.mean_rank_filtered)
    return avg, best
