"""Vocabulary construction, triple interning, and the known-triple index.

The vocabulary assigns dense integer ids 0..N-1 in first-occurrence order
(subject, predicate, object within each triple). Two regimes:

* unify=True: one id per term, regardless of role. A term used both as a
  node and as a predicate keeps a single id, listed in both role sets, so
  downstream models share one embedding row between the two roles.
* unify=False: entity-role and property-role occurrences of the same term
  get disjoint ids (the classical separate entity/relation vocabularies).

Vocabulary._add is the one place that assigns ids: building calls it per
occurrence, and loading a dump replays it per line. intern is the one
place that looks terms up.
"""

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyDatasetError, FormatError, IndexOverflowError, InvalidConfigError, UnknownTermError
from .ingest import RawTriple, TermColumns, as_columns


# (n, 3) ids: an int array or a sequence of int 3-tuples
IdTriples = np.ndarray | Sequence[tuple[int, int, int]]


def id_array(triples: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """(n, 3) int64 ids of a triple sequence; an integer ndarray is used as is.

    A sequence's rows are flattened into one np.fromiter pass; a row that is
    not three ints raises ValueError (or numpy's TypeError/OverflowError for
    an entry). Its entries are not type-checked one by one: over the 542k
    interned triples of an FB15K-sized graph that would cost 0.07-0.11 s.
    An ndarray of any dtype but a signed or unsigned integer one raises
    ValueError instead of being truncated to ids.
    """
    if isinstance(triples, np.ndarray):
        if triples.dtype.kind not in "iu":
            raise ValueError(f"triple ids must be integers, got an array of dtype {triples.dtype}")
        return triples.astype(np.int64, copy=False).reshape(-1, 3)
    rows = triples if isinstance(triples, (list, tuple)) else list(triples)
    # no row longer than 3, and count= makes fromiter reject a shorter one
    if rows and max(map(len, rows)) != 3:
        raise ValueError("every triple must have exactly three ids")
    return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=3 * len(rows)).reshape(-1, 3)


class Vocabulary:
    """Bidirectional term<->id map with entity/property role tracking."""

    def __init__(self, unify: bool):
        self.unify = unify
        self.id_to_term: list[str] = []
        self._entity_id: dict[str, int] = {}
        self._property_id: dict[str, int] = {}
        self._entity_ids: np.ndarray | None = None
        self._property_ids: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.id_to_term)

    def _add(self, term: str, role: str) -> int:
        table = self._entity_id if role == "E" else self._property_id
        existing = table.get(term)
        if existing is not None:
            return existing
        if self.unify:
            other = self._property_id if role == "E" else self._entity_id
            shared = other.get(term)
            if shared is not None:
                table[term] = shared
                return shared
        new_id = len(self.id_to_term)
        self.id_to_term.append(term)
        table[term] = new_id
        return new_id

    def _freeze(self) -> None:
        self._entity_ids = np.array(sorted(self._entity_id.values()), dtype=np.int64)
        self._property_ids = np.array(sorted(self._property_id.values()), dtype=np.int64)

    @property
    def entity_ids(self) -> np.ndarray:
        """Ids with entity role (E1), ascending."""
        return self._entity_ids

    @property
    def property_ids(self) -> np.ndarray:
        """Ids with property role (E2), ascending."""
        return self._property_ids

    def entity_id(self, term: str) -> int:
        try:
            return self._entity_id[term]
        except KeyError:
            raise UnknownTermError(term) from None

    def property_id(self, term: str) -> int:
        try:
            return self._property_id[term]
        except KeyError:
            raise UnknownTermError(term) from None

    def has_property(self, term: str) -> bool:
        return term in self._property_id

    def term(self, id_: int) -> str:
        return self.id_to_term[id_]

    def roles_of(self, id_: int) -> str:
        """Role string for one id: 'E', 'P', or 'EP'."""
        term = self.id_to_term[id_]
        e = self._entity_id.get(term) == id_
        p = self._property_id.get(term) == id_
        return ("E" if e else "") + ("P" if p else "")

    def shared_terms(self) -> list[tuple[str, int, int]]:
        """Terms with both roles, as (term, entity_id, property_id).

        Under unify=True both ids coincide; under unify=False they differ.
        """
        out = []
        for term, eid in self._entity_id.items():
            pid = self._property_id.get(term)
            if pid is not None:
                out.append((term, eid, pid))
        return out


def build_vocabulary(triples: TermColumns | Sequence[RawTriple], unify: bool) -> Vocabulary:
    """Assign ids to every term of `triples` in first-occurrence order."""
    triples = as_columns(triples)
    if not triples:
        raise EmptyDatasetError("cannot build a vocabulary from zero triples")
    vocab = Vocabulary(unify)
    for s, p, o in zip(triples.subjects, triples.predicates, triples.objects):
        vocab._add(s, "E")
        vocab._add(p, "P")
        vocab._add(o, "E")
    vocab._freeze()
    return vocab


class InternResult(NamedTuple):
    triples: list[tuple[int, int, int]]  # plain int tuples, which the GC untracks
    duplicates: int


def intern(triples: TermColumns | Iterable[RawTriple], vocab: Vocabulary) -> InternResult:
    """Map triples to (s, p, o) id tuples, dropping exact duplicates.

    Output preserves first-occurrence input order. Each term is looked up
    in the role it is used in, one column at a time. Terms the vocabulary
    lacks in that role (e.g. test-set terms that never occurred in
    training) are collected over the whole input and raised, sorted, as
    one UnknownTermError.
    """
    columns = as_columns(triples)
    roles = ((columns.subjects, vocab._entity_id), (columns.predicates, vocab._property_id),
             (columns.objects, vocab._entity_id))
    try:
        ids = [list(map(table.__getitem__, column)) for column, table in roles]
    except KeyError:  # at the first missing term; name them all
        raise UnknownTermError({term for column, table in roles for term in column if term not in table}) from None
    unique = list(dict.fromkeys(zip(*ids)))
    return InternResult(unique, len(columns) - len(unique))


# Largest id count whose index keys, n**3, fit in int64.
MAX_INDEX_IDS = 2_097_151


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of a fresh int64 array, sorting it in place: one sort and a
    neighbour mask (numpy's hash-based unique is far slower on int64)."""
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class TripleIndex:
    """Known triples as two sorted, unique int64 key arrays.

    With n = largest id + 1, `(s*n + p)*n + o` orders the triples by
    (s, p) and `(p*n + o)*n + s` by (p, o), so the known completions of a
    query pair are one contiguous key range. Backs both filtered ranking
    and negative-sampling rejection. Immutable once built; safe for
    concurrent reads.
    """

    def __init__(self, triples=()):
        t = id_array(triples)
        n = int(t.max()) + 1 if len(t) else 0
        if n > MAX_INDEX_IDS or (len(t) and int(t.min()) < 0):
            raise IndexOverflowError(f"triple ids must lie in [0, {MAX_INDEX_IDS}) to fit int64 keys")
        self._n = n
        s, p, o = t.T
        self._spo = _sorted_unique((s * n + p) * n + o)
        self._pos = _sorted_unique((p * n + o) * n + s)

    def contains(self, triples: np.ndarray) -> np.ndarray:
        """bool[k]: whether each row of `triples[k, 3]` is a known triple."""
        t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if not len(self._spo):
            return np.zeros(len(t), dtype=bool)
        n = self._n
        ok = np.all((t >= 0) & (t < n), axis=1)
        keys = (t[:, 0] * n + t[:, 1]) * n + t[:, 2]
        pos = np.minimum(np.searchsorted(self._spo, keys), len(self._spo) - 1)
        return ok & (self._spo[pos] == keys)

    def known(self, pairs: np.ndarray, direction: str) -> tuple[np.ndarray, np.ndarray]:
        """Every known completion of every query pair.

        `pairs` is (Q, 2): (s, p) for direction 'tail', (p, o) for 'head',
        as the evaluator's queries. Returns aligned arrays (rows, ids):
        query row `rows[j]` is completed by id `ids[j]`; rows ascend, and
        ids ascend within a row.
        """
        if direction not in ("head", "tail"):
            raise InvalidConfigError(f"unknown direction {direction!r}")
        q = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = self._n
        keys = self._spo if direction == "tail" else self._pos
        ok = np.all((q >= 0) & (q < n), axis=1)
        base = (q[:, 0] * n + q[:, 1]) * n
        lo = np.searchsorted(keys, base)
        counts = np.where(ok, np.searchsorted(keys, base + n) - lo, 0)
        rows = np.repeat(np.arange(len(q)), counts)
        first = np.cumsum(counts) - counts
        at = np.arange(len(rows)) + np.repeat(lo - first, counts)
        return rows, keys[at] - base[rows]

    def __len__(self) -> int:
        return len(self._spo)


@dataclass(frozen=True)
class DatasetStats:
    n_triples: int
    n_entities: int
    n_properties: int
    n_shared: int
    property_node_triples: int

    def summary(self) -> str:
        return (
            f"triples={self.n_triples}, entities={self.n_entities}, "
            f"properties={self.n_properties}, overlap={self.n_shared}, "
            f"property-node-triples={self.property_node_triples}"
        )


def dataset_stats(vocab: Vocabulary, triples: IdTriples) -> DatasetStats:
    """Counts for reporting: sizes of E1/E2, their overlap, and how many
    triples have a property in subject or object position."""
    # per id: whether its term is a property (in either vocabulary regime)
    is_property = np.fromiter(map(vocab.has_property, vocab.id_to_term), dtype=bool, count=len(vocab))
    t = id_array(triples)
    return DatasetStats(
        n_triples=len(t),
        n_entities=len(vocab.entity_ids),
        n_properties=len(vocab.property_ids),
        n_shared=len(vocab.shared_terms()),
        property_node_triples=int(np.count_nonzero(is_property[t[:, 0]] | is_property[t[:, 2]])),
    )


def dump_vocabulary(vocab: Vocabulary) -> str:
    """Render the dump format: `<id>\\t<term>\\t<roles>`, ids ascending, LF."""
    lines = []
    for id_ in range(len(vocab)):
        lines.append(f"{id_}\t{vocab.term(id_)}\t{vocab.roles_of(id_)}\n")
    return "".join(lines)


def parse_vocabulary(text: str, unify: bool) -> Vocabulary:
    """Rebuild a Vocabulary from its dump; inverse of dump_vocabulary.

    Load replays the rule that built the vocabulary: each line's roles are
    added with Vocabulary._add, and the line is accepted only when every
    role gets the line's own id, with the id written as str(id) and the
    text ending in a newline. So a dump loads exactly when building would
    assign the same ids, and it dumps back to the same text.
    """
    if text and not text.endswith("\n"):
        raise FormatError("vocabulary dump does not end in a newline")
    vocab = Vocabulary(unify)
    lines = text.split("\n")[:-1]  # not splitlines(): a term may hold U+0085, \v, \f, ...
    for line_no, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"vocabulary line {line_no}: expected 3 fields")
        id_str, term, roles = fields
        try:
            id_ = int(id_str)
        except ValueError:
            raise FormatError(f"vocabulary line {line_no}: id {id_str!r} is not an integer") from None
        if id_ != len(vocab):
            raise FormatError(f"vocabulary line {line_no}: ids must be dense and ascending")
        if id_str != str(id_):
            raise FormatError(f"vocabulary line {line_no}: id {id_str!r} is not written as {id_}")
        if roles not in ("E", "P", "EP"):
            raise FormatError(f"vocabulary line {line_no}: bad role {roles!r}")
        if any(vocab._add(term, role) != id_ for role in roles):
            raise FormatError(f"vocabulary line {line_no}: term {term!r} has a second id")
    vocab._freeze()
    return vocab
