"""Vocabulary construction, triple interning, and the known-triple index.

The vocabulary assigns dense integer ids 0..N-1 in first-occurrence order
(subject, predicate, object within each triple). Two regimes:

* unify=True: one id per term, regardless of role. A term used both as a
  node and as a predicate keeps a single id, listed in both role sets, so
  downstream models share one embedding row between the two roles.
* unify=False: entity-role and property-role occurrences of the same term
  get disjoint ids (the classical separate entity/relation vocabularies).
"""

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyDatasetError, FormatError, IndexOverflowError, InvalidConfigError, UnknownTermError
from .ingest import RawTriple


class Triple(NamedTuple):
    s: int
    p: int
    o: int


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

    def has_entity(self, term: str) -> bool:
        return term in self._entity_id

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


def build_vocabulary(triples: Sequence[RawTriple], unify: bool) -> Vocabulary:
    """Assign ids to every term of `triples` in first-occurrence order."""
    if not triples:
        raise EmptyDatasetError("cannot build a vocabulary from zero triples")
    vocab = Vocabulary(unify)
    for t in triples:
        vocab._add(t.subject, "E")
        vocab._add(t.predicate, "P")
        vocab._add(t.object, "E")
    vocab._freeze()
    return vocab


class InternResult(NamedTuple):
    triples: list[Triple]
    duplicates: int


def intern(triples: Iterable[RawTriple], vocab: Vocabulary) -> InternResult:
    """Map raw triples to id triples, dropping exact duplicates.

    Output preserves first-occurrence input order. Raises UnknownTermError
    when a term is absent from the vocabulary (e.g. a test-set term that
    never occurred in training).
    """
    seen: set[Triple] = set()
    out: list[Triple] = []
    duplicates = 0
    for t in triples:
        it = Triple(vocab.entity_id(t.subject), vocab.property_id(t.predicate), vocab.entity_id(t.object))
        if it in seen:
            duplicates += 1
            continue
        seen.add(it)
        out.append(it)
    return InternResult(out, duplicates)


def unknown_terms(triples: Iterable[RawTriple], vocab: Vocabulary) -> list[str]:
    """All terms (with their roles) that `intern` would reject, sorted."""
    missing = set()
    for t in triples:
        if not vocab.has_entity(t.subject):
            missing.add(t.subject)
        if not vocab.has_property(t.predicate):
            missing.add(t.predicate)
        if not vocab.has_entity(t.object):
            missing.add(t.object)
    return sorted(missing)


# Largest id count whose index keys, n**3, fit in int64.
MAX_INDEX_IDS = 2_097_151


class TripleIndex:
    """Known triples as two sorted, unique int64 key arrays.

    With n = largest id + 1, `(s*n + p)*n + o` orders the triples by
    (s, p) and `(p*n + o)*n + s` by (p, o), so the known completions of a
    query pair are one contiguous key range. Backs both filtered ranking
    and negative-sampling rejection. Immutable once built; safe for
    concurrent reads.
    """

    def __init__(self, triples=()):
        t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        n = int(t.max()) + 1 if len(t) else 0
        if n > MAX_INDEX_IDS or (len(t) and int(t.min()) < 0):
            raise IndexOverflowError(f"triple ids must lie in [0, {MAX_INDEX_IDS}) to fit int64 keys")
        self._n = n
        s, p, o = t.T
        self._spo = np.unique((s * n + p) * n + o)
        self._pos = np.unique((p * n + o) * n + s)

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

    def __contains__(self, t) -> bool:
        return bool(self.contains(np.array([t]))[0])

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


def dataset_stats(vocab: Vocabulary, triples: Sequence[Triple]) -> DatasetStats:
    """Counts for reporting: sizes of E1/E2, their overlap, and how many
    triples have a property in subject or object position."""
    prop_node = 0
    for t in triples:
        if vocab.has_property(vocab.term(t.s)) or vocab.has_property(vocab.term(t.o)):
            prop_node += 1
    return DatasetStats(
        n_triples=len(triples),
        n_entities=len(vocab.entity_ids),
        n_properties=len(vocab.property_ids),
        n_shared=len(vocab.shared_terms()),
        property_node_triples=prop_node,
    )


def dump_vocabulary(vocab: Vocabulary) -> str:
    """Render the dump format: `<id>\\t<term>\\t<roles>`, ids ascending, LF."""
    lines = []
    for id_ in range(len(vocab)):
        lines.append(f"{id_}\t{vocab.term(id_)}\t{vocab.roles_of(id_)}\n")
    return "".join(lines)


def parse_vocabulary(text: str, unify: bool) -> Vocabulary:
    """Rebuild a Vocabulary from its dump; inverse of dump_vocabulary."""
    vocab = Vocabulary(unify)
    lines = text.split("\n")  # not splitlines(): a term may hold U+0085, \v, \f, ...
    for line_no, line in enumerate(lines[:-1] if lines[-1] == "" else lines, start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"vocabulary line {line_no}: expected 3 fields")
        id_str, term, roles = fields
        try:
            id_ = int(id_str)
        except ValueError:
            raise FormatError(f"vocabulary line {line_no}: id {id_str!r} is not an integer") from None
        if id_ != len(vocab.id_to_term):
            raise FormatError(f"vocabulary line {line_no}: ids must be dense and ascending")
        if roles not in ("E", "P", "EP"):
            raise FormatError(f"vocabulary line {line_no}: bad role {roles!r}")
        if roles == "EP" and not unify:
            raise FormatError(f"vocabulary line {line_no}: shared id in a non-unified vocabulary")
        if unify and (term in vocab._entity_id or term in vocab._property_id):
            raise FormatError(f"vocabulary line {line_no}: term {term!r} has a second id in a unified vocabulary")
        vocab.id_to_term.append(term)
        if "E" in roles:
            if term in vocab._entity_id:
                raise FormatError(f"vocabulary line {line_no}: duplicate entity term {term!r}")
            vocab._entity_id[term] = id_
        if "P" in roles:
            if term in vocab._property_id:
                raise FormatError(f"vocabulary line {line_no}: duplicate property term {term!r}")
            vocab._property_id[term] = id_
    vocab._freeze()
    return vocab
