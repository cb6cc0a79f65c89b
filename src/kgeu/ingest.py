"""Triple ingestion from N-Triples-subset and tab-separated files.

Both parsers are pure functions of their input and return the triples as
:class:`TermColumns`: one entry per valid statement line, in file order,
duplicates included, with each distinct term one shared string. Prefixed
names are not expanded; terms are opaque tokens, which keeps datasets with
non-IRI identifiers (FB15K-style `/m/...` tokens) loadable.
"""

import re
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .errors import MalformedLineError


class RawTriple(NamedTuple):
    subject: str
    predicate: str
    object: str
    is_literal: bool = False


@dataclass
class TermColumns:
    """Triples as three aligned term columns and a literal-object mask.

    Unlike one RawTriple per line, the columns hold no per-triple object,
    so the cyclic garbage collector has nothing to walk.
    """

    subjects: list[str] = field(default_factory=list)
    predicates: list[str] = field(default_factory=list)
    objects: list[str] = field(default_factory=list)
    is_literal: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.subjects)

    def __add__(self, other: "TermColumns") -> "TermColumns":
        return TermColumns(self.subjects + other.subjects, self.predicates + other.predicates,
                           self.objects + other.objects, self.is_literal + other.is_literal)


def as_columns(triples: TermColumns | Iterable[RawTriple]) -> TermColumns:
    """Parsed columns as they are, or the columns of RawTriple rows."""
    return triples if isinstance(triples, TermColumns) else TermColumns(*map(list, zip(*triples)))


# Grammar subset: `<IRI> <IRI> <IRI> .` or `<IRI> <IRI> "literal" .`
# IRIs may not contain whitespace or angle brackets; literals may not
# contain raw quotes or tabs (tab-free terms keep the vocabulary dump and
# TSV formats unambiguous).
_NT_LINE = re.compile(
    r'<([^<>\s]+)>[ \t]+<([^<>\s]+)>[ \t]+'
    r'(?:<([^<>\s]+)>|"([^"\t]*)")[ \t]*\.[ \t]*$'
)


def _lines(source: str | TextIO) -> list[str]:
    # Read once and split on \n only, so string and file inputs see identical lines.
    lines = (source if isinstance(source, str) else source.read()).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def parse_ntriples(source: str | TextIO) -> TermColumns:
    """Parse an N-Triples subset: one statement per line, `#` comments.

    Literal objects are kept verbatim (quotes stripped) and flagged in
    ``is_literal``. Raises MalformedLineError with a 1-based line number
    for any non-blank, non-comment line outside the grammar.
    """
    rows = []
    term = {}.setdefault  # one str object per distinct term
    for line_no, line in enumerate(_lines(source), start=1):
        stripped = line.strip()  # also drops the CR of a CRLF line end
        if not stripped or stripped.startswith("#"):
            continue
        m = _NT_LINE.fullmatch(stripped)
        if m is None:
            raise MalformedLineError(line_no, f"not a valid statement: {stripped!r}")
        s, p, o_iri, o_lit = m.groups()
        if o_lit == "":
            raise MalformedLineError(line_no, "empty literal object")
        o = o_lit if o_iri is None else o_iri
        rows.append((term(s, s), term(p, p), term(o, o), o_iri is None))
    return as_columns(rows)


# Characters per parse_tsv block. Splitting the whole text at once would
# hold one string per field of the file (1.45M for FB15K) at the same time.
_BLOCK = 1 << 20
_LINE_SEPARATORS = np.array([9, 9, 10], dtype=np.uint8)  # tab, tab, newline


def _split_block(block: str) -> list[str] | None:
    """The fields of `block`, which ends in \\n, from one split on tabs and
    newlines; None unless every line is three non-empty tab-separated
    fields with no CR and no line is all whitespace."""
    b = np.frombuffer(block.encode("utf-8", "surrogatepass"), dtype=np.uint8)  # tab, LF, CR: one byte each
    at = np.flatnonzero((b == 9) | (b == 10) | (b == 13))
    # each line's separators are tab, tab, LF (so a CR fails), and no field is
    # empty: none starts the block and no two are adjacent
    if (len(at) % 3 or at[0] == 0 or np.diff(at).min() < 2
            or not (b[at].reshape(-1, 3) == _LINE_SEPARATORS).all()):
        return None
    fields = block.replace("\n", "\t").split("\t")
    fields.pop()  # the empty string after the block's last \n
    # a whitespace-only line has a whitespace-only subject
    return None if any(map(str.isspace, fields[0::3])) else fields


def _checked_fields(block: str, first_line_no: int) -> list[str]:
    """The fields of `block`'s lines, one line at a time: trailing CRs are
    stripped, blank lines skipped and any other faulty line rejected."""
    lines = block.split("\n")
    lines.pop()  # the empty string after the block's last \n
    fields = []
    for line_no, line in enumerate(lines, start=first_line_no):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        line_fields = line.split("\t")
        if len(line_fields) != 3:
            raise MalformedLineError(line_no, f"expected 3 tab-separated fields, got {len(line_fields)}")
        if "" in line_fields:
            raise MalformedLineError(line_no, "empty field")
        fields += line_fields
    return fields


def parse_tsv(source: str | TextIO) -> TermColumns:
    """Parse `subject<TAB>predicate<TAB>object` lines; blank lines allowed.

    The text is taken in blocks of about _BLOCK characters, each cut after
    a \\n. A block whose lines are all three non-empty fields, with no CR
    and no whitespace-only line, is split at once on tabs and newlines;
    any other block goes line by line through the checks that strip
    trailing CRs, skip blank lines and name the fault with its line number.
    """
    text = source if isinstance(source, str) else source.read()
    columns = TermColumns()
    term = {}.setdefault  # one str object per distinct term
    start, line_no = 0, 1
    while start < len(text):
        end = text.find("\n", start + _BLOCK - 1) + 1 or len(text)
        block = text[start:end]
        if not block.endswith("\n"):  # the last line of a text without a final newline
            block += "\n"
        fields = _split_block(block)
        if fields is None:
            fields = _checked_fields(block, line_no)
        fields = list(map(term, fields, fields))
        columns.subjects += fields[0::3]
        columns.predicates += fields[1::3]
        columns.objects += fields[2::3]
        line_no += block.count("\n")
        start = end
    columns.is_literal = [False] * len(columns)
    return columns


def write_tsv(triples: Iterable[RawTriple]) -> str:
    """Serialize triples to the TSV format (LF line endings)."""
    return "".join(f"{t.subject}\t{t.predicate}\t{t.object}\n" for t in triples)


def write_ntriples(triples: Iterable[RawTriple]) -> str:
    out = []
    for t in triples:
        obj = f'"{t.object}"' if t.is_literal else f"<{t.object}>"
        out.append(f"<{t.subject}> <{t.predicate}> {obj} .\n")
    return "".join(out)


def drop_literals(triples: TermColumns) -> tuple[TermColumns, int]:
    """Split off literal-object triples; returns (kept, dropped count).

    The default pipeline discards literal statements before vocabulary
    construction; pass --keep-literals on the CLI to intern them as
    opaque terms instead.
    """
    keep = [not lit for lit in triples.is_literal]
    kept = [list(compress(column, keep)) for column in (triples.subjects, triples.predicates, triples.objects)]
    return TermColumns(*kept, [False] * len(kept[0])), len(triples) - len(kept[0])
