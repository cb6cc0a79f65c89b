"""Triple ingestion from N-Triples-subset and tab-separated files.

Both parsers are pure functions of their input: every valid statement line
yields exactly one :class:`RawTriple`, in file order, duplicates included.
Prefixed names are not expanded; terms are opaque tokens, which keeps
datasets with non-IRI identifiers (FB15K-style `/m/...` tokens) loadable.
"""

import re
from functools import partial
from typing import Iterable, NamedTuple, TextIO

from .errors import MalformedLineError


class RawTriple(NamedTuple):
    subject: str
    predicate: str
    object: str
    is_literal: bool = False


# RawTriple._make without its per-call Python frame: tuple.__new__ on a 4-tuple
_raw_triple = partial(tuple.__new__, RawTriple)

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


def parse_ntriples(source: str | TextIO) -> list[RawTriple]:
    """Parse an N-Triples subset: one statement per line, `#` comments.

    Literal objects are kept verbatim (quotes stripped) and flagged via
    ``is_literal``. Raises MalformedLineError with a 1-based line number
    for any non-blank, non-comment line outside the grammar.
    """
    triples = []
    for line_no, line in enumerate(_lines(source), start=1):
        stripped = line.strip()  # also drops the CR of a CRLF line end
        if not stripped or stripped.startswith("#"):
            continue
        m = _NT_LINE.fullmatch(stripped)
        if m is None:
            raise MalformedLineError(line_no, f"not a valid statement: {stripped!r}")
        s, p, o_iri, o_lit = m.groups()
        if o_iri is not None:
            triples.append(RawTriple(s, p, o_iri))
        else:
            if o_lit == "":
                raise MalformedLineError(line_no, "empty literal object")
            triples.append(RawTriple(s, p, o_lit, is_literal=True))
    return triples


def parse_tsv(source: str | TextIO) -> list[RawTriple]:
    """Parse `subject<TAB>predicate<TAB>object` lines; blank lines allowed.

    A line of three non-empty fields that neither ends in CR nor is all
    whitespace is taken as split; every other line goes through the checks
    below, which strip trailing CRs, skip blank lines and name the fault.
    """
    triples = []
    append = triples.append
    term = {}.setdefault  # one str object per distinct term: less memory, and GC walks stay in cache
    for line_no, line in enumerate(_lines(source), start=1):
        fields = line.split("\t")
        # len 3 first: it makes the line non-empty for line[-1]
        if len(fields) != 3 or "" in fields or line[-1] == "\r" or line.isspace():
            line = line.rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLineError(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
            if "" in fields:
                raise MalformedLineError(line_no, "empty field")
        s, p, o = fields
        append(_raw_triple((term(s, s), term(p, p), term(o, o), False)))
    return triples


def write_tsv(triples: Iterable[RawTriple]) -> str:
    """Serialize triples to the TSV format (LF line endings)."""
    return "".join(f"{t.subject}\t{t.predicate}\t{t.object}\n" for t in triples)


def write_ntriples(triples: Iterable[RawTriple]) -> str:
    out = []
    for t in triples:
        obj = f'"{t.object}"' if t.is_literal else f"<{t.object}>"
        out.append(f"<{t.subject}> <{t.predicate}> {obj} .\n")
    return "".join(out)


def drop_literals(triples: Iterable[RawTriple]) -> tuple[list[RawTriple], int]:
    """Split off literal-object triples; returns (kept, dropped count).

    The default pipeline discards literal statements before vocabulary
    construction; pass --keep-literals on the CLI to intern them as
    opaque terms instead.
    """
    triples = list(triples)
    kept = [t for t in triples if not t.is_literal]
    return kept, len(triples) - len(kept)
