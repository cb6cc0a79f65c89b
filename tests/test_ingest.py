import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kgeu import (
    MalformedLineError,
    RawTriple,
    TermColumns,
    drop_literals,
    ingest,
    parse_ntriples,
    parse_tsv,
    write_ntriples,
    write_tsv,
)
from conftest import reference_parse_tsv, rows

NT_SAMPLE = """\
# birthplace example
<ex:A> <ex:birthplace> <ex:Spain> .

<exp:p1> <rdf:type> <exp:T1> .
<ex:B> <ex:comment> "a literal" .
"""


def test_parse_ntriples_statements():
    triples = rows(parse_ntriples(NT_SAMPLE))
    assert triples[0] == RawTriple("ex:A", "ex:birthplace", "ex:Spain")
    assert triples[1] == RawTriple("exp:p1", "rdf:type", "exp:T1")
    assert triples[2] == RawTriple("ex:B", "ex:comment", "a literal", is_literal=True)
    assert len(triples) == 3


def test_parse_ntriples_empty_input():
    assert rows(parse_ntriples("")) == []
    assert rows(parse_ntriples("# only a comment\n\n")) == []


def test_parse_ntriples_accepts_stream():
    assert parse_ntriples(io.StringIO(NT_SAMPLE)) == parse_ntriples(NT_SAMPLE)


@pytest.mark.parametrize(
    "line",
    [
        "<ex:A> <ex:b> .",                  # missing object
        "<ex:A> <ex:b> <ex:C>",             # missing terminator
        "ex:A <ex:b> <ex:C> .",             # bare subject
        '<ex:A> <ex:b> "unterminated .',
        "<ex:A> <ex:b> <ex has space> .",
    ],
)
def test_parse_ntriples_malformed(line):
    with pytest.raises(MalformedLineError) as exc:
        parse_ntriples(f"# header\n{line}\n")
    assert exc.value.line_no == 2


def test_parse_tsv_basic():
    # whitespace-only lines are blank, even when they hold three fields
    text = "/m/01\t/film/genre\t/m/02\n\n \t \t \n\x85\t\u2028\t\x0c\r\ne0\tr0\te1\n"
    triples = rows(parse_tsv(text))
    assert triples == [
        RawTriple("/m/01", "/film/genre", "/m/02"),
        RawTriple("e0", "r0", "e1"),
    ]


def test_parse_tsv_wrong_arity():
    with pytest.raises(MalformedLineError) as exc:
        parse_tsv("a\tb\n")
    assert exc.value.line_no == 1
    with pytest.raises(MalformedLineError):
        parse_tsv("a\tb\tc\td\n")


def test_parse_tsv_counts_every_line():
    n = 1000
    text = "".join(f"s{i}\tp{i % 7}\to{i}\n" for i in range(n))
    assert len(parse_tsv(text)) == n


def test_drop_literals():
    triples = parse_ntriples(NT_SAMPLE)
    kept, dropped = drop_literals(triples)
    assert dropped == 1
    assert all(not t.is_literal for t in rows(kept))
    assert len(kept) == 2


token = st.text(
    alphabet=st.characters(
        min_codepoint=33,
        max_codepoint=0x2FFF,
        exclude_categories=("Cc", "Cf", "Zl", "Zp", "Zs"),
        exclude_characters='<>"',
    ),
    min_size=1,
    max_size=12,
)
triples_strategy = st.lists(st.builds(lambda s, p, o: RawTriple(s, p, o), token, token, token), min_size=0, max_size=20)


@given(triples_strategy)
def test_tsv_round_trip(triples):
    assert rows(parse_tsv(write_tsv(triples))) == triples


@given(triples_strategy)
def test_nt_and_tsv_agree_on_equivalent_content(triples):
    assert parse_ntriples(write_ntriples(triples)) == parse_tsv(write_tsv(triples))


def test_nt_round_trip_keeps_literal_flag():
    triples = [RawTriple("ex:A", "ex:p", "some words here", is_literal=True)]
    assert rows(parse_ntriples(write_ntriples(triples))) == triples


# Lines that stress parse_tsv's fast path: CR and CRLF ends, blank, tab-only
# and whitespace-only lines, empty fields, 2 or 4 fields, and terms holding
# U+0085 or U+2028 (whitespace to str.strip, not line ends to the parser).
tsv_field = st.sampled_from(["", " ", "a", "b c", "\r", " \r", "x\r", "\x85", "t\u2028u", "\u2028", "\x0c", "e1"])
tsv_line = st.one_of(
    st.lists(tsv_field, min_size=1, max_size=4).map("\t".join),
    st.sampled_from(["", " ", "\t", "\t\t", " \t \t ", "\r", "\t\t\r", "\x85\t\u2028\t \r"]),
)


@given(st.lists(tsv_line, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans(), st.sampled_from([1, 5, 1 << 20]))
@settings(max_examples=300)
def test_parse_tsv_equals_the_per_line_oracle(lines, end, final_end, block):
    text = end.join(lines) + (end if final_end and lines else "")
    try:
        want = reference_parse_tsv(text)
    except MalformedLineError as e:
        want = (e.line_no, str(e))
    for source in (text, io.StringIO(text, newline="\n")):
        try:
            with mock.patch.object(ingest, "_BLOCK", block):
                columns = parse_tsv(source)
            got = rows(columns)
        except MalformedLineError as e:
            got = (e.line_no, str(e))
        assert got == want
        if isinstance(got, list):
            assert type(columns) is TermColumns
            assert all(type(c) is list and all(type(t) is str for t in c)
                       for c in (columns.subjects, columns.predicates, columns.objects))
            assert columns.is_literal == [False] * len(got)


# Blocks of a few characters put block boundaries inside the fast-path lines,
# next to a CRLF end, before a blank line and around a malformed line.
@pytest.mark.parametrize("block", [1, 2, 3, 7, 12, 40])
def test_parse_tsv_blocks_equal_the_per_line_oracle(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    good = "a\tb\tc\nd\tee\tf\r\n\n \t \t \ng\th\ti\njj\tk\tl\nm\tn\to"
    assert rows(parse_tsv(good)) == reference_parse_tsv(good)
    assert len(parse_tsv(good)) == 5
    for bad in (good + "\np\tq\n", "a\tb\tc\r\n" * 3 + "x\t\ty\n" + "a\tb\tc\n", "a\tb\tc\n" * 4 + "d\te\tf\tg"):
        with pytest.raises(MalformedLineError) as got:
            parse_tsv(bad)
        with pytest.raises(MalformedLineError) as want:
            reference_parse_tsv(bad)
        assert (got.value.line_no, str(got.value)) == (want.value.line_no, str(want.value))


def test_parsed_columns_share_one_string_per_term():
    text = "".join(f"s{i % 5}\tp{i % 3}\ts{(i + 1) % 5}\n" for i in range(40))
    nt = "".join(f'<s{i % 5}> <p{i % 3}> "s{i % 4}" .\n' for i in range(40))
    for columns in (parse_tsv(text), parse_tsv(text.replace("\n", "\r\n")), parse_ntriples(nt)):
        terms = columns.subjects + columns.predicates + columns.objects
        assert len({id(t) for t in terms}) == len(set(terms))


def test_term_columns_of_rows_and_their_sum():
    raws = [RawTriple("a", "p", "b"), RawTriple("b", "q", "text", is_literal=True)]
    columns = ingest.as_columns(raws)
    assert columns == TermColumns(["a", "b"], ["p", "q"], ["b", "text"], [False, True])
    assert len(columns) == 2 and len(ingest.as_columns([])) == 0
    assert rows(columns + ingest.as_columns(raws[:1])) == raws + raws[:1]
    kept, dropped = drop_literals(columns)
    assert (rows(kept), dropped) == (raws[:1], 1)
