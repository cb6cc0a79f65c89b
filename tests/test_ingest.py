import io

import pytest
from hypothesis import given, settings, strategies as st

from kgeu import MalformedLineError, RawTriple, drop_literals, parse_ntriples, parse_tsv, write_ntriples, write_tsv
from conftest import reference_parse_tsv

NT_SAMPLE = """\
# birthplace example
<ex:A> <ex:birthplace> <ex:Spain> .

<exp:p1> <rdf:type> <exp:T1> .
<ex:B> <ex:comment> "a literal" .
"""


def test_parse_ntriples_statements():
    triples = parse_ntriples(NT_SAMPLE)
    assert triples[0] == RawTriple("ex:A", "ex:birthplace", "ex:Spain")
    assert triples[1] == RawTriple("exp:p1", "rdf:type", "exp:T1")
    assert triples[2] == RawTriple("ex:B", "ex:comment", "a literal", is_literal=True)
    assert len(triples) == 3


def test_parse_ntriples_empty_input():
    assert parse_ntriples("") == []
    assert parse_ntriples("# only a comment\n\n") == []


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
    triples = parse_tsv(text)
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
    assert all(not t.is_literal for t in kept)
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
    assert parse_tsv(write_tsv(triples)) == triples


@given(triples_strategy)
def test_nt_and_tsv_agree_on_equivalent_content(triples):
    assert parse_ntriples(write_ntriples(triples)) == parse_tsv(write_tsv(triples))


def test_nt_round_trip_keeps_literal_flag():
    triples = [RawTriple("ex:A", "ex:p", "some words here", is_literal=True)]
    assert parse_ntriples(write_ntriples(triples)) == triples


# Lines that stress parse_tsv's fast path: CR and CRLF ends, blank, tab-only
# and whitespace-only lines, empty fields, 2 or 4 fields, and terms holding
# U+0085 or U+2028 (whitespace to str.strip, not line ends to the parser).
tsv_field = st.sampled_from(["", " ", "a", "b c", "\r", " \r", "x\r", "\x85", "t\u2028u", "\u2028", "\x0c", "e1"])
tsv_line = st.one_of(
    st.lists(tsv_field, min_size=1, max_size=4).map("\t".join),
    st.sampled_from(["", " ", "\t", "\t\t", " \t \t ", "\r", "\t\t\r", "\x85\t\u2028\t \r"]),
)


@given(st.lists(tsv_line, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans())
@settings(max_examples=300)
def test_parse_tsv_equals_the_per_line_oracle(lines, end, final_end):
    text = end.join(lines) + (end if final_end and lines else "")
    try:
        want = reference_parse_tsv(text)
    except MalformedLineError as e:
        want = (e.line_no, str(e))
    for source in (text, io.StringIO(text, newline="\n")):
        try:
            got = parse_tsv(source)
        except MalformedLineError as e:
            got = (e.line_no, str(e))
        assert got == want
        if isinstance(got, list):
            assert all(type(t) is RawTriple and t.is_literal is False for t in got)

