"""File format round-trips and header validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorhit import formats
from tensorhit.errors import ShapeMismatch
from tensorhit.field import make_extension, make_prime_field
from tensorhit.formats import (
    field_header,
    parse_field_header,
    read_lowrank,
    read_measurements,
    read_syndromes,
    read_tensor,
    write_lowrank,
    write_measurements,
    write_syndromes,
    write_tensor,
)
from tensorhit.hitting import (
    hitting_set_B,
    hitting_set_B_prime,
    hitting_set_D_prime,
    simulate_improper,
)
from tensorhit.tensor import DenseTensor, LowRankTensor, Rank1Tensor

GF13 = make_prime_field(13)
GF8 = make_extension(make_prime_field(2), 3)


def test_field_header_prime():
    assert field_header(GF13) == "field p=13 k=1"
    assert parse_field_header("field p=13 k=1") == GF13


def test_field_header_extension():
    hdr = field_header(GF8)
    assert hdr == "field p=2 k=3 mod=1,0,1,1"
    assert parse_field_header(hdr) == GF8


def test_two_headers_of_one_field_yield_one_field_object():
    hdr = field_header(make_extension(make_prime_field(2), 8))
    assert parse_field_header(hdr) is parse_field_header(hdr)
    assert parse_field_header("field p=257 k=1") is parse_field_header("field p=257 k=1")


def test_field_header_rejects_wrong_modulus():
    # x^3 + x + 1 is irreducible but not the canonical (lex-least) choice
    with pytest.raises(ShapeMismatch):
        parse_field_header("field p=2 k=3 mod=1,1,0,1")


def test_tensor_roundtrip_prime():
    t = DenseTensor(GF13, (2, 3), [1, 2, 3, 4, 5, 6])
    assert read_tensor(write_tensor(t)) == t


def test_tensor_roundtrip_extension():
    entries = [GF8.from_index(i) for i in range(8)]
    t = DenseTensor(GF8, (2, 2, 2), entries)
    assert read_tensor(write_tensor(t)) == t


def test_lowrank_roundtrip():
    t = LowRankTensor(
        GF13,
        (2, 3),
        (
            Rank1Tensor(GF13, ((1, 2), (3, 4, 5))),
            Rank1Tensor(GF13, ((0, 1), (1, 0, 2))),
        ),
    )
    back = read_lowrank(write_lowrank(t))
    assert back.dims == t.dims
    assert [term.factors for term in back.terms] == [
        term.factors for term in t.terms
    ]


def test_measurements_roundtrip_diag_family():
    fam = hitting_set_D_prime(GF13, 2, 3, 3)
    text = write_measurements(fam)
    back = read_measurements(text)
    assert back.family == "Dprime" and len(back) == len(fam)
    for a, b in zip(fam.measurements, back.measurements):
        assert (a.k, a.ls) == (b.k, b.ls)
        assert a.to_dense(GF13, fam.dims).entries == list(b.entries)
    # canonical writer: re-serializing the parsed set reproduces the bytes
    assert write_measurements(back) == text


def test_measurements_roundtrip_simulated():
    K = make_extension(make_prime_field(2), 2)
    sim = simulate_improper(hitting_set_D_prime(K, 2, 3, 3))
    back = read_measurements(write_measurements(sim))
    assert len(back) == len(sim)
    assert [m.phi for m in back.measurements] == [m.phi for m in sim.measurements]


@pytest.mark.parametrize("k", [2, 3])
def test_a_dense_family_reads_back_member_for_member(k):
    sim = simulate_improper(hitting_set_B(make_extension(make_prime_field(3), k), 2, 3, 4))
    assert all(m.entries is not None for m in sim.measurements)
    back = read_measurements(write_measurements(sim))
    assert back.measurements == sim.measurements
    assert read_measurements(write_measurements(back)).measurements == back.measurements


def test_measurements_roundtrip_rank1_family():
    fam = hitting_set_B_prime(GF13, 2, 4, 4)
    back = read_measurements(write_measurements(fam))
    for a, b in zip(fam.measurements, back.measurements):
        assert a.to_dense(GF13, fam.dims).entries == list(b.entries)


def test_syndromes_roundtrip():
    synd = [1, 5, 0, 12, 3]
    text = write_syndromes(GF13, "Dprime", 2, (4, 4), synd)
    ctx, family, r, dims, back = read_syndromes(text)
    assert (ctx, family, r, dims, back) == (GF13, "Dprime", 2, (4, 4), synd)


def test_syndromes_roundtrip_extension():
    synd = [GF8.from_index(i) for i in (3, 0, 7)]
    text = write_syndromes(GF8, "Bprime", 1, (3, 3), synd)
    ctx, family, r, dims, back = read_syndromes(text)
    assert ctx == GF8 and back == synd


def test_bad_headers_rejected():
    with pytest.raises(ShapeMismatch):
        read_tensor("field p=7 k=1\nlowrank dims=2x2 terms=0\n")
    with pytest.raises(ShapeMismatch):
        parse_field_header("tensor dims=2x2")


@pytest.mark.parametrize("reader,text,line", [
    (read_tensor, "field p=13 k=1\ntensor dims=3x3\n1 2 3\n4 5 6\n", 2),
    (read_tensor, "field p=13\ntensor dims=2x2\n1 2\n3 4\n", 1),
    (read_tensor, "field p=13 k=1\n", 2),
    (read_tensor, "", 1),
    (read_tensor, "field p=13 k=1\n\ntensor dims=2x2\n1 2\n3 99\n", 5),
    (read_tensor, "field p=13 k=1\ntensor dims=2xa\n1 2\n3 4\n", 2),
    (read_tensor, "field p=13 k=1\ntensor dims=0x3\n", 2),
    (read_syndromes, "field p=13 k=1\nsyndromes family=Dprime dims=3x3\n1\n", 2),
    (read_syndromes, "field p=13 k=1\nsyndromes family=Dprime r=1 dims=3x3\n1\n1 2\n", 4),
    (read_lowrank, "field p=13 k=1\nlowrank dims=2x2 terms=1\n1 2\n", 4),
    (read_measurements, "field p=13 k=1\nmeasurements family=D count=2 dims=1x1\n"
                        "meta k=0 l=0\ntensor dims=1x1\n1\n", 6),
    (read_tensor, "field p=13 k=1\ntensor dims=2x2\n1 2\n3 4\n5 6 7\n", 5),
    (read_measurements, "field p=13 k=1\nmeasurements family=D count=1 dims=1x2\n"
                        "meta k=0 l=0\ntensor dims=1x2\n1 2 3\n", 5),
])
def test_malformed_files_name_the_line(reader, text, line):
    with pytest.raises(ShapeMismatch, match=rf"^line {line}: "):
        reader(text)


BULK_FIELDS = [
    make_prime_field(65537),
    make_prime_field(2**61 - 1),
    make_extension(make_prime_field(2), 8),  # a TableField
    make_extension(make_prime_field(2), 9),
    make_extension(make_prime_field(3), 5),
]
TOKEN_FAULTS = ["empty part", "extra comma", "missing comma", "plus", "underscore",
                "at least p", "negative", "tab"]


def _fault(ctx, tok, kind, at):
    """tok with one fault of the given kind; at picks where in it."""
    parts = tok.split(",")
    j, i = at % len(parts), at % (len(tok) + 1)
    if kind == "extra comma":
        return tok[:i] + "," + tok[i:]
    if kind == "tab":
        return tok[:i] + "\t" + tok[i:]
    if kind == "missing comma":
        del parts[j]
    else:
        parts[j] = {"empty part": "",
                    "plus": "+" + parts[j],
                    "underscore": parts[j][:1] + "_" + parts[j][1:] + "0",
                    "at least p": str(ctx.p + at),
                    "negative": "-" + parts[j]}[kind]
    return ",".join(parts)


def _per_token(ctx, rows):
    """The reference reader: ctx.parse token by token, or the first error's message."""
    try:
        return [formats._parse(no, ctx.parse, tok) for no, toks in rows for tok in toks]
    except ShapeMismatch as e:
        return str(e)


def _outcome(read, text):
    try:
        return read(text)
    except ShapeMismatch as e:
        return str(e)


@given(st.sampled_from(BULK_FIELDS), st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_bulk_token_reads_agree_with_the_per_token_loop(ctx, data):
    indices = data.draw(st.lists(st.integers(0, ctx.size - 1), min_size=1, max_size=12))
    tokens = [ctx.serialize(ctx.from_index(i)) for i in indices]
    faults = st.tuples(st.sampled_from(TOKEN_FAULTS), st.integers(0, 99), st.integers(0, 99))
    for kind, at, where in data.draw(st.lists(faults, max_size=3)):
        tokens[where % len(tokens)] = _fault(ctx, tokens[where % len(tokens)], kind, at)
    width = data.draw(st.integers(1, 4))
    body = [" ".join(tokens[i:i + width]) for i in range(0, len(tokens), width)]
    body = [ln for ln in body if ln.split()]
    header = field_header(ctx)

    text = "\n".join([header, "syndromes family=Dprime r=1 dims=2x2", *tokens]) + "\n"
    rows = [(no, [ln.strip()]) for no, ln in formats._numbered(text)[2:]]
    assert _outcome(lambda t: read_syndromes(t)[4], text) == _per_token(ctx, rows)

    rows = [(no, ln.split()) for no, ln in enumerate(body, 3)]
    if rows:
        count = sum(len(toks) for _, toks in rows)
        text = "\n".join([header, f"tensor dims={count}", *body]) + "\n"
        assert _outcome(lambda t: read_tensor(t).entries, text) == _per_token(ctx, rows)
        # each factor opens with a one, so no factor is all zero
        rows = [(no, ["1", *toks]) for no, toks in rows]
        dims = "x".join(str(len(toks)) for _, toks in rows)
        text = "\n".join([header, f"lowrank dims={dims} terms=1",
                          *(f"1 {ln}" for ln in body)]) + "\n"
        factors = _outcome(lambda t: read_lowrank(t).terms[0].factors, text)
        got = factors if isinstance(factors, str) else [c for f in factors for c in f]
        assert got == _per_token(ctx, rows)
