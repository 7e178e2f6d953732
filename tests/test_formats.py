"""File format round-trips and header validation."""

import pytest

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
