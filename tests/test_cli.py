"""End-to-end CLI workflows, exit codes, and byte determinism."""

import pytest

from tensorhit import cli, formats
from tensorhit.field import make_prime_field
from tensorhit.tensor import DenseTensor

GF13 = make_prime_field(13)


def run(*argv):
    return cli.main(list(argv))


def test_gen_hit_writes_expected_count(tmp_path, capsys):
    out = tmp_path / "ms.txt"
    assert run("gen-hit", "--family", "Dprime", "--p", "7", "--dims", "3x3",
               "--r", "2", "--out", str(out)) == 0
    ms = formats.read_measurements(out.read_text())
    assert len(ms) == 8


def test_gen_hit_simulated(tmp_path):
    out = tmp_path / "ms.txt"
    assert run("gen-hit", "--family", "D", "--p", "2", "--dims", "3x3", "--r", "1",
               "--extend", "2", "--simulate", "improper", "--out", str(out)) == 0
    ms = formats.read_measurements(out.read_text())
    assert ms.ctx.p == 2 and len(ms) == 10


def test_pit_zero_and_witness(tmp_path, capsys):
    z = tmp_path / "zero.txt"
    z.write_text(formats.write_tensor(DenseTensor.zeros(GF13, (3, 3))))
    assert run("pit", "--tensor", str(z), "--family", "Dprime", "--r", "2") == 0
    assert capsys.readouterr().out.strip() == "ZERO"

    t = tmp_path / "t.txt"
    mat = DenseTensor(GF13, (3, 3), [0, 0, 0, 0, 2, 0, 0, 0, 0])
    t.write_text(formats.write_tensor(mat))
    assert run("pit", "--tensor", str(t), "--family", "Dprime", "--r", "1") == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("NONZERO witness=")


def test_measure_recover_roundtrip_bytes(tmp_path, capsys):
    mat = DenseTensor(GF13, (4, 4), [GF13.mul(a, b) for a in (1, 2, 3, 4)
                                     for b in (1, 5, 2, 7)])
    src = tmp_path / "m.txt"
    src.write_text(formats.write_tensor(mat))
    synd = tmp_path / "synd.txt"
    rec = tmp_path / "rec.txt"
    assert run("measure", "--tensor", str(src), "--family", "Dprime", "--r", "1",
               "--out", str(synd)) == 0
    assert run("recover", "--syndromes", str(synd), "--out", str(rec)) == 0
    assert rec.read_text() == src.read_text()


def test_measure_recover_bprime_and_tensor(tmp_path, capsys):
    mat = DenseTensor(GF13, (4, 4), [GF13.mul(a, b) for a in (1, 1, 2, 0)
                                     for b in (3, 5, 0, 7)])
    src = tmp_path / "m.txt"
    src.write_text(formats.write_tensor(mat))
    synd = tmp_path / "synd.txt"
    rec = tmp_path / "rec.txt"
    assert run("measure", "--tensor", str(src), "--family", "Bprime", "--r", "1",
               "--out", str(synd)) == 0
    assert run("recover", "--syndromes", str(synd), "--out", str(rec)) == 0
    assert rec.read_text() == src.read_text()

    ctx = make_prime_field(157)
    cube = DenseTensor(ctx, (3, 3), [ctx.mul(a, b) for a in (1, 2, 3)
                                     for b in (4, 5, 6)])
    src3 = tmp_path / "cube.txt"
    src3.write_text(formats.write_tensor(cube))
    assert run("measure", "--tensor", str(src3), "--family", "TensorB", "--r", "1",
               "--out", str(synd)) == 0
    assert run("recover", "--syndromes", str(synd), "--out", str(rec)) == 0
    assert rec.read_text() == src3.read_text()


def test_encode_decode_cycle(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text(formats.write_tensor(DenseTensor(GF13, (4,), [1, 2, 3, 4])))
    cw = tmp_path / "cw.txt"
    assert run("encode", "--p", "13", "--dims", "4x4", "--r", "1",
               "--message", str(msg), "--out", str(cw)) == 0
    word = formats.read_tensor(cw.read_text())
    corrupted = word.copy()
    corrupted.entries[5] = GF13.add(corrupted.entries[5], 3)
    rx = tmp_path / "rx.txt"
    rx.write_text(formats.write_tensor(corrupted))
    dec = tmp_path / "dec.txt"
    errf = tmp_path / "err.txt"
    assert run("decode", "--p", "13", "--dims", "4x4", "--r", "1", "--word", str(rx),
               "--out", str(dec), "--error-out", str(errf)) == 0
    assert formats.read_tensor(dec.read_text()).entries == word.entries
    err = formats.read_tensor(errf.read_text())
    assert sum(1 for e in err.entries if e) == 1


def test_decode_failure_exit_code_3(tmp_path, capsys):
    # rank-3 corruption of a radius-1 code: decoding must fail loudly
    msg = tmp_path / "msg.txt"
    msg.write_text(formats.write_tensor(DenseTensor(GF13, (4,), [1, 2, 3, 4])))
    cw = tmp_path / "cw.txt"
    run("encode", "--p", "13", "--dims", "4x4", "--r", "1",
        "--message", str(msg), "--out", str(cw))
    word = formats.read_tensor(cw.read_text())
    bad = word.copy()
    for i, delta in ((0, 1), (5, 2), (10, 3)):
        bad.entries[i] = GF13.add(bad.entries[i], delta)
    rx = tmp_path / "rx.txt"
    rx.write_text(formats.write_tensor(bad))
    code = run("decode", "--p", "13", "--dims", "4x4", "--r", "1", "--word", str(rx),
               "--out", str(tmp_path / "dec.txt"))
    assert code == 3


def test_usage_error_exit_code_2(tmp_path, capsys):
    assert run("gen-hit", "--family", "Dprime", "--p", "6", "--dims", "3x3",
               "--r", "1", "--out", str(tmp_path / "x.txt")) == 2
    assert run("recover", "--syndromes", str(tmp_path / "missing.txt"),
               "--out", str(tmp_path / "y.txt")) == 2
    with pytest.raises(SystemExit) as exc:
        run("no-such-verb")
    assert exc.value.code == 2


def _syndrome_file(tmp_path, family, header_dims):
    # a valid 3x3 syndrome file whose header then claims other dims
    ctx = make_prime_field(157)
    cube = DenseTensor(ctx, (3, 3), [ctx.mul(a, b) for a in (1, 2, 3)
                                     for b in (4, 5, 6)])
    src = tmp_path / "m.txt"
    src.write_text(formats.write_tensor(cube))
    synd = tmp_path / "synd.txt"
    assert run("measure", "--tensor", str(src), "--family", family, "--r", "1",
               "--out", str(synd)) == 0
    synd.write_text(synd.read_text().replace("dims=3x3", f"dims={header_dims}"))
    return ["recover", "--syndromes", str(synd), "--out", str(tmp_path / "rec.txt")]


def _rank_zero_file(tmp_path):
    synd = tmp_path / "synd.txt"
    synd.write_text("field p=7 k=1\nsyndromes family=Dprime r=0 dims=3x3\n")
    return ["recover", "--syndromes", str(synd), "--out", str(tmp_path / "rec.txt")]


def _one_axis_bprime(tmp_path):
    src = tmp_path / "v.txt"
    src.write_text(formats.write_tensor(DenseTensor(GF13, (4,), [1, 2, 3, 4])))
    return ["measure", "--tensor", str(src), "--family", "Bprime", "--r", "1",
            "--out", str(tmp_path / "synd.txt")]


def _malformed_tensor(text):
    def argv(tmp_path):
        src = tmp_path / "t.txt"
        src.write_text(text)
        return ["measure", "--tensor", str(src), "--family", "Dprime", "--r", "1",
                "--out", str(tmp_path / "synd.txt")]
    return argv


def _malformed_syndromes(text):
    def argv(tmp_path):
        synd = tmp_path / "synd.txt"
        synd.write_text(text)
        return ["recover", "--syndromes", str(synd), "--out", str(tmp_path / "rec.txt")]
    return argv


@pytest.mark.parametrize("argv", [
    _rank_zero_file,
    lambda tmp: _syndrome_file(tmp, "TensorB", "3x4"),
    lambda tmp: _syndrome_file(tmp, "Dprime", "3x3x3"),
    _one_axis_bprime,
    _malformed_tensor("field p=13 k=1\ntensor dims=3x3\n1 2 3\n4 5 6\n"),
    _malformed_tensor("field p=13\ntensor dims=2x2\n1 2\n3 4\n"),
    _malformed_tensor("field p=13 k=1\n"),
    _malformed_syndromes("field p=13 k=1\nsyndromes family=Dprime dims=3x3\n1\n2\n"),
    _malformed_tensor("field p=13 k=1\ntensor dims=2x2\n1 2\n3 4\n5\n"),
], ids=["rank-zero", "tensorb-non-cubic", "dprime-three-axes", "bprime-one-axis",
        "short-tensor-body", "header-without-k", "header-only", "syndromes-without-r",
        "long-tensor-body"])
def test_malformed_recovery_inputs_exit_2(tmp_path, capsys, argv):
    args = argv(tmp_path)
    capsys.readouterr()
    assert run(*args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_file_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run("gen-hit", "--family", "Bprime", "--p", "13", "--dims", "4x4",
                   "--r", "2", "--out", str(out)) == 0
    assert a.read_text() == b.read_text()


def test_pit_accepts_lowrank_files(tmp_path, capsys):
    from tensorhit.tensor import LowRankTensor, Rank1Tensor

    t = LowRankTensor(GF13, (3, 3), (Rank1Tensor(GF13, ((1, 2, 0), (4, 0, 1))),))
    f = tmp_path / "lr.txt"
    f.write_text(formats.write_lowrank(t))
    assert run("pit", "--tensor", str(f), "--family", "B", "--r", "1") == 0
    assert capsys.readouterr().out.startswith("NONZERO")


def test_bench_smoke(capsys):
    assert run("bench", "--p", "67", "--sizes", "8,16", "--r", "1", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "recover_s" in out and len(out.strip().splitlines()) >= 3
