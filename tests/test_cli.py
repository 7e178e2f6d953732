"""End-to-end CLI workflows, exit codes, and byte determinism."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorhit
from tensorhit import cli, formats, hitting, lrr
from tensorhit.errors import TensorhitError
from tensorhit.field import make_extension, make_prime_field
from tensorhit.tensor import DenseTensor, LowRankTensor

GF13 = make_prime_field(13)
BIG_PRIME = 2**61 - 1
GF16 = make_extension(make_prime_field(2), 4)  # both small enough for exp/log tables
GF9 = make_extension(make_prime_field(3), 2)


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


@pytest.mark.parametrize("k", [0, -2])
@pytest.mark.parametrize("verb", ["gen-hit", "encode", "decode"])
def test_a_field_degree_below_one_exits_2(tmp_path, capsys, verb, k):
    msg = tmp_path / "msg.txt"
    msg.write_text(formats.write_tensor(DenseTensor(GF13, (4,), [1, 2, 3, 4])))
    word = tmp_path / "word.txt"
    word.write_text(formats.write_tensor(DenseTensor.zeros(GF13, (4, 4))))
    extra = {"gen-hit": ["--family", "Dprime"], "encode": ["--message", str(msg)],
             "decode": ["--word", str(word)]}[verb]
    out = tmp_path / "out.txt"
    assert run(verb, "--p", "13", "--k", str(k), "--dims", "4x4", "--r", "1", *extra,
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_extend_over_an_extension_field_exits_2(tmp_path, capsys):
    out = tmp_path / "ms.txt"
    assert run("gen-hit", "--p", "2", "--k", "2", "--family", "Dprime", "--dims", "3x3",
               "--r", "1", "--extend", "2", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: --extend requires a prime base field\n"
    assert not out.exists()


def test_encode_of_a_message_with_two_axes_exits_2(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text(formats.write_tensor(DenseTensor(GF13, (2, 2), [1, 2, 3, 4])))
    out = tmp_path / "cw.txt"
    assert run("encode", "--p", "13", "--dims", "4x4", "--r", "1",
               "--message", str(msg), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: message file must hold a one-axis tensor\n"
    assert not out.exists()


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


def test_dprime_commands_take_any_matrix_and_rank(tmp_path, capsys):
    # D' is defined on every matrix shape and R; rows past (n + m) // 2 measure nothing
    out = tmp_path / "ms.txt"
    assert run("gen-hit", "--p", "13", "--family", "Dprime", "--dims", "6x3", "--r", "4",
               "--out", str(out)) == 0
    assert len(formats.read_measurements(out.read_text())) == 20
    word = tmp_path / "zero.txt"
    word.write_text(formats.write_tensor(DenseTensor.zeros(GF13, (4, 4))))
    dec = tmp_path / "dec.txt"
    assert run("decode", "--p", "13", "--family", "Dprime", "--dims", "4x4", "--r", "3",
               "--word", str(word), "--out", str(dec)) == 0
    assert formats.read_tensor(dec.read_text()).is_zero()


def test_decode_of_a_word_of_another_shape_exits_2(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text(formats.write_tensor(DenseTensor.zeros(GF13, (3, 4))))
    capsys.readouterr()
    assert run("decode", "--p", "13", "--dims", "4x4", "--r", "1", "--word", str(word),
               "--out", str(tmp_path / "dec.txt")) == 2
    assert "does not match the code's shape/field" in capsys.readouterr().err


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


def test_recovery_above_the_rank_promise_exits_3(tmp_path, capsys):
    # measure of [[10,1,1],[0,4,0],[8,8,6]] at r=1; the one matrix that
    # matches every syndrome, [[10,1,11],[0,0,0],[2,8,6]], has rank 2
    synd = tmp_path / "synd.txt"
    synd.write_text(
        "field p=13 k=1\nsyndromes family=Dprime r=1 dims=3x3\n"
        + "".join(f"{v}\n" for v in (10, 1, 2, 0, 7, 8, 3, 6))
    )
    out = tmp_path / "out.txt"
    assert run("recover", "--syndromes", str(synd), "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_a_prony_failure_names_its_diagonal(tmp_path, capsys):
    # measure of the rank-1 4x4 matrix of test_measure_recover_roundtrip_bytes
    # at r=1, with its fifth value raised by one: the long diagonal 4 then
    # needs a locator of degree 2
    synd = tmp_path / "synd.txt"
    synd.write_text(
        "field p=13 k=1\nsyndromes family=Dprime r=1 dims=4x4\n"
        + "".join(f"{v}\n" for v in (1, 7, 12, 2, 6, 4, 2, 1, 7, 3, 5, 2))
    )
    out = tmp_path / "out.txt"
    assert run("recover", "--syndromes", str(synd), "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("error: diagonal 4: syndrome needs a locator")
    assert not out.exists()


def test_inconsistent_tensor_syndromes_exit_3(tmp_path, capsys):
    # no 3x3 tensor measures to these twelve values; the corner tensor that
    # D' alone would return measures as twelve 5s
    synd = tmp_path / "synd.txt"
    synd.write_text(
        "field p=1733 k=1\nsyndromes family=TensorB r=1 dims=3x3\n"
        + "5\n" * 6 + "0\n" * 6
    )
    out = tmp_path / "out.txt"
    assert run("recover", "--syndromes", str(synd), "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_extension_of_a_64_bit_prime_round_trips(tmp_path, capsys):
    ctx = make_extension(make_prime_field(BIG_PRIME), 2)
    a, b = (3, BIG_PRIME - 5), (2**60, 7)
    mat = DenseTensor(ctx, (2, 2), [ctx.mul(u, v) for u in (a, b) for v in (b, ctx.one)])
    src = tmp_path / "m.txt"
    src.write_text(formats.write_tensor(mat))
    synd = tmp_path / "synd.txt"
    rec = tmp_path / "rec.txt"
    assert run("measure", "--tensor", str(src), "--family", "Dprime", "--r", "1",
               "--out", str(synd)) == 0
    assert run("recover", "--syndromes", str(synd), "--out", str(rec)) == 0
    assert rec.read_text() == src.read_text()


def test_gen_hit_over_gf_p2_of_a_64_bit_prime_finishes(tmp_path):
    # a fresh process: no order certificate of an earlier test is reused
    out = tmp_path / "ms.txt"
    src = os.path.dirname(os.path.dirname(os.path.abspath(tensorhit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["gen-hit", "--p", "18446744073709550771", "--k", "2", "--family", "Dprime",
            "--dims", "3x3", "--r", "1", "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "tensorhit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert len(formats.read_measurements(out.read_text())) == 5


def _random_lowrank_file(ctx, dims, terms):
    rng = random.Random(ctx.size)
    factors = [[[ctx.from_index(rng.randrange(ctx.size)) for _ in range(n)] for n in dims]
               for _ in range(terms)]
    return formats.write_lowrank(LowRankTensor.from_factor_lists(ctx, dims, factors))


def _fuzz_inputs():
    """(argv without the file, file text) for valid tensor, low-rank and syndrome files."""
    out = []
    fields = (GF13, make_prime_field(1733), GF16, GF9)
    for ctx in fields:
        mat = cli._random_low_rank(ctx, random.Random(ctx.size), (3, 4), 1)
        out.append((["measure", "--family", "Dprime", "--r", "1", "--tensor"],
                    formats.write_tensor(mat)))
        for family in ("Dprime", "Bprime"):
            text = formats.write_syndromes(ctx, family, 1, mat.dims,
                                           lrr.measure(mat, family, 1))
            out.append((["recover", "--syndromes"], text))
    for ctx in (GF16, GF9):
        out.append((["measure", "--family", "Dprime", "--r", "2", "--tensor"],
                    _random_lowrank_file(ctx, (3, 4), 2)))
    ctx = fields[1]
    cube = cli._random_low_rank(ctx, random.Random(0), (2, 2, 2), 1)
    out.append((["measure", "--family", "TensorB", "--r", "1", "--tensor"],
                formats.write_tensor(cube)))
    out.append((["recover", "--syndromes"], formats.write_syndromes(
        ctx, "TensorB", 1, cube.dims, lrr.measure(cube, "TensorB", 1))))
    return out


FUZZ_INPUTS = _fuzz_inputs()


def _mutate(text, kind, data):
    lines = text.splitlines()
    pick = st.integers(0, len(lines) - 1)
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if kind == "duplicate":
        i = data.draw(pick)
        lines.insert(i, lines[i])
    elif kind == "drop":
        del lines[data.draw(pick)]
    elif kind == "char":
        i = data.draw(st.integers(0, len(text) - 1))
        return text[:i] + data.draw(st.sampled_from("0123456789,x=- ")) + text[i + 1:]
    elif kind == "big-prime":
        lines[0] = f"field p={BIG_PRIME} k=2"
    else:  # rename or remove one key=value of a header line
        h = data.draw(st.integers(0, 1))
        words = lines[h].split()
        i = data.draw(st.integers(1, len(words) - 1))
        if kind == "rename":
            words[i] = "q" + words[i]
        else:
            del words[i]
        lines[h] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


MUTATIONS = ["truncate", "duplicate", "drop", "char", "rename", "remove", "big-prime"]


@given(st.sampled_from(FUZZ_INPUTS), st.sampled_from(MUTATIONS), st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_mutated_input_files_end_in_a_documented_exit_code(fuzz_dir, case, kind, data):
    argv, text = case
    path = fuzz_dir / "in.txt"
    path.write_text(_mutate(text, kind, data))
    assert cli.main([*argv, str(path), "--out", str(fuzz_dir / "out.txt")]) in (0, 2, 3)


PIT_FILES = [text for ctx in (GF16, GF9) for text in (
    formats.write_tensor(cli._random_low_rank(ctx, random.Random(ctx.size), (3, 4), 1)),
    _random_lowrank_file(ctx, (3, 4), 2))]


@given(st.sampled_from(PIT_FILES), st.sampled_from(hitting.FAMILIES),
       st.sampled_from(MUTATIONS), st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_mutated_tensor_files_end_pit_in_a_documented_exit_code(fuzz_dir, text, family,
                                                                kind, data):
    path = fuzz_dir / "pit.txt"
    path.write_text(_mutate(text, kind, data))
    argv = ["pit", "--family", family, "--r", "2", "--tensor", str(path)]
    assert cli.main(argv) in (0, 2, 3)


MEASUREMENT_FILES = [formats.write_measurements(hitting.generate_family(ctx, "Dprime", (3, 3), 1))
                     for ctx in (GF16, GF9)]


@given(st.sampled_from(MEASUREMENT_FILES), st.sampled_from(MUTATIONS), st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_mutated_measurement_files_raise_only_documented_errors(text, kind, data):
    # no command reads these files, so read one and apply it to a tensor of its shape
    try:
        ms = formats.read_measurements(_mutate(text, kind, data))
        t = cli._random_low_rank(ms.ctx, random.Random(0), ms.dims, 1)
        hitting.first_witness(t, ms)
    except (TensorhitError, ValueError):
        pass
