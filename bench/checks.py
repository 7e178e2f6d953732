"""Output checks, computed apart from the program under test.

Each check raises ``CheckError`` on a wrong result.  Expected values come
from the planted inputs, from the benchmark's own arithmetic (``planted``),
or from properties the method must have (counts, dimensions, zero parity);
no check compares against a stored copy of an earlier output.
"""


class CheckError(Exception):
    """A program output disagrees with its independent expectation."""


def same_entries(label: str, arith, got_fels, want) -> None:
    """Program elements ``got_fels`` equal the planted own-arithmetic ``want``."""
    got = [arith.from_fel(x) for x in got_fels]
    if len(got) != len(want):
        raise CheckError(f"{label}: {len(got)} entries, planted {len(want)}")
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            raise CheckError(f"{label}: entry {i} is {a}, planted {b}")


def count(label: str, got: int, want: int) -> None:
    if got != want:
        raise CheckError(f"{label}: {got} values, the method gives {want}")


def matrix_syndrome_count(n: int, m: int, r: int) -> int:
    """Diagonal and rank-1 families at parameter 2r: (n+m-2r)*2r."""
    return (n + m - 2 * r) * 2 * r


def tensor_syndrome_count(d: int, n: int, r: int) -> int:
    """Tensor family at parameter 2r: d*n*(2r)^ceil(lg d)."""
    return d * n * (2 * r) ** (d - 1).bit_length()


def code_dimension(n: int, r: int) -> int:
    """n x n code from the diagonal family at 2r: n^2 - 2(2n-2r)r."""
    return n * n - 2 * (2 * n - 2 * r) * r


def inner(arith, meas, dims, entries) -> int:
    """<measurement, tensor> with the benchmark's arithmetic.

    Reads the measurement's weights, factors or entries as data and
    converts them with ``arith.from_fel``; ``entries`` is row-major, in
    the benchmark's representation.
    """
    if meas.diag is not None:
        k, weights = meas.diag
        n, m = dims
        lo = max(0, k - (m - 1))
        acc = 0
        for t, w in enumerate(weights):
            i = lo + t
            acc = arith.add(acc, arith.mul(arith.from_fel(w), entries[i * m + k - i]))
        return acc
    if meas.factors is not None:
        cur = list(entries)
        for v in reversed(meas.factors):
            vec = [arith.from_fel(c) for c in v]
            width = len(vec)
            nxt = []
            for base in range(0, len(cur), width):
                acc = 0
                for c, e in zip(vec, cur[base : base + width]):
                    acc = arith.add(acc, arith.mul(c, e))
                nxt.append(acc)
            cur = nxt
        return cur[0]
    acc = 0
    for w, e in zip(meas.entries, entries):
        acc = arith.add(acc, arith.mul(arith.from_fel(w), e))
    return acc


def syndromes_match(label: str, arith, family, entries, synd) -> None:
    """Every syndrome equals the inner product with its family member."""
    count(label, len(synd), len(family.measurements))
    for i, (meas, s) in enumerate(zip(family.measurements, synd)):
        want = inner(arith, meas, family.dims, entries)
        if arith.from_fel(s) != want:
            raise CheckError(f"{label}: syndrome {i} is {s}, inner product {want}")


def parity_zero(label: str, arith, parity, entries) -> None:
    """A codeword has zero inner product with every parity measurement."""
    for i, meas in enumerate(parity.measurements):
        if inner(arith, meas, parity.dims, entries):
            raise CheckError(f"{label}: parity check {i} is nonzero")


def witness(label: str, arith, family, entries, got) -> None:
    """``got`` is the first member with a nonzero inner product, or None.

    A hitting family must detect every nonzero planted matrix and must
    find nothing on the zero matrix.
    """
    nonzero = any(entries)
    if got is None:
        if nonzero:
            raise CheckError(f"{label}: nonzero matrix got no witness")
        return
    if not nonzero:
        raise CheckError(f"{label}: zero matrix got witness {got}")
    if not 0 <= got < len(family.measurements):
        raise CheckError(f"{label}: witness {got} is out of range")
    meas = family.measurements
    if not inner(arith, meas[got], family.dims, entries):
        raise CheckError(f"{label}: witness {got} has zero inner product")
    for i in range(got):
        if inner(arith, meas[i], family.dims, entries):
            raise CheckError(f"{label}: member {i} < witness {got} already hits")


def simulated_sizes(label: str, k: int, dprime: int, improper: int,
                    bprime: int, proper: int) -> None:
    """Improper simulation keeps k*|D'| members, proper keeps k^2*|B'|."""
    count(f"{label} improper", improper, k * dprime)
    count(f"{label} proper", proper, k * k * bprime)


def family_size(label: str, got: int, n: int, m: int, r: int) -> None:
    count(label, got, (n + m - r) * r)


def exit_ok(label: str, exit_code) -> None:
    if exit_code != 0:
        raise CheckError(f"{label}: exit code {exit_code}")


def cli_output(label: str, exit_code, got: bytes, want: bytes) -> None:
    exit_ok(label, exit_code)
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        raise CheckError(
            f"{label}: output differs from the generated file at byte {at} "
            f"({len(got)} bytes, expected {len(want)})"
        )
