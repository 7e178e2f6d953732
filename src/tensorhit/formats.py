"""Text file formats: field headers, tensors, measurement sets, syndromes.

Every file starts with one field header line::

    field p=<p> k=<k> mod=<c0,c1,...,ck>

with ``mod`` omitted for prime fields.  Elements serialize as base-10
coefficients ``c0,c1,...,c(k-1)`` (a single integer over GF(p)).  Formats
are whitespace-tolerant on read and canonical on write, so identical
invocations produce byte-identical files.
"""

import math

from .errors import ShapeMismatch
from .field import FieldCtx, make_field
from .hitting import Measurement, MeasurementSet
from .tensor import DenseTensor, LowRankTensor, Rank1Tensor


def field_header(ctx: FieldCtx) -> str:
    if ctx.k == 1:
        return f"field p={ctx.p} k=1"
    mod = ",".join(str(c) for c in ctx.modulus)
    return f"field p={ctx.p} k={ctx.k} mod={mod}"


def _numbered(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of text, each with its 1-based line number."""
    return [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def _line(lines: list[tuple[int, str]], at: int, what: str) -> tuple[int, str]:
    if at >= len(lines):
        end = lines[-1][0] + 1 if lines else 1
        raise ShapeMismatch(f"line {end}: file ends before the {what}")
    return lines[at]


def _parse(no: int, parse, s: str):
    """parse(s), with a ValueError turned into a ShapeMismatch naming line no."""
    try:
        return parse(s)
    except ValueError as e:
        raise ShapeMismatch(f"line {no}: {e}") from e


def _keyed(no: int, line: str, tag: str, keys: tuple[str, ...]) -> dict[str, str]:
    """The key=value pairs of a ``tag`` line, which must hold every key."""
    parts = line.split()
    if not parts or parts[0] != tag:
        raise ShapeMismatch(f"line {no}: expected {tag} line, got {line!r}")
    kv = {}
    for part in parts[1:]:
        key, eq, val = part.partition("=")
        if not eq:
            raise ShapeMismatch(f"line {no}: expected key=value, got {part!r}")
        kv[key] = val
    missing = [k + "=" for k in keys if k not in kv]
    if missing:
        raise ShapeMismatch(f"line {no}: {tag} line lacks {', '.join(missing)}")
    return kv


def parse_field_header(line: str, no: int = 1) -> FieldCtx:
    kv = _keyed(no, line, "field", ("p", "k"))
    p = _parse(no, int, kv["p"])
    k = _parse(no, int, kv["k"])
    ctx = make_field(p, k)
    if k > 1 and "mod" in kv:
        mod = _parse(no, _parse_ints, kv["mod"])
        if mod != ctx.modulus:
            raise ShapeMismatch(
                f"line {no}: modulus {kv['mod']} is not the canonical one "
                f"for GF({p}^{k})"
            )
    return ctx


def _read_field(lines) -> FieldCtx:
    no, line = _line(lines, 0, "field header")
    return parse_field_header(line, no)


def _read_header(lines, tag: str, keys: tuple[str, ...]):
    """(field, line number, key=value pairs) of a file's first two lines."""
    ctx = _read_field(lines)
    no, line = _line(lines, 1, f"{tag} line")
    return ctx, no, _keyed(no, line, tag, keys)


def _dims_str(dims) -> str:
    return "x".join(str(n) for n in dims)


def _parse_dims(s: str) -> tuple[int, ...]:
    dims = tuple(int(t) for t in s.split("x"))
    if min(dims) < 1:
        raise ValueError(f"dimensions must be positive, got {s!r}")
    return dims


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(",")) if s else ()


def _tensor_body(ctx: FieldCtx, t: DenseTensor) -> list[str]:
    lines = [f"tensor dims={_dims_str(t.dims)}"]
    row_len = t.dims[-1]
    for base in range(0, len(t.entries), row_len):
        lines.append(
            " ".join(ctx.serialize(e) for e in t.entries[base : base + row_len])
        )
    return lines


def write_tensor(t: DenseTensor) -> str:
    return "\n".join([field_header(t.ctx)] + _tensor_body(t.ctx, t)) + "\n"


def _read_tensor_body(ctx: FieldCtx, lines, at: int, end: int | None = None):
    """The tensor block headed by lines[at], its values read from lines[at+1:end]."""
    no, header = _line(lines, at, "tensor block")
    kv = _keyed(no, header, "tensor", ("dims",))
    dims = _parse(no, _parse_dims, kv["dims"])
    total = math.prod(dims)
    tokens = [(vno, tok) for vno, ln in lines[at + 1 : end] for tok in ln.split()]
    if len(tokens) < total:
        raise ShapeMismatch(
            f"line {no}: tensor dims={kv['dims']} needs {total} values, "
            f"found {len(tokens)}"
        )
    if len(tokens) > total:
        raise ShapeMismatch(
            f"line {tokens[total][0]}: tensor dims={kv['dims']} holds {total} "
            f"values, found {len(tokens)}"
        )
    return DenseTensor(ctx, dims, [_parse(vno, ctx.parse, tok) for vno, tok in tokens])


def read_tensor(text: str) -> DenseTensor:
    lines = _numbered(text)
    return _read_tensor_body(_read_field(lines), lines, 1)


def read_tensor_or_lowrank(text: str) -> DenseTensor:
    """Read either format, expanding a factored file to its dense tensor."""
    lines = _numbered(text)
    if len(lines) > 1 and lines[1][1].startswith("lowrank"):
        from .tensor import expand

        return expand(read_lowrank(text))
    return read_tensor(text)


def write_lowrank(t: LowRankTensor) -> str:
    ctx = t.ctx
    lines = [
        field_header(ctx),
        f"lowrank dims={_dims_str(t.dims)} terms={len(t.terms)}",
    ]
    for term in t.terms:
        for v in term.factors:
            lines.append(" ".join(ctx.serialize(c) for c in v))
    return "\n".join(lines) + "\n"


def read_lowrank(text: str) -> LowRankTensor:
    lines = _numbered(text)
    ctx, no, kv = _read_header(lines, "lowrank", ("dims", "terms"))
    dims = _parse(no, _parse_dims, kv["dims"])
    terms = _parse(no, int, kv["terms"])
    at = 2
    factor_lists = []
    for _ in range(terms):
        factors = []
        for n in dims:
            vno, line = _line(lines, at, "factor vectors")
            vec = [_parse(vno, ctx.parse, tok) for tok in line.split()]
            if len(vec) != n:
                raise ShapeMismatch(
                    f"line {vno}: factor vector length does not match dims"
                )
            factors.append(tuple(vec))
            at += 1
        factor_lists.append(tuple(factors))
    terms_t = tuple(Rank1Tensor(ctx, f) for f in factor_lists)
    return LowRankTensor(ctx, dims, terms_t)


def write_measurements(ms: MeasurementSet) -> str:
    ctx = ms.ctx
    lines = [
        field_header(ctx),
        f"measurements family={ms.family} count={len(ms)} dims={_dims_str(ms.dims)}",
    ]
    for m in ms.measurements:
        ls = ",".join(str(v) for v in m.ls) if m.ls else "-"
        meta = f"meta k={m.k} l={ls}"
        if m.phi:
            meta += " phi=" + ",".join(str(v) for v in m.phi)
        lines.append(meta)
        lines.extend(_tensor_body(ctx, m.to_dense(ctx, ms.dims)))
    return "\n".join(lines) + "\n"


def read_measurements(text: str) -> MeasurementSet:
    lines = _numbered(text)
    ctx, no, kv = _read_header(lines, "measurements", ("family", "count", "dims"))
    family = kv["family"]
    count = _parse(no, int, kv["count"])
    dims = _parse(no, _parse_dims, kv["dims"])
    total = math.prod(dims)
    at = 2
    meas = []
    for _ in range(count):
        mno, line = _line(lines, at, "meta line")
        mkv = _keyed(mno, line, "meta", ("k", "l"))
        k = _parse(mno, int, mkv["k"])
        ls = _parse(mno, _parse_ints, "" if mkv["l"] == "-" else mkv["l"])
        phi = _parse(mno, _parse_ints, mkv.get("phi", ""))
        at += 1
        # tensor block: header line + ceil(total / dims[-1]) value lines
        value_lines = (total + dims[-1] - 1) // dims[-1]
        t = _read_tensor_body(ctx, lines, at, at + 1 + value_lines)
        at += 1 + value_lines
        meas.append(
            Measurement(k=k, ls=ls, phi=phi, entries=tuple(t.entries))
        )
    return MeasurementSet(ctx, dims, family, 0, tuple(meas))


def write_syndromes(
    ctx: FieldCtx, family: str, r: int, dims, syndromes
) -> str:
    lines = [
        field_header(ctx),
        f"syndromes family={family} r={r} dims={_dims_str(dims)}",
    ]
    lines.extend(ctx.serialize(s) for s in syndromes)
    return "\n".join(lines) + "\n"


def read_syndromes(text: str):
    """Returns (ctx, family, r, dims, syndromes)."""
    lines = _numbered(text)
    ctx, no, kv = _read_header(lines, "syndromes", ("family", "r", "dims"))
    r = _parse(no, int, kv["r"])
    dims = _parse(no, _parse_dims, kv["dims"])
    syndromes = [_parse(sno, ctx.parse, ln.strip()) for sno, ln in lines[2:]]
    return ctx, kv["family"], r, dims, syndromes
