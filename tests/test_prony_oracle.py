"""pronys_method against a brute-force oracle, over every syndrome.

For each field, point order, n <= 5, s <= 2 and advice set, every vector
of length n is measured with the 2s x n dual Reed-Solomon matrix, and the
vectors within the promise are tabled by syndrome.  The promise is the one
the decoder states: at most s - |S'|/2 nonzero entries outside S', where
S' is the advice set after the odd-advice enlargement (its smallest absent
index, or a simulated index n when it holds them all).  Every vector with
at most s - ceil(|S|/2) nonzero entries outside S is among them.  Then
every syndrome in GF(q)^(2s) is decoded: one with a tabled preimage must
come back as exactly that vector, and any other must raise
InconsistentSyndrome.
"""

import itertools

import pytest

from tensorhit.errors import FieldTooSmall, InconsistentSyndrome
from tensorhit.field import make_extension, make_prime_field
from tensorhit.sparse import dual_rs, pronys_method

FIELDS = {"GF5": make_prime_field(5), "GF(2^2)": make_extension(make_prime_field(2), 2)}


def _enlarged(advice: set[int], n: int) -> set[int]:
    if len(advice) % 2 == 0:
        return set(advice)
    free = [i for i in range(n) if i not in advice]
    return advice | {free[0] if free else n}


@pytest.mark.parametrize("zero_first", [True, False], ids=["zero-first", "zero-last"])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_prony_returns_the_unique_preimage_or_raises(name, zero_first):
    ctx = FIELDS[name]
    els = [ctx.from_index(t) for t in range(ctx.size)]
    if not zero_first:
        els = els[1:] + els[:1]
    for n in range(1, min(5, ctx.size) + 1):
        points = els[:n]
        vectors = [list(x) for x in itertools.product(els, repeat=n)]
        for s in (1, 2):
            v = dual_rs(ctx, points, s)
            syndromes = [tuple(v.measure(x)) for x in vectors]
            all_y = [list(y) for y in itertools.product(els, repeat=2 * s)]
            for size in range(min(2 * s, n) + 1):
                for advice in map(set, itertools.combinations(range(n), size)):
                    enlarged = _enlarged(advice, n)
                    budget = s - len(enlarged) // 2
                    table = {}
                    for x, y in zip(vectors, syndromes):
                        outside = sum(1 for i, a in enumerate(x)
                                      if a != ctx.zero and i not in enlarged)
                        if outside <= budget:
                            assert y not in table, (n, s, advice, x, table.get(y))
                            table[y] = x
                    # the simulated index takes an unused nonzero point
                    no_fresh_point = n in enlarged and all(
                        e in points for e in els if e != ctx.zero)
                    for y in all_y:
                        if no_fresh_point:
                            with pytest.raises(FieldTooSmall):
                                pronys_method(ctx, n, s, advice, y, points)
                        elif tuple(y) in table:
                            got = pronys_method(ctx, n, s, advice, y, points)
                            assert got == table[tuple(y)], (n, s, advice, y)
                        else:
                            with pytest.raises(InconsistentSyndrome):
                                pronys_method(ctx, n, s, advice, y, points)
