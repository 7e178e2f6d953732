"""What bench/tracing.py binds in the program: its names resolve, and its tracer runs.

The traced benchmark wraps every ``MODULE_FUNCTIONS`` name, counts every
``COUNTED`` method through its owner's ``__dict__`` and injects recovery
hooks into ``low_rank_recovery``; a rename or a removal in ``src/`` fails
here, not only in a traced run.
"""

import importlib
import importlib.util
import pathlib

import pytest

from tensorhit import lrr
from tensorhit.field import make_prime_field
from tensorhit.hitting import schedule
from tensorhit.tensor import LowRankTensor, expand

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for group, (modname, names) in tracing.MODULE_FUNCTIONS.items():
        module = importlib.import_module(f"tensorhit.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{group}: tensorhit.{modname}.{name}"


def test_every_counted_method_is_in_its_owners_dict(tracing):
    for owner, attr, metric in tracing.COUNTED:
        assert callable(owner.__dict__.get(attr)), f"{metric}: {owner.__name__}.{attr}"


def test_an_installed_tracer_records_the_diagonals_of_each_recovery(tracing):
    ctx, n, d, r = make_prime_field(1733), 6, 3, 1  # TensorB on 2^3 needs order 12^3
    mat = expand(LowRankTensor.from_factor_lists(ctx, (n, n), [[range(1, n + 1), range(2, n + 2)]]))
    cube = expand(LowRankTensor.from_factor_lists(ctx, (2,) * d, [[(1, 2)] * d]))
    d_synd, t_synd = lrr.measure_D(mat, r), lrr.tensor_measure(cube, r)
    original = lrr.low_rank_recovery
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lrr.low_rank_recovery is not original
        with tracer.root("round"):
            assert lrr.recover_from_D(ctx, n, n, r, d_synd) == mat
        with tracer.root("round"):
            assert lrr.tensor_recover(ctx, d, 2, r, t_synd) == cube
    finally:
        tracer.uninstall()
    assert lrr.low_rank_recovery is original
    s = schedule(ctx, "TensorB", (2,) * d, 2 * r)
    tensor_diagonals = sum((2 * r) ** i * len(layout.diagonals) for i, layout in enumerate(s.layouts))
    assert [agg["lrr.diagonals"] for agg in tracer.per_root()] == [2 * n - 1, tensor_diagonals]
    assert [agg["lrr.recover_calls"] > 0 for agg in tracer.per_root()] == [True, True]
