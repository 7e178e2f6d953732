"""Tracing from outside the program: spans around its public functions.

``Tracer.install`` replaces each function named in ``MODULE_FUNCTIONS``, wherever a
``tensorhit`` module or a benchmark module binds it, by a wrapper that
records a span (name, start, end, parent).  Spans stay in memory until
``write`` dumps them as JSON lines.  Each span also notes whether a span of
its own group is already open (so nested calls are not counted twice) and
how much of its time its children cover (so a layer's self time is its
spans' durations minus their children's).

The recovery loop's ``RecoveryHooks`` are attached to every
``low_rank_recovery`` call: they split each diagonal into the time before
the oracle (correction and advice) and the oracle plus echelon update.

A separate counting pass (``count_calls``) replaces ``FieldCtx`` methods
and ``Measurement.inner`` with counters, so exact call counts do not
perturb the spans.
"""

import contextlib
import functools
import importlib
import json
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

from tensorhit import field, hitting, lrr

MODULE_FUNCTIONS = {
    "field.setup": ("field", ["make_prime_field", "make_extension"]),
    "hitting.family": ("hitting", ["hitting_set_B", "hitting_set_B_prime", "hitting_set_D",
                                   "hitting_set_D_prime", "hitting_set_tensor",
                                   "generate_family", "naive_set"]),
    "hitting.simulate": ("hitting", ["simulate_improper", "simulate_proper"]),
    "hitting.pit": ("hitting", ["first_witness", "pit_test"]),
    "lrr.measure": ("lrr", ["measure_D", "measure_syndromes", "tensor_measure"]),
    "lrr.convert": ("lrr", ["convert_B_to_D"]),
    "lrr.recover": ("lrr", ["recover_from_D", "tensor_recover", "low_rank_recovery"]),
    "sparse.prony": ("sparse", ["pronys_method"]),
    "linalg.rref": ("linalg", ["rref"]),
    "linalg.solve": ("linalg", ["solve"]),
    "linalg.interpolate": ("linalg", ["poly_interpolate"]),
    "linalg.nullspace": ("linalg", ["nullspace_basis"]),
    "rankcode.build": ("rankcode", ["build_code"]),
    "rankcode.encode": ("rankcode", ["encode"]),
    "rankcode.syndrome": ("rankcode", ["syndrome"]),
    "rankcode.decode": ("rankcode", ["decode"]),
    "formats.read": ("formats", ["read_tensor", "read_tensor_or_lowrank", "read_lowrank",
                                 "read_measurements", "read_syndromes"]),
    "formats.write": ("formats", ["write_tensor", "write_lowrank", "write_measurements",
                                  "write_syndromes"]),
    "cli": ("cli", ["main"]),  # span named cli.<verb>
}

BENCH_MODULES = ("workloads", "checks", "planted", "tracing")

# span fields
NAME, START, END, PARENT, ROOT, NESTED, CHILD, EXTRA = range(8)


def _binders():
    """Modules whose bindings may hold a traced function."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tensorhit" or name.startswith("tensorhit.")
                                  or name in BENCH_MODULES)]


def _extra(group, args, result):
    """Bytes for the formats layer, members for family builds."""
    if group == "formats.read":
        return len(args[0])
    if group == "formats.write":
        return len(result)
    if group == "hitting.family":
        return len(result)
    return 0


class Tracer:
    """Spans in memory, the wrappers that record them, and hook statistics."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open = Counter()
        self._patches: list[tuple] = []
        self.hook_stats = defaultdict(lambda: [0, 0, 0.0, 0.0])  # by root span
        self._mark = 0.0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), None, parent, root,
                           self._open[name] > 0, 0.0, 0])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        self._open[span[NAME]] -= 1
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    @contextlib.contextmanager
    def root(self, name):
        """One of the benchmark's own top-level spans: ``setup`` or ``round``."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, group, fn):
        tracer = self
        is_cli = group == "cli"
        inject_hooks = fn is lrr.low_rank_recovery

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(f"cli.{args[0][0]}" if is_cli else group)
            try:
                if inject_hooks and kwargs.get("hooks") is None and len(args) < 7:
                    kwargs["hooks"] = tracer.hooks
                    tracer._mark = time.perf_counter()
                result = fn(*args, **kwargs)
                tracer.spans[idx][EXTRA] = _extra(group, args, result)
                return result
            finally:
                tracer._exit(idx)

        return wrapper

    # -- recovery hooks ------------------------------------------------------

    def _before_oracle(self, k, state, advice_cols):
        now = time.perf_counter()
        stats = self.hook_stats[self._stack[0]]
        stats[1] += len(advice_cols)
        stats[2] += now - self._mark
        self._mark = now

    def _after_iteration(self, k, state):
        now = time.perf_counter()
        stats = self.hook_stats[self._stack[0]]
        stats[0] += 1
        stats[3] += now - self._mark
        self._mark = now

    # -- patching ------------------------------------------------------------

    def install(self):
        self.hooks = lrr.RecoveryHooks(before_oracle=self._before_oracle,
                                       after_iteration=self._after_iteration)
        self._patch_method(field.FieldCtx, "element_of_order",
                           self._wrap("field.order", field.FieldCtx.element_of_order))
        binders = _binders()
        for group, (modname, names) in MODULE_FUNCTIONS.items():
            module = importlib.import_module(f"tensorhit.{modname}")
            for attr in names:
                original = getattr(module, attr)
                wrapper = self._wrap(group, original)
                for m in binders:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, key, original))
                            setattr(m, key, wrapper)

    def _patch_method(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT]}) + "\n")

    def per_root(self):
        """Per top-level span, in order: group totals, calls and self times."""
        out = {i: Counter() for i, s in enumerate(self.spans) if s[PARENT] < 0}
        for s in self.spans:
            if s[PARENT] < 0:
                continue
            dur = s[END] - s[START]
            name = s[NAME]
            agg = out[s[ROOT]]
            if not s[NESTED]:
                agg[f"{name}_s"] += dur
            agg[f"{name}_calls"] += 1
            agg[f"{name.split('.')[0]}.self_s"] += dur - s[CHILD]
            if name.startswith("formats."):
                agg["formats.bytes"] += s[EXTRA]
            elif name == "hitting.family" and not s[NESTED]:
                agg["hitting.family_size"] += s[EXTRA]
        for root, (diagonals, advice, pre, oracle) in self.hook_stats.items():
            agg = out[root]
            agg["lrr.diagonals"] += diagonals
            agg["lrr.advice_total"] += advice
            agg["lrr.pre_oracle_s"] += pre
            agg["lrr.oracle_echelon_s"] += oracle
        return [out[i] for i in sorted(out)]


# ---------------------------------------------------------------------------
# exact call counts and field micro-timings
# ---------------------------------------------------------------------------

COUNTED = [(field.FieldCtx, "add", "field.add_calls"), (field.FieldCtx, "mul", "field.mul_calls"),
           (field.FieldCtx, "inv", "field.inv_calls"), (field.FieldCtx, "pow", "field.pow_calls"),
           (hitting.Measurement, "inner", "hitting.inner_calls")]


def count_calls(run):
    """Calls of the counted methods made while ``run()`` executes.

    A method that calls another (``pow`` calls ``mul`` on extension
    fields) is counted once for each.
    """
    counts = Counter()
    saved = []
    for owner, attr, metric in COUNTED:
        original = owner.__dict__[attr]

        def counter(*args, _f=original, _m=metric, **kwargs):
            counts[_m] += 1
            return _f(*args, **kwargs)

        saved.append((owner, attr, original))
        setattr(owner, attr, counter)
    try:
        run()
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    return counts


def field_ns(ctx, speed, ops=20000, inverses=4000, repeats=3):
    """Median scaled ns per add, mul and inv on random nonzero elements of ctx."""
    rng = random.Random(0)
    els = [ctx.from_index(rng.randrange(1, ctx.size)) for _ in range(ops + 1)]
    pairs = list(zip(els, els[1:]))
    singles = [(a,) for a in els[:inverses]]

    def loop(fn, args):
        for a in args:
            fn(*a)

    out = {}
    for name, fn, args in (("add", ctx.add, pairs), ("mul", ctx.mul, pairs),
                           ("inv", ctx.inv, singles)):
        runs = [speed.timed(loop, fn, args) for _ in range(repeats)]
        out[f"field.{name}_ns"] = statistics.median(
            dt * factor / len(args) for dt, factor, _ in runs) * 1e9
    return out
