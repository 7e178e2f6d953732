#!/usr/bin/env python3
"""tensorhit benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``, and the metric names and units come from ``BENCHMARK.json``.

A run sets the workload up, makes one untimed warm-up round that also
runs the costlier output checks, then makes whole rounds until
``--seconds`` have passed.  With ``--trace 0`` it also sets the workload
up afresh between rounds, about ``SETUP_REPEATS`` times in all, and it
reports the end-to-end metrics as medians over set-ups and rounds.  With ``--trace 1``
it spends half the time untraced and half traced, then makes one counting
round and a field micro-benchmark, and reports the per-layer metrics;
the spans go to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import timing

SETUP_REPEATS = 21
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _load_program(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tensorhit", "__init__.py")):
        raise SystemExit(f"error: no tensorhit sources under {src}; "
                         "run from the root of a tensorhit checkout")
    sys.path.insert(0, src)
    import tensorhit

    if os.path.dirname(os.path.dirname(os.path.abspath(tensorhit.__file__))) != src:
        raise SystemExit(f"error: imported tensorhit from {tensorhit.__file__}, not {src}")


def _declared_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _round(wl, state, seed, i, tally, speed, verify=False):
    clock = timing.Clock(speed)
    wl.run_round(state, seed, i, clock, tally, verify=verify)
    return clock.finish()


def _rounds(wl, state, seed, first, seconds, tally, speed, root=None, between=None):
    """Whole rounds from index ``first`` until ``seconds`` have passed.

    ``root`` makes the context that wraps each round (a trace span);
    ``between`` runs after each round, untimed as far as rounds go.
    """
    clocks = []
    end = time.perf_counter() + seconds
    i = first
    while not clocks or time.perf_counter() < end:
        if root:
            with root():
                clocks.append(_round(wl, state, seed, i, tally, speed))
        else:
            clocks.append(_round(wl, state, seed, i, tally, speed))
        if between:
            between()
        i += 1
    return clocks, i


def _median(clocks, role):
    return statistics.median(c.roles[role] for c in clocks)


def end_to_end(wl, args, tally):
    speed = timing.Speed(wl.reference)
    setups = []

    def setup():
        dt, factor, state = speed.timed(wl.setup)
        setups.append(dt * factor)
        return state

    # fresh set-ups spread over the run, so that their median sees the host
    # as the rounds' medians do
    interval = args.seconds / SETUP_REPEATS
    due = time.perf_counter()

    def between_rounds():
        nonlocal due
        if time.perf_counter() >= due:
            setup()
            due += interval

    state = setup()
    _round(wl, state, args.seed, 0, tally, speed, verify=True)
    clocks, _ = _rounds(wl, state, args.seed, 1, args.seconds, tally, speed,
                        between=between_rounds)
    raw = statistics.median(c.raw_work for c in clocks)
    print(f"unscaled work_s {raw:.4f}; reference block median "
          f"{statistics.median(speed.blocks) * 1e3:.3f} ms, nominal {speed.nominal * 1e3} ms",
          file=sys.stderr)
    return {
        "setup_s": statistics.median(setups),
        "work_s": _median(clocks, "work"),
        "measure_ms": _median(clocks, "measure") * 1e3,
        "recover_ms": _median(clocks, "recover") * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


PIPELINE_MS = ("dprime_measure_ms", "dprime_recover_ms", "bprime_measure_ms",
               "bprime_recover_ms", "tensor_measure_ms", "tensor_recover_ms",
               "code_decode_ms", "cli_roundtrip_ms")


def _pipelines(clocks):
    """Per-operation medians of the untraced rounds, by pipeline."""
    out = {}
    for key in PIPELINE_MS:
        samples = [s for c in clocks for s in c.samples[key]]
        out[f"pipeline.{key}"] = statistics.median(samples) * 1e3 if samples else 0.0
    decode = [s for c in clocks for s in c.samples["code_decode_ms"]]
    out["pipeline.code_decode_p90_ms"] = (
        statistics.quantiles(decode, n=10)[-1] * 1e3 if len(decode) >= 2 else 0.0)
    out["pipeline.hitset_build_s"] = statistics.median(
        c.round_totals["hitset_build_s"] for c in clocks)
    return out


def per_layer(wl, args, tally, outdir):
    import tracing

    speed = timing.Speed(wl.reference)
    state = wl.setup()
    _round(wl, state, args.seed, 0, tally, speed, verify=True)
    half = args.seconds / 2
    plain, i = _rounds(wl, state, args.seed, 1, half, tally, speed)

    def traced_setup():
        with tracer.root("setup"):
            return wl.setup()

    tracer = tracing.Tracer()
    tracer.install()
    speed.in_calls = False
    try:
        _, setup_factor, state = speed.timed(traced_setup)
        traced, i = _rounds(wl, state, args.seed, i, half, tally, speed,
                            root=lambda: tracer.root("round"))
    finally:
        speed.in_calls = True
        tracer.uninstall()
    tracer.write(os.path.join(outdir, f"spans-{wl.name}-seed{args.seed}.jsonl"))

    def counting_pass():
        _round(wl, wl.setup(), args.seed, i, tally, speed)

    metrics = dict(tracing.count_calls(counting_pass))
    metrics.update(tracing.field_ns(wl.main_field(state), speed))
    # span times scale like the work of their round; counts stay as counted
    setup, *rounds = tracer.per_root()
    factors = [setup_factor] + [c.factor for c in traced]
    scaled = [{k: v * f if k.endswith("_s") else v for k, v in agg.items()}
              for agg, f in zip([setup, *rounds], factors)]
    for key in set().union(*scaled):
        per_round = statistics.median(agg.get(key, 0) for agg in scaled[1:])
        metrics[key] = scaled[0].get(key, 0) + per_round
    metrics["trace.overhead_s"] = _median(traced, "work") - _median(plain, "work")
    metrics["host.reference_ms"] = statistics.median(speed.blocks) * 1e3
    metrics.update(_pipelines(plain))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    _load_program(root)
    e2e, layers = _declared_metrics(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    outdir = os.path.join(BENCH_DIR, "out")
    os.makedirs(outdir, exist_ok=True)
    wl.workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=outdir)
    tally = workloads.Tally()
    try:
        if args.trace:
            values, declared = per_layer(wl, args, tally, outdir), layers
        else:
            values, declared = end_to_end(wl, args, tally), e2e
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    # a layer the workload never calls reads 0; every end-to-end metric is required
    metrics = {m["name"]: {"value": values[m["name"]] if not args.trace
                           else values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
