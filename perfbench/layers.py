"""Per-layer measurements of the traced run (--trace 1).

Each function times calls into one ringmul module from the benchmark's
side.  Workload-scoped figures are taken on the run's own inputs; the
scalar price sheet and the CLI figures do not depend on the workload and
are taken in every traced run, so each traced run reports the full set.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import statistics
import subprocess
import sys
from time import perf_counter_ns

import inputs
from tracing import Tracer, installed

PRICE_REPS = 5
CLI_REPS = 5


def _per_op_us(op, operands):
    """Median over PRICE_REPS timed calls of op(operands), per operand, in us."""
    runs = []
    for _ in range(PRICE_REPS):
        t0 = perf_counter_ns()
        op(operands)
        runs.append((perf_counter_ns() - t0) / len(operands) / 1e3)
    return statistics.median(runs)


def _mul(pairs):
    for x, y in pairs:
        x * y


def _add(pairs):
    for x, y in pairs:
        x + y


def price_sheet(rm, seed):
    """rings.{mul,add,halve}_us.<size>: one scalar op, in microseconds.

    Halving is priced only where the ring has it.
    """
    rng = random.Random(f"prices/{seed}")
    halve = rm.halve_exact

    def _halve(values):
        for x in values:
            halve(x)

    out = {}
    for label in inputs.PRICE_SIZES:
        ring = inputs.make_ring(rm, label)
        count = 24 if label == "int65536" else 400  # a 65536-bit multiply costs ~0.6 ms
        xs = [ring.from_int(inputs.draw(rng, label)) for _ in range(count)]
        ys = [ring.from_int(inputs.draw(rng, label)) for _ in range(count)]
        pairs = list(zip(xs, ys))
        out[f"rings.mul_us.{label}"] = _per_op_us(_mul, pairs)
        out[f"rings.add_us.{label}"] = _per_op_us(_add, pairs)
        if ring.supports_halving:
            out[f"rings.halve_us.{label}"] = _per_op_us(_halve, [x + x for x in xs])
    return out


def choose_strategy_us(rm, batch):
    """Mean cost of one dispatch.choose_strategy call over the batch's shapes."""
    calls = [(it.l, it.n, it.m, it.A.ring.supports_halving) for it in batch] * 50
    choose = rm.choose_strategy

    def _run(calls):
        for l, n, m, halving in calls:
            choose(l, n, m, supports_halving=halving)

    return _per_op_us(_run, calls)


def _wall_ms(cmd, env):
    t0 = perf_counter_ns()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
    return (perf_counter_ns() - t0) / 1e6


def cli_startup(env):
    """cli.interpreter_ms and cli.import_ms, from fresh interpreters."""
    bare = statistics.median(_wall_ms([sys.executable, "-c", "pass"], env) for _ in range(CLI_REPS))
    loaded = statistics.median(
        _wall_ms([sys.executable, "-c", "import ringmul.cli"], env) for _ in range(CLI_REPS)
    )
    return {"cli.interpreter_ms": bare, "cli.import_ms": loaded - bare}


def cli_in_process(cases):
    """cli.main_ms.<case> and cli.io_ms.<case>, the latter main's self time
    outside multiply: parsing, ring set-up and encoding.

    main runs in this process with the default digit limit, so the
    over-limit cases fail here as they do in a fresh interpreter.
    """
    cli = importlib.import_module("ringmul.cli")
    out = {}
    for name, (_, a_path, b_path) in cases.items():
        argv = ["mul", "--a", a_path, "--b", b_path, "--report"]
        plain, io_ns = [], []
        for _ in range(CLI_REPS):
            plain.append(_run_main(cli.main, argv))
        for _ in range(CLI_REPS):
            tracer = Tracer()
            main = tracer.wrap(cli.main, "cli.main")
            multiply = cli.multiply
            cli.multiply = tracer.wrap(multiply, "dispatch.multiply")
            try:
                _run_main(main, argv)
            finally:
                cli.multiply = multiply
            io_ns.append(tracer.totals()["cli.main"][1])
        out[f"cli.main_ms.{name}"] = statistics.median(plain) / 1e6
        out[f"cli.io_ms.{name}"] = statistics.median(io_ns) / 1e6
    return out


def _run_main(main, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter_ns()
        try:
            main(argv)
        except Exception:  # the over-limit case escapes main with a traceback
            pass
        return perf_counter_ns() - t0


#: (metric, span names, "incl" or "self") read from the traced passes.
SPAN_METRICS = (
    ("dispatch.multiply_ms", ("dispatch.multiply",), "incl"),
    ("general.mul_odd_n_ms", ("kernel.general",), "incl"),
    ("general.core3_times_3xm_ms", ("general.core3_times_3xm",), "incl"),
    ("general.mat_add_ms", ("general.mat_add",), "incl"),
    ("baseline.waksman_even_ms", ("baseline.waksman_even", "kernel.waksman-even"), "incl"),
    ("baseline.winograd_even_ms", ("kernel.winograd-even",), "incl"),
    ("baseline.waksman_odd_self_ms", ("kernel.waksman-odd",), "self"),
    ("baseline.naive_ms", ("kernel.naive",), "incl"),
    ("matrices.slice_ms", ("matrices.slice_rows", "matrices.slice_cols"), "incl"),
    ("matrices.add_ms", ("matrices.add",), "incl"),
    ("rings.lift_ms", ("rings.lift",), "incl"),
    ("rings.unwrap_ms", ("rings.unwrap",), "incl"),
)


def span_metrics(tracer, products):
    totals = tracer.totals()
    out = {}
    for metric, names, kind in SPAN_METRICS:
        ns = sum(totals[n][0 if kind == "incl" else 1] for n in names if n in totals)
        out[metric] = ns / products / 1e6
    # multiply's own code: strategy choice, count prediction, context set-up.
    kernel_ns = sum(t[0] for n, t in totals.items() if n.startswith("kernel."))
    own = totals["dispatch.multiply"][0] - kernel_ns - totals["rings.lift"][0] - totals["rings.unwrap"][0]
    out["dispatch.multiply_self_ms"] = own / products / 1e6
    return out


def trace_products(rm, items, keys, seconds, check):
    """Rounds of four passes over the items until `seconds` have passed.

    The passes: multiply untraced, the bare kernel of the strategy that
    multiply picked, multiply traced, and ringmul's textbook product.
    They alternate so that drift in machine speed falls on all four alike.
    `check(key, item, phase, output)` judges every output outside the
    timed region; a raised exception is passed as the output.
    """
    tracer = Tracer()
    traced_multiply = tracer.wrap(rm.multiply, "dispatch.multiply")
    kernels = {}

    def untraced(key, item):
        product, report = rm.multiply(item.A, item.B)
        kernels[key] = rm.kernel_for(report.strategy)
        return product, report

    phases = {
        "multiply": untraced,
        "kernel": lambda key, item: kernels[key](item.A, item.B),
        "traced": lambda key, item: traced_multiply(item.A, item.B),
        "naive": lambda key, item: rm.naive(item.A, item.B),
    }
    busy = {phase: [] for phase in phases}
    deadline = perf_counter_ns() + int(seconds * 1e9)
    traced_products = 0
    while not busy["multiply"] or perf_counter_ns() < deadline:
        for phase, call in phases.items():
            ns = 0
            outputs = []
            with installed(tracer, rm) if phase == "traced" else contextlib.nullcontext():
                for key, item in zip(keys, items):
                    t0 = perf_counter_ns()
                    try:
                        out = call(key, item)
                    except Exception as e:  # judged by check() as a failed operation
                        out = e
                    ns += perf_counter_ns() - t0
                    outputs.append(out)
            for key, item, out in zip(keys, items, outputs):
                check(key, item, phase, out)
            busy[phase].append(ns)
        traced_products += len(items)
    med = {phase: statistics.median(v) for phase, v in busy.items()}
    out = span_metrics(tracer, traced_products)
    out["rings.counted_overhead_ratio"] = med["multiply"] / med["kernel"]
    out["baseline.naive_ref_ms"] = med["naive"] / len(items) / 1e6
    out["trace.overhead_frac"] = 1 - med["multiply"] / med["traced"]
    return out, tracer
