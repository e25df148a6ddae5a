"""Command-line front door.

    ringmul mul --a A.json --b B.json [--strategy auto] [--ring int|mod:P]
                [--out C.json] [--report]
    ringmul table --lmax L --nmax N --mmax M [--format csv|json]
    ringmul verify [--suite symbolic|random|counts|all] [--seed S]
                [--max-shape L,N,M]   (each bound at most 16)
    ringmul bench --shape l,n,m [--ring int:BITS|mod:P] [--reps R]
                [--format csv|json] [--strategy NAME]

Matrix files are JSON objects {"rows": R, "cols": C, "data": [...]} with
row-major integer entries (decimal strings are accepted and are required
beyond 53-bit magnitude); modular matrices carry an extra "modulus"
field.  A plain-text alternative is accepted on input: first line
"R C", then R whitespace-separated rows.

The verify suites walk one grid: every (strategy, l, n, m) within
--max-shape that the strategy table in ringmul.dispatch marks
applicable.  The symbolic suite clips that grid to 4,7,7, since its
polynomial expansion costs the most; at the default 3,7,6 each suite
runs 417 checks.

Exit codes: 0 success, 1 verification failure, 2 input/shape error,
3 capability error: the chosen strategy cannot run this shape or over
this ring.  No environment variables are consulted; the default seed
is 0.  Integer entries of any size round-trip exactly: mul lifts the
interpreter's 4300-digit int/str limit while it runs.

Start-up loads only what mul runs: ringmul.verify (and with it
ringmul.polynomials) is imported by the verify helpers, and random and
statistics by cmd_bench, when those commands run.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time

from .dispatch import MIRRORS, Strategy, applicable, multiply, predict_count
from .errors import (
    CountMismatch,
    ExactHalveUnavailable,
    ShapeError,
    UnsupportedShape,
)
from .matrices import Matrix
from .rings import IntegerRing, ModularRing

_CONCRETE = [s for s in Strategy if s is not Strategy.AUTO]
_JSON_SAFE = 1 << 53
#: Largest bound verify accepts in each of L, N, M.  The suites' run time
#: grows about with the square of L*N*M; 16,16,16 takes about 80 s on a
#: shared 2-core VM.
_VERIFY_SHAPE_CAP = 16
#: The symbolic suite walks the same grid clipped to these L, N, M bounds:
#: its polynomial expansion grows fastest of the three suites (the full
#: grid at 10,10,10 takes about 30 s, the clipped one about 0.7 s).
_SYMBOLIC_CAP = (4, 7, 7)


class _InputError(Exception):
    """Malformed input from a file or a flag; main reports it and exits 2."""


class _Refusal(Exception):
    """A strategy that cannot run on these operands; main reports it and exits 3."""


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_entry(v, where):
    if isinstance(v, bool):
        raise _InputError(f"{where}: boolean entry {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            raise _InputError(f"{where}: bad integer literal {v!r}") from None
    if isinstance(v, float):
        raise _InputError(f"{where}: non-integer entry {v!r} (exact arithmetic only)")
    raise _InputError(f"{where}: unsupported entry {v!r}")


def _check_header(path, rows, cols):
    if not _is_int(rows) or not _is_int(cols) or rows < 1 or cols < 1:
        raise _InputError(f"{path}: rows/cols must be positive integers")


def _load_matrix_file(path):
    """Parse a matrix file; returns (rows, cols, entries, modulus-or-None)."""
    try:
        # utf-8-sig drops a byte-order mark, which lstrip() would keep
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as e:
        raise _InputError(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise _InputError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise _InputError(f"{path}: invalid JSON ({e})") from None
        except RecursionError:
            raise _InputError(f"{path}: JSON nested too deeply") from None
        try:
            rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        except (KeyError, TypeError):
            raise _InputError(f"{path}: need keys rows, cols, data") from None
        _check_header(path, rows, cols)
        if not isinstance(data, list) or len(data) != rows * cols:
            raise _InputError(f"{path}: data must hold {rows * cols} entries")
        entries = [_parse_entry(v, path) for v in data]
        modulus = obj.get("modulus")
        if modulus is not None and (not _is_int(modulus) or modulus < 2):
            raise _InputError(f"{path}: modulus must be an integer >= 2")
        return rows, cols, entries, modulus
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise _InputError(f"{path}: empty matrix file")
    try:
        rows, cols = map(int, lines[0].split())
    except ValueError:
        raise _InputError(f"{path}: first line must be 'ROWS COLS'") from None
    _check_header(path, rows, cols)
    if len(lines) != rows + 1:
        raise _InputError(f"{path}: expected {rows} data rows")
    entries = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise _InputError(f"{path}: row has {len(toks)} entries, expected {cols}")
        entries.extend(_parse_entry(t, path) for t in toks)
    return rows, cols, entries, None


def _encode_entry(v):
    return v if -_JSON_SAFE < v < _JSON_SAFE else str(v)


def _matrix_json(matrix, modulus=None):
    obj = {"rows": matrix.rows, "cols": matrix.cols}
    if modulus is None:
        obj["data"] = [_encode_entry(v) for v in matrix.data]
    else:
        obj["modulus"] = modulus
        obj["data"] = [_encode_entry(v.value) for v in matrix.data]
    return json.dumps(obj)


def _print_rows(rows, columns, fmt):
    if fmt == "json":
        print(json.dumps(rows))
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row[c]) for c in columns))


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift the interpreter's int/str digit limit, restoring it on exit.

    Python refuses by default to convert ints of more than 4300 decimal
    digits to or from str, which would break the lossless matrix format
    exactly where big entries make the fast schedules pay off.
    Interpreters that predate the limit have no setter and need nothing.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _ring_modulus(spec):
    """P of a ring spec "mod:P", an integer >= 2."""
    try:
        modulus = int(spec[4:], 10)
    except ValueError:
        raise _InputError(f"bad ring spec {spec!r}") from None
    if modulus < 2:
        raise _InputError(f"modulus must be >= 2 in {spec!r}")
    return modulus


def _multiply(A, B, strategy):
    """multiply(A, B, strategy) for every command, each refusal of the
    strategy raised as _Refusal.  multiply is looked up by name on each
    call, so patching cli.multiply reaches every command's products."""
    try:
        return multiply(A, B, strategy)
    except UnsupportedShape as e:
        l, n, m = A.rows, A.cols, B.cols
        mirror = MIRRORS.get(strategy)
        covers = mirror and applicable(mirror, l, n, m, A.ring.supports_halving)
        hint = f"; {mirror.value} covers it" if covers else ""
        raise _Refusal(f"strategy {strategy.value} does not cover {l}x{n} times {n}x{m}: {e}{hint}") from None
    except ExactHalveUnavailable as e:
        raise _Refusal(f"{strategy.value} needs exact halving: {e}") from None


@_int_digits_unlimited()
def cmd_mul(args):
    ra, ca, ea, mod_a = _load_matrix_file(args.a)
    rb, cb, eb, mod_b = _load_matrix_file(args.b)
    if mod_a is not None and mod_b is not None and mod_a != mod_b:
        raise _InputError(f"moduli disagree: {mod_a} vs {mod_b}")
    file_mod = modulus = mod_a if mod_a is not None else mod_b
    if args.ring.startswith("mod:"):
        modulus = _ring_modulus(args.ring)
        if file_mod is not None and file_mod != modulus:
            raise _InputError(f"file modulus {file_mod} conflicts with --ring {args.ring}")
    elif args.ring != "int":
        raise _InputError(f"bad ring spec {args.ring!r} (use int or mod:P)")

    ring = ModularRing(modulus) if modulus is not None else IntegerRing()
    A = Matrix(ring, ra, ca, [ring.from_int(v) for v in ea])
    B = Matrix(ring, rb, cb, [ring.from_int(v) for v in eb])

    product, report = _multiply(A, B, Strategy(args.strategy))
    payload = _matrix_json(product, modulus)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as e:
            return _fail(2, f"cannot write {args.out}: {e.strerror or e}")
    else:
        print(payload)
    if args.report:
        print(json.dumps({**report._asdict(), "strategy": report.strategy.value}))
    return 0


def _grid(lmax, nmax, mmax):
    return itertools.product(range(1, lmax + 1), range(1, nmax + 1), range(1, mmax + 1))


_TABLE_COLUMNS = ("l", "n", "m", "paper", "waksman_odd", "naive", "delta")


def table_rows(lmax, nmax, mmax):
    """Predicted-count comparison rows for every shape that general covers."""
    rows = []
    for l, n, m in _grid(lmax, nmax, mmax):
        if not applicable(Strategy.GENERAL_ODD, l, n, m, True):
            continue
        ours = predict_count(Strategy.GENERAL_ODD, l, n, m)
        wak = predict_count(Strategy.WAKSMAN_ODD, l, n, m)
        rows.append(
            {
                "l": l,
                "n": n,
                "m": m,
                "paper": ours,
                "waksman_odd": wak,
                "naive": predict_count(Strategy.NAIVE, l, n, m),
                "delta": wak - ours,
            }
        )
    return rows


def cmd_table(args):
    if args.lmax < 1 or args.nmax < 1 or args.mmax < 1:
        return _fail(2, "table bounds must be >= 1")
    _print_rows(table_rows(args.lmax, args.nmax, args.mmax), _TABLE_COLUMNS, args.format)
    return 0


def _parse_triple(text, flag):
    try:
        l, n, m = map(int, text.split(","))
    except ValueError:
        raise _InputError(f"{flag} must be three comma-separated integers, got {text!r}") from None
    if min(l, n, m) < 1:
        raise _InputError(f"{flag} values must be >= 1, got {text!r}")
    return l, n, m


def _supported_shapes(lmax, nmax, mmax):
    # every suite runs over the integers or integer polynomials, which halve exactly
    for strategy in _CONCRETE:
        for l, n, m in _grid(lmax, nmax, mmax):
            if applicable(strategy, l, n, m, True):
                yield strategy, l, n, m


def _verify_counts(strategy, l, n, m, seed):
    from . import verify

    try:
        verify.count_audit(strategy, l, n, m, seed=seed)
    except CountMismatch as e:
        return {"predicted": e.predicted, "observed": e.observed}
    return None


def _verify_random(strategy, l, n, m, seed):
    from . import verify

    report = verify.randomized_check(strategy, l, n, m, trials=8, seed=seed)
    if report.ok:
        return None
    return {
        "witness": {
            "a": report.mismatch.a_rows,
            "b": report.mismatch.b_rows,
            "got": report.mismatch.got_rows,
            "want": report.mismatch.want_rows,
        }
    }


def _verify_symbolic(strategy, l, n, m, seed):
    from . import verify

    report = verify.symbolic_verify(strategy, l, n, m)
    if report.ok:
        return None
    return {
        "witness": {
            "entry": list(report.entry),
            "monomial": report.monomial,
            "coefficient": report.coefficient,
        }
    }


def _run_suite(check, bounds, seed):
    """Run check on every (strategy, shape) within bounds; (checks, failures)."""
    checks = 0
    failures = []
    for strategy, l, n, m in _supported_shapes(*bounds):
        checks += 1
        failure = check(strategy, l, n, m, seed)
        if failure is not None:
            failures.append({"strategy": strategy.value, "shape": [l, n, m], **failure})
    return checks, failures


def cmd_verify(args):
    bounds = _parse_triple(args.max_shape, "--max-shape")
    if max(bounds) > _VERIFY_SHAPE_CAP:
        return _fail(2, f"--max-shape values must be <= {_VERIFY_SHAPE_CAP}, got {args.max_shape!r}")
    suites = {
        "counts": (_verify_counts, bounds),
        "random": (_verify_random, bounds),
        "symbolic": (_verify_symbolic, tuple(map(min, bounds, _SYMBOLIC_CAP))),
    }
    wanted = list(suites) if args.suite == "all" else [args.suite]
    summary = {
        "seed": args.seed,
        "max_shape": list(bounds),
        "suites": {},
        "ok": True,
    }
    for name in wanted:
        checks, failures = _run_suite(*suites[name], args.seed)
        summary["suites"][name] = {
            "checks": checks,
            "failures": failures,
            "ok": not failures,
        }
        if failures:
            summary["ok"] = False
    print(json.dumps(summary, indent=2))
    return 0 if summary["ok"] else 1


def _bench_ring(spec):
    if spec.startswith("int:"):
        try:
            bits = int(spec[4:], 10)
        except ValueError:
            bits = 0
        if not 1 <= bits < 2**31:  # random.getrandbits takes a C int
            raise _InputError(f"bad bit size in {spec!r} (use 1 to {2**31 - 1})")
        return IntegerRing(), lambda rng: rng.getrandbits(bits) - (1 << (bits - 1))
    if spec.startswith("mod:"):
        ring = ModularRing(_ring_modulus(spec))
        return ring, lambda rng: ring.from_int(rng.randrange(ring.modulus))
    raise _InputError(f"bad ring spec {spec!r} (use int:BITS or mod:P)")


_BENCH_COLUMNS = ("strategy", "l", "n", "m", "reps", "first_s", "median_s", "spread_s")


@_int_digits_unlimited()
def cmd_bench(args):
    import random
    import statistics

    if args.reps < 1:
        return _fail(2, f"--reps must be >= 1, got {args.reps}")
    l, n, m = _parse_triple(args.shape, "--shape")
    ring, draw = _bench_ring(args.ring)
    if args.strategy:
        strategies = [Strategy(args.strategy)]
    else:
        strategies = [s for s in _CONCRETE if applicable(s, l, n, m, ring.supports_halving)]

    rng = random.Random(0)
    A = Matrix(ring, l, n, [draw(rng) for _ in range(l * n)])
    B = Matrix(ring, n, m, [draw(rng) for _ in range(n * m)])

    rows = []
    for s in strategies:
        times = []
        # one call more than --reps: the first pays one-off costs, such as
        # counting the kernel at this shape and generating inner-product
        # code, and is reported on its own
        for _ in range(args.reps + 1):
            t0 = time.perf_counter()
            _multiply(A, B, s)
            times.append(time.perf_counter() - t0)
        first, *times = times
        row = (s.value, l, n, m, args.reps, first, statistics.median(times), max(times) - min(times))
        rows.append(dict(zip(_BENCH_COLUMNS, row)))
    _print_rows(rows, _BENCH_COLUMNS, args.format)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ringmul",
        description="Exact matrix products over commutative rings with "
        "audited multiplication counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mul = sub.add_parser("mul", help="multiply two matrix files")
    mul.add_argument("--a", required=True, help="left matrix file (JSON or text)")
    mul.add_argument("--b", required=True, help="right matrix file (JSON or text)")
    mul.add_argument(
        "--strategy",
        default="auto",
        choices=[s.value for s in Strategy],
        help="multiplication schedule (default: auto)",
    )
    mul.add_argument("--ring", default="int", help="int (default) or mod:P")
    mul.add_argument("--out", help="write the product here instead of stdout")
    mul.add_argument("--report", action="store_true", help="also print the cost report")
    mul.set_defaults(func=cmd_mul)

    table = sub.add_parser("table", help="predicted-count comparison table")
    table.add_argument("--lmax", type=int, required=True)
    table.add_argument("--nmax", type=int, required=True)
    table.add_argument("--mmax", type=int, required=True)
    table.add_argument("--format", default="csv", choices=("csv", "json"))
    table.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", default="all", choices=("symbolic", "random", "counts", "all"))
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument(
        "--max-shape",
        default="3,7,6",
        help=f"L,N,M bounds for the suites, each at most {_VERIFY_SHAPE_CAP}",
    )
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="wall-clock strategy comparison")
    bench.add_argument("--shape", required=True, help="l,n,m")
    bench.add_argument("--ring", default="int:64", help="int:BITS or mod:P")
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--format", default="csv", choices=("csv", "json"))
    bench.add_argument(
        "--strategy",
        default=None,
        choices=[s.value for s in _CONCRETE],
        help="bench a single strategy instead of all applicable ones",
    )
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, ShapeError) as e:
        return _fail(2, str(e))
    except _Refusal as e:
        return _fail(3, str(e))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
