"""Command-line front door.

    ringmul mul --a A.json --b B.json [--strategy auto] [--ring int|mod:P]
                [--out C.json] [--report]
    ringmul table --lmax L --nmax N --mmax M [--format csv|json]
                (each bound at most 64)
    ringmul verify [--suite symbolic|random|counts|all] [--seed S]
                [--max-shape L,N,M]   (each bound at most 16)
    ringmul bench --shape l,n,m [--ring int:BITS|mod:P] [--reps R]
                [--format csv|json] [--strategy NAME]
                (operands of at most 2^30 bits in all)

Matrix files are JSON objects {"rows": R, "cols": C, "data": [...]} with
row-major integer entries (decimal strings are accepted and are required
beyond 53-bit magnitude); modular matrices carry an extra "modulus"
field.  A plain-text alternative is accepted on input: first line
"R C", then R whitespace-separated rows.  Every integer read, from a
file or a flag, is a JSON integer or ASCII digits with an optional sign.

The verify suites walk one grid: every (strategy, l, n, m) within
--max-shape that the strategy table in ringmul.dispatch marks
applicable.  The symbolic suite clips that grid to 4,7,7, since its
polynomial expansion costs the most; at the default 3,7,6 each suite
runs 414 checks.

Exit codes: 0 success, 1 verification failure, 2 input/shape error,
3 capability error: the chosen strategy cannot run this shape or over
this ring.  No environment variables are consulted; the default seed
is 0.  Integer entries of any size round-trip exactly: main lifts the
interpreter's 4300-digit int/str limit while a command runs.

Start-up loads only what mul runs: ringmul.verify (and with it
ringmul.polynomials) is imported by the verify helpers, and random and
statistics by cmd_bench, when those commands run.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import re
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
#: How every integer from a file or a flag is spelled: ASCII digits, optional sign.
_DECIMAL = re.compile(r"[+-]?[0-9]+")
#: Largest bound verify accepts in each of L, N, M.  The suites' run time
#: grows about with the square of L*N*M; 16,16,16 takes about 45 s on a
#: shared 2-core VM (counts 22 s, random 21 s, clipped symbolic 0.4 s).
_VERIFY_SHAPE_CAP = 16
#: The symbolic suite walks the same grid clipped to these L, N, M bounds:
#: its polynomial expansion grows fastest of the three suites (on a shared
#: 2-core VM the full grid takes 4-7 s at 10,10,10 and about 1 min at
#: 16,16,16, the clipped one 0.4 s).
_SYMBOLIC_CAP = (4, 7, 7)
#: Largest bound table accepts in each of L, N, M.  table_rows holds every
#: row before printing: 64,64,64 gives 123,008 rows in 1.1 s (CSV) to
#: 1.8 s (JSON) at 69-86 MB peak RSS on a shared 2-core VM.
_TABLE_CAP = 64
#: Most bits bench draws for its two operands, (l*n + n*m) times the bits
#: of one entry, checked before it draws any.
_BENCH_BITS_CAP = 1 << 30


class _InputError(Exception):
    """Malformed input from a file or a flag; main reports it and exits 2."""


class _Refusal(Exception):
    """A strategy that cannot run on these operands; main reports it and exits 3."""


def _integer(value, what, least=None, most=None):
    """The one reader of outside integers: a JSON integer that is not a
    boolean, or a string of ASCII decimal digits with an optional sign,
    within least..most.  Anything else raises _InputError naming what."""
    given = value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        value = int(value, 10)
    if isinstance(value, bool) or not isinstance(value, int):
        exact = " (exact arithmetic only)" if isinstance(value, float) else ""
        raise _InputError(f"{what} must be an integer{exact}, got {given!r}")
    if least is not None and value < least:
        raise _InputError(f"{what} must be >= {least}, got {given!r}")
    if most is not None and value > most:
        raise _InputError(f"{what} must be <= {most}, got {given!r}")
    return value


def _flag_integer(text):
    """_integer for argparse's type=, so that argparse reports a bad flag value."""
    try:
        return _integer(text, "value")
    except _InputError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


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
    if text.lstrip()[:1] in ("{", "["):
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
        rows, cols = _integer(rows, f"{path}: rows", 1), _integer(cols, f"{path}: cols", 1)
        if not isinstance(data, list) or len(data) != rows * cols:
            raise _InputError(f"{path}: data must hold {rows * cols} entries")
        entries = [_integer(v, f"{path}: entry") for v in data]
        modulus = obj.get("modulus")
        if modulus is not None:
            modulus = _integer(modulus, f"{path}: modulus", 2)
        return rows, cols, entries, modulus
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise _InputError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise _InputError(f"{path}: first line must be 'ROWS COLS'")
    rows, cols = _integer(header[0], f"{path}: rows", 1), _integer(header[1], f"{path}: cols", 1)
    if len(lines) != rows + 1:
        raise _InputError(f"{path}: expected {rows} data rows")
    entries = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise _InputError(f"{path}: row has {len(toks)} entries, expected {cols}")
        entries.extend(_integer(t, f"{path}: entry") for t in toks)
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
    return _integer(spec[4:], f"modulus in {spec!r}", least=2)


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
        row = (l, n, m, ours, wak, predict_count(Strategy.NAIVE, l, n, m), wak - ours)
        rows.append(dict(zip(_TABLE_COLUMNS, row)))
    return rows


def cmd_table(args):
    bounds = (_integer(getattr(args, k), f"--{k}", 1, _TABLE_CAP) for k in ("lmax", "nmax", "mmax"))
    _print_rows(table_rows(*bounds), _TABLE_COLUMNS, args.format)
    return 0


def _parse_triple(text, flag, most=None):
    parts = text.split(",")
    if len(parts) != 3:
        raise _InputError(f"{flag} must be three comma-separated integers, got {text!r}")
    return tuple(_integer(part, f"{flag} value", 1, most) for part in parts)


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
        return {"figure": e.figure, "predicted": e.predicted, "observed": e.observed}
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
    bounds = _parse_triple(args.max_shape, "--max-shape", _VERIFY_SHAPE_CAP)
    suites = {
        "counts": (_verify_counts, bounds),
        "random": (_verify_random, bounds),
        "symbolic": (_verify_symbolic, tuple(map(min, bounds, _SYMBOLIC_CAP))),
    }
    wanted = list(suites) if args.suite == "all" else [args.suite]
    summary = {"seed": args.seed, "max_shape": list(bounds), "suites": {}}
    for name in wanted:
        checks, failures = _run_suite(*suites[name], args.seed)
        summary["suites"][name] = {"checks": checks, "failures": failures, "ok": not failures}
    summary["ok"] = all(suite["ok"] for suite in summary["suites"].values())
    print(json.dumps(summary, indent=2))
    return 0 if summary["ok"] else 1


def _bench_ring(spec):
    """(ring, bits of one entry, draw) for a ring spec int:BITS or mod:P."""
    if spec.startswith("int:"):
        bits = _integer(spec[4:], f"bit size in {spec!r}", 1, 2**31 - 1)  # getrandbits takes a C int
        return IntegerRing(), bits, lambda rng: rng.getrandbits(bits) - (1 << (bits - 1))
    if spec.startswith("mod:"):
        ring = ModularRing(_ring_modulus(spec))
        return ring, ring.modulus.bit_length(), lambda rng: ring.from_int(rng.randrange(ring.modulus))
    raise _InputError(f"bad ring spec {spec!r} (use int:BITS or mod:P)")


_BENCH_COLUMNS = ("strategy", "l", "n", "m", "reps", "first_s", "median_s", "spread_s")


def cmd_bench(args):
    import random
    import statistics

    if args.reps < 1:
        return _fail(2, f"--reps must be >= 1, got {args.reps}")
    l, n, m = _parse_triple(args.shape, "--shape")
    ring, bits, draw = _bench_ring(args.ring)
    if (l * n + n * m) * bits > _BENCH_BITS_CAP:
        return _fail(2, f"--shape {l},{n},{m} at {args.ring} needs more than 2^30 bits of operands")
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
        # one call more than --reps: the first pays the one-off cost of
        # generating inner-product code, and is reported on its own
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
    table.add_argument("--lmax", type=_flag_integer, required=True)
    table.add_argument("--nmax", type=_flag_integer, required=True)
    table.add_argument("--mmax", type=_flag_integer, required=True)
    table.add_argument("--format", default="csv", choices=("csv", "json"))
    table.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", default="all", choices=("symbolic", "random", "counts", "all"))
    ver.add_argument("--seed", type=_flag_integer, default=0)
    ver.add_argument(
        "--max-shape",
        default="3,7,6",
        help=f"L,N,M bounds for the suites, each at most {_VERIFY_SHAPE_CAP}",
    )
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="wall-clock strategy comparison")
    bench.add_argument("--shape", required=True, help="l,n,m")
    bench.add_argument("--ring", default="int:64", help="int:BITS or mod:P")
    bench.add_argument("--reps", type=_flag_integer, default=5)
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
    # integers of any size are read and written exactly, by every command
    with _int_digits_unlimited():
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except (_InputError, ShapeError) as e:
            return _fail(2, str(e))
        except _Refusal as e:
            return _fail(3, str(e))
        except MemoryError:
            return _fail(2, f"{args.command}: out of memory")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
