"""Seeded inputs, the benchmark's own textbook product and counting element.

The reference product and the operation tally belong to the benchmark,
not to ringmul, so an edit to the library can neither weaken the output
check nor move set-up time.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
from dataclasses import dataclass, field

P61 = (1 << 61) - 1
#: A fixed odd 4096-bit modulus.  It names a ring, so --seed does not move it.
ODD4096 = random.Random(4096).getrandbits(4096) | (1 << 4095) | 1

#: Entry domains by label: (bits of a signed integer entry, modulus or None).
RINGS = {
    "int64": (64, None),
    "int4096": (4096, None),
    "int65536": (65536, None),
    "modp61": (None, P61),
    "mod2_64": (None, 1 << 64),
    "mododd4096": (None, ODD4096),
    "mod2_4096": (None, 1 << 4096),
    "int8192": (8192, None),
    "int16384": (16384, None),
}

#: Sizes of the scalar price sheet.
PRICE_SIZES = ("int64", "int4096", "int65536", "modp61", "mod2_64", "mododd4096", "mod2_4096")

#: (l, n, m) shapes of the product workloads.  Together they reach every
#: strategy `auto` can pick except core3: odd n with wide and with narrow
#: output, n = 3, even n, and a single row.
SHAPES = ((16, 15, 16), (24, 3, 3), (12, 12, 12), (16, 15, 2), (1, 15, 16))

#: Product workloads: the rings they run and the input pairs drawn per
#: (ring, shape) case.  Both price regimes run the same shapes.
PRODUCT_WORKLOADS = {
    "small-entries": (("int64", "modp61", "mod2_64"), 4),
    "big-entries": (("int4096", "mododd4096", "mod2_4096"), 1),
}

#: CLI cases: name -> (l, n, m, entry label, file format).  The last two
#: are valid lossless inputs beyond Python's default 4300-digit limit.
CLI_CASES = {
    "3x3-int64-json": (3, 3, 3, "int64", "json"),
    "3x3-int64-text": (3, 3, 3, "int64", "text"),
    "16x15x16-int4096": (16, 15, 16, "int4096", "json"),
    "16x15x16-modp61": (16, 15, 16, "modp61", "json"),
    "3x3-int8192": (3, 3, 3, "int8192", "json"),
    "3x3-int16384": (3, 3, 3, "int16384", "json"),
}

_JSON_SAFE = 1 << 53


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int/str digit limit in this process only, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def draw(rng, label):
    bits, modulus = RINGS[label]
    if modulus is None:
        return rng.getrandbits(bits) - (1 << (bits - 1))
    return rng.randrange(modulus)


def make_ring(rm, label):
    modulus = RINGS[label][1]
    return rm.IntegerRing() if modulus is None else rm.ModularRing(modulus)


def textbook(a, b, l, n, m, modulus):
    """Row-major l x m product of flat integer lists, reduced if modular."""
    out = []
    for i in range(l):
        row = a[i * n : (i + 1) * n]
        for j in range(m):
            s = sum(row[k] * b[k * m + j] for k in range(n))
            out.append(s % modulus if modulus else s)
    return out


def entries(matrix):
    """Plain integer values of a product over an integer or modular ring."""
    return [v if isinstance(v, int) else v.value for v in matrix.data]


@dataclass
class Item:
    """One input pair with its integer entries and ringmul matrices."""

    label: str
    l: int
    n: int
    m: int
    a: list
    b: list
    A: object = None
    B: object = None
    want: list = field(default=None, repr=False)

    @property
    def modulus(self):
        return RINGS[self.label][1]

    def build(self, rm):
        ring = make_ring(rm, self.label)
        self.A = rm.Matrix(ring, self.l, self.n, [ring.from_int(v) for v in self.a])
        self.B = rm.Matrix(ring, self.n, self.m, [ring.from_int(v) for v in self.b])
        return self

    def reference(self):
        if self.want is None:
            self.want = textbook(self.a, self.b, self.l, self.n, self.m, self.modulus)
        return self.want


def draw_item(rng, label, l, n, m):
    a = [draw(rng, label) for _ in range(l * n)]
    b = [draw(rng, label) for _ in range(n * m)]
    return Item(label, l, n, m, a, b)


def product_batch(rm, workload, seed):
    labels, per_case = PRODUCT_WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [
        draw_item(rng, label, l, n, m).build(rm)
        for label in labels
        for l, n, m in SHAPES
        for _ in range(per_case)
    ]


def _write_matrix(path, rows, cols, values, modulus, fmt):
    if fmt == "text":
        lines = [f"{rows} {cols}"]
        lines += [" ".join(str(v) for v in values[i * cols : (i + 1) * cols]) for i in range(rows)]
        text = "\n".join(lines) + "\n"
    else:
        obj = {"rows": rows, "cols": cols}
        if modulus is not None:
            obj["modulus"] = modulus
        obj["data"] = [v if -_JSON_SAFE < v < _JSON_SAFE else str(v) for v in values]
        text = json.dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cli_cases(rm, seed, directory):
    """Write each CLI case's two matrix files; return {name: (item, a_path, b_path)}."""
    rng = random.Random(f"cli-mul/{seed}")
    cases = {}
    with unlimited_digits():
        for name, (l, n, m, label, fmt) in CLI_CASES.items():
            item = draw_item(rng, label, l, n, m).build(rm)
            paths = []
            for side, rows, cols, values in (("a", l, n, item.a), ("b", n, m, item.b)):
                path = os.path.join(directory, f"{name}.{side}.{fmt}")
                _write_matrix(path, rows, cols, values, item.modulus, fmt)
                paths.append(path)
            cases[name] = (item, *paths)
    return cases


class OpTally:
    __slots__ = ("muls", "adds", "halvings")

    def __init__(self):
        self.muls = self.adds = self.halvings = 0


class CountEl:
    """Element that tallies ``*``, ``+``/``-``/unary minus and ``halve``."""

    __slots__ = ("v", "t")

    def __init__(self, v, t):
        self.v = v
        self.t = t

    def __add__(self, o):
        self.t.adds += 1
        return CountEl(self.v + o.v, self.t)

    def __sub__(self, o):
        self.t.adds += 1
        return CountEl(self.v - o.v, self.t)

    def __neg__(self):
        self.t.adds += 1
        return CountEl(-self.v, self.t)

    def __mul__(self, o):
        self.t.muls += 1
        return CountEl(self.v * o.v, self.t)

    def halve(self):
        self.t.halvings += 1
        v = self.v
        if isinstance(v, int):
            if v % 2:
                raise ArithmeticError(f"halving odd value {v}")
            return CountEl(v // 2, self.t)
        return CountEl(v.halve(), self.t)


class CountRing:
    """Ring record for CountEl matrices: the kernels read only these two fields."""

    def __init__(self, base):
        self.name = f"count({base.name})"
        self.supports_halving = base.supports_halving


def count_ops(rm, kernel, item):
    """Run a bare kernel over counting elements; return (tally, product values)."""
    tally = OpTally()
    ring = CountRing(item.A.ring)
    A = rm.Matrix(ring, item.l, item.n, [CountEl(v, tally) for v in item.A.data])
    B = rm.Matrix(ring, item.n, item.m, [CountEl(v, tally) for v in item.B.data])
    C = kernel(A, B)
    values = [e.v if isinstance(e.v, int) else e.v.value for e in C.data]
    return tally, values
