"""Dense row-major matrices over an arbitrary ring.  A square Matrix is
itself a ring element, e.g. of the non-commutative rings.Mat2Ring."""

from __future__ import annotations

from .errors import ShapeError


class Matrix:
    """Rectangular array of ring elements with explicit shape.

    data is a flat row-major list of length rows*cols; all entries must
    come from the same ring instance.  Matrices are treated as immutable
    values: operations return new matrices.
    """

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, rows, cols, data):
        if rows < 1 or cols < 1:
            raise ShapeError(f"shape {rows}x{cols} must have positive dimensions")
        data = list(data)
        if len(data) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, ring, rows):
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        width = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != width:
                raise ShapeError(f"ragged rows: expected width {width}, got {len(r)}")
            flat.extend(r)
        return cls(ring, len(rows), width, flat)

    @classmethod
    def zeros(cls, ring, rows, cols):
        z = ring.zero()
        return cls(ring, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, ring, size):
        z = ring.zero()
        one = ring.one()
        data = [one if i == j else z for i in range(size) for j in range(size)]
        return cls(ring, size, size, data)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row_list(self, i):
        base = i * self.cols
        return self.data[base : base + self.cols]

    def to_rows(self):
        return [self.row_list(i) for i in range(self.rows)]

    def slice_rows(self, i0, i1):
        if not 0 <= i0 < i1 <= self.rows:
            raise ShapeError(f"row slice [{i0}:{i1}] out of range for {self.rows} rows")
        return Matrix(self.ring, i1 - i0, self.cols, self.data[i0 * self.cols : i1 * self.cols])

    def slice_cols(self, j0, j1):
        if not 0 <= j0 < j1 <= self.cols:
            raise ShapeError(f"column slice [{j0}:{j1}] out of range for {self.cols} columns")
        data = []
        for i in range(self.rows):
            base = i * self.cols
            data.extend(self.data[base + j0 : base + j1])
        return Matrix(self.ring, self.rows, j1 - j0, data)

    def transpose(self):
        """The cols x rows transpose, built by slicing: no ring operation."""
        c = self.cols
        data = []
        for j in range(c):
            data.extend(self.data[j::c])
        return Matrix(self.ring, c, self.rows, data)

    def map_entries(self, f, ring=None):
        return Matrix(ring or self.ring, self.rows, self.cols, [f(v) for v in self.data])

    def _pairs(self, other, verb):
        """Both entry lists zipped; ShapeError unless other has this shape."""
        if self.shape != other.shape:
            raise ShapeError(f"cannot {verb} {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        return zip(self.data, other.data)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.ring, self.rows, self.cols, [x + y for x, y in self._pairs(other, "add")])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.ring, self.rows, self.cols, [x - y for x, y in self._pairs(other, "subtract")])

    def __neg__(self):
        return Matrix(self.ring, self.rows, self.cols, [-x for x in self.data])

    def __mul__(self, other):
        """The reference product, baseline.naive; `multiply` chooses schedules."""
        if not isinstance(other, Matrix):
            return NotImplemented
        from .baseline import naive  # baseline imports this module

        return naive(self, other)

    def halve(self):
        """Each entry halved by rings.halve_exact; NotEvenlyDivisible on an odd one."""
        from .rings import halve_exact  # rings imports this module

        return self.map_entries(halve_exact)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.ring.name}, {self.to_rows()!r})"


def matrix_from_ints(ring, rows):
    """Build a matrix from nested integer lists via the ring's canonical map."""
    return Matrix.from_rows(ring, [[ring.from_int(v) for v in r] for r in rows])


def random_matrix(ring, rows, cols, rng):
    return Matrix(ring, rows, cols, [ring.random_element(rng) for _ in range(rows * cols)])
