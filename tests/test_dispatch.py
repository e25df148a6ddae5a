import collections
import itertools
import json
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringmul.dispatch as dispatch
import ringmul.rings as rings
from ringmul import (
    ExactHalveUnavailable,
    Mat2Ring,
    Matrix,
    Mod,
    ModularRing,
    PolynomialRing,
    ShapeError,
    Strategy,
    UnsupportedShape,
    ZZ,
    choose_strategy,
    cli,
    kernel_for,
    matrix_from_ints,
    multiply,
    naive,
    predict_count,
    random_matrix,
    tally,
    waksman_even,
)
from ringmul.dispatch import applicable

CONCRETE = [s for s in Strategy if s is not Strategy.AUTO]


@pytest.mark.parametrize(
    "strategy,shape,expected",
    [
        (Strategy.GENERAL_ODD, (3, 3, 3), 21),
        (Strategy.GENERAL_ODD, (3, 3, 4), 28),
        (Strategy.GENERAL_ODD, (2, 5, 3), 25),
        (Strategy.GENERAL_ODD, (4, 5, 6), 84),
        (Strategy.WAKSMAN_ODD, (3, 3, 3), 23),
        (Strategy.WAKSMAN_ODD, (1, 1, 1), 1),
        (Strategy.WAKSMAN_EVEN, (2, 2, 2), 7),
        (Strategy.WINOGRAD_EVEN, (2, 2, 2), 8),
        (Strategy.GENERAL_ODD, (5, 3, 3), 33),
        (Strategy.GENERAL_ODD, (1, 3, 3), 9),
        (Strategy.NAIVE, (2, 2, 2), 8),
        (Strategy.NAIVE, (3, 4, 5), 60),
        (Strategy.GENERAL_WINOGRAD, (3, 3, 3), 21),  # general's program at n = 3
        (Strategy.GENERAL_WINOGRAD, (2, 5, 4), 34),
        (Strategy.GENERAL_WINOGRAD, (3, 5, 3), 36),
        (Strategy.GENERAL_WINOGRAD, (4, 7, 5), 100),
        (Strategy.GENERAL_WINOGRAD, (8, 9, 8), 362),
        (Strategy.GENERAL_WINOGRAD, (16, 15, 16), 2166),
        (Strategy.GENERAL_TRANSPOSED, (16, 15, 2), 368),  # general at (2, 15, 16)
        (Strategy.GENERAL_TRANSPOSED, (3, 3, 2), 15),
        (Strategy.GENERAL_TRANSPOSED, (4, 5, 3), 46),  # general at (3, 5, 4)
        (Strategy.GENERAL_WINOGRAD_TRANSPOSED, (16, 15, 2), 374),
        (Strategy.GENERAL_WINOGRAD_TRANSPOSED, (5, 7, 4), 100),  # general-winograd at (4, 7, 5)
    ],
)
def test_predict_count_values(strategy, shape, expected):
    assert predict_count(strategy, *shape) == expected


@pytest.mark.parametrize(
    "strategy,shape",
    [
        (Strategy.WINOGRAD_EVEN, (2, 3, 2)),
        (Strategy.WAKSMAN_EVEN, (2, 5, 2)),
        (Strategy.WAKSMAN_ODD, (2, 4, 2)),
        (Strategy.GENERAL_ODD, (2, 3, 2)),
        (Strategy.GENERAL_ODD, (2, 6, 3)),
        (Strategy.GENERAL_ODD, (2, 4, 4)),
        (Strategy.GENERAL_ODD, (2, 1, 4)),
        (Strategy.GENERAL_ODD, (2, 5, 2)),
        (Strategy.AUTO, (2, 2, 2)),
        (Strategy.NAIVE, (0, 1, 1)),
        (Strategy.GENERAL_WINOGRAD, (2, 4, 4)),
        (Strategy.GENERAL_WINOGRAD, (2, 5, 2)),
        (Strategy.GENERAL_TRANSPOSED, (2, 5, 4)),
        (Strategy.GENERAL_TRANSPOSED, (4, 4, 2)),
        (Strategy.GENERAL_WINOGRAD_TRANSPOSED, (2, 5, 4)),
        (Strategy.GENERAL_WINOGRAD_TRANSPOSED, (4, 1, 4)),
    ],
)
def test_predict_count_domain(strategy, shape):
    with pytest.raises(UnsupportedShape):
        predict_count(strategy, *shape)


def test_predict_count_always_integral():
    # the closed forms divide exactly on their domains; a fractional
    # result would raise inside predict_count
    for strategy in CONCRETE:
        for l in range(1, 7):
            for n in range(1, 8):
                for m in range(1, 8):
                    try:
                        count = predict_count(strategy, l, n, m)
                    except UnsupportedShape:
                        continue
                    assert isinstance(count, int) and count >= 0


@pytest.mark.parametrize(
    "shape,halving,expected",
    [
        ((3, 3, 3), True, Strategy.GENERAL_ODD),
        ((3, 3, 3), False, Strategy.GENERAL_ODD),  # n = 3 never halves
        ((4, 4, 4), True, Strategy.WAKSMAN_EVEN),
        ((4, 4, 4), False, Strategy.WINOGRAD_EVEN),
        ((2, 5, 2), False, Strategy.NAIVE),
        ((2, 5, 2), True, Strategy.WAKSMAN_ODD),
        ((5, 1, 5), True, Strategy.NAIVE),
        ((2, 5, 4), True, Strategy.GENERAL_ODD),
        ((2, 5, 4), False, Strategy.GENERAL_WINOGRAD),  # 34 against naive's 40
        ((2, 4, 3), False, Strategy.WINOGRAD_EVEN),
        ((1, 2, 1), False, Strategy.NAIVE),  # winograd would cost n/2 extra here
        ((1, 4, 3), False, Strategy.NAIVE),
        ((16, 15, 16), False, Strategy.GENERAL_WINOGRAD),  # 2166 against 3840
        ((16, 15, 16), True, Strategy.GENERAL_ODD),
        ((3, 5, 3), False, Strategy.GENERAL_WINOGRAD),  # 36 against 45
        ((8, 9, 8), False, Strategy.GENERAL_WINOGRAD),  # 362 against 576
        ((2, 5, 1), True, Strategy.NAIVE),  # ties waksman-odd at 10, with 8 additions against 26
        ((1, 5, 2), True, Strategy.NAIVE),  # ties waksman-odd at 10
        ((1, 15, 16), True, Strategy.NAIVE),  # ties general at 240, with no halving
        ((1, 4, 5), True, Strategy.NAIVE),  # ties waksman-even at 20
        ((16, 15, 2), True, Strategy.GENERAL_TRANSPOSED),  # 368 against waksman-odd's 375
        ((16, 15, 2), False, Strategy.GENERAL_WINOGRAD_TRANSPOSED),  # 374 against naive's 480
        ((3, 3, 2), True, Strategy.GENERAL_TRANSPOSED),  # 15 against 16
        ((3, 3, 2), False, Strategy.GENERAL_TRANSPOSED),  # n = 3 never halves
    ],
)
def test_choose_strategy_rules(shape, halving, expected):
    assert choose_strategy(*shape, supports_halving=halving) is expected


def test_choose_strategy_is_never_beaten():
    # the chosen strategy attains the minimum predicted count among all
    # strategies applicable to the shape and capability set
    for halving in (True, False):
        for l in range(1, 7):
            for n in range(1, 7):
                for m in range(1, 7):
                    chosen = choose_strategy(l, n, m, supports_halving=halving)
                    applicable = {}
                    for s in CONCRETE:
                        needs_halving = (
                            s is Strategy.WAKSMAN_EVEN
                            or (s is Strategy.WAKSMAN_ODD and n > 1)
                            or (s is Strategy.GENERAL_ODD and n > 3)
                            or (s is Strategy.GENERAL_TRANSPOSED and n > 3)
                        )
                        if needs_halving and not halving:
                            continue
                        try:
                            applicable[s] = predict_count(s, l, n, m)
                        except UnsupportedShape:
                            continue
                    best = min(applicable.values())
                    assert applicable[chosen] == best, (l, n, m, halving, chosen)
                    if n == 1:
                        # explicit rule: trivial inner dimension is naive,
                        # even though waksman-odd ties it
                        assert chosen is Strategy.NAIVE
                    else:
                        # among equally cheap strategies the fixed order wins
                        cheapest = [s for s in dispatch._TABLE if applicable.get(s) == best]
                        assert chosen is cheapest[0]


def _best_count(l, n, m, halving, strategies):
    return min(predict_count(s, l, n, m) for s in strategies if applicable(s, l, n, m, halving))


UNMIRRORED = [s for s in CONCRETE if s not in dispatch.MIRRORS.values()]


@pytest.mark.parametrize("halving,shapes,saved", [(True, 588, 2156), (False, 588, 5194)])
def test_orientation_never_costs_and_saves_exactly(halving, shapes, saved):
    # auto's count is symmetric in l and m, and is the cheaper of the
    # unmirrored table's counts at (l, n, m) and (m, n, l)
    cheaper, total = 0, 0
    for l, n, m in itertools.product(range(1, 17), repeat=3):
        count = predict_count(choose_strategy(l, n, m, halving), l, n, m)
        mirrored = choose_strategy(m, n, l, halving)
        assert count == predict_count(mirrored, m, n, l), (l, n, m)
        unmirrored = _best_count(l, n, m, halving, UNMIRRORED)
        assert count == min(unmirrored, _best_count(m, n, l, halving, UNMIRRORED)), (l, n, m)
        if count < unmirrored:
            cheaper += 1
            total += unmirrored - count
    assert (cheaper, total) == (shapes, saved)


@pytest.mark.parametrize(
    "shape,halving,expected,count",
    [
        ((16, 15, 2), True, Strategy.GENERAL_TRANSPOSED, 368),
        ((16, 15, 2), False, Strategy.GENERAL_WINOGRAD_TRANSPOSED, 374),
        ((3, 3, 2), True, Strategy.GENERAL_TRANSPOSED, 15),
        ((16, 15, 16), True, Strategy.GENERAL_ODD, 2160),  # ties its mirror; table order decides
    ],
)
def test_multiply_runs_the_mirrored_row_where_cheaper(shape, halving, expected, count):
    l, n, m = shape
    ring = ZZ if halving else ModularRing(2**64)
    rng = random.Random(25)
    for _ in range(2):  # a first and a repeated call
        A, B = _random_pair(ring, l, n, m, rng)
        product, report = multiply(A, B)
        assert product == naive(A, B)
        assert report.strategy is expected
        assert report.predicted == count


def _raised(kernel, A, B):
    try:
        kernel(A, B)
    except (UnsupportedShape, ShapeError, ExactHalveUnavailable) as e:
        return type(e)
    return None


def test_table_matches_the_kernels():
    # the dispatch table's domain and halving columns, checked against
    # what each kernel itself rejects and halves on every small shape
    rng = random.Random(11)
    mod4 = ModularRing(4)  # no exact halving
    mismatches = []
    for s in CONCRETE:
        kernel = kernel_for(s)
        for l, n, m in itertools.product(range(1, 7), repeat=3):
            covers = applicable(s, l, n, m, True)
            needs_halving = covers and not applicable(s, l, n, m, False)
            over_zz = _raised(kernel, random_matrix(ZZ, l, n, rng), random_matrix(ZZ, n, m, rng))
            if (over_zz is None) != covers:
                mismatches.append(("domain", s, l, n, m, over_zz))
            over_mod4 = _raised(kernel, random_matrix(mod4, l, n, rng), random_matrix(mod4, n, m, rng))
            if (over_mod4 is ExactHalveUnavailable) != needs_halving:
                mismatches.append(("halving", s, l, n, m, over_mod4))
    assert mismatches == []


def test_each_kernel_refuses_in_its_table_rows_words():
    # a bare kernel refuses a shape with its row's own domain predicate;
    # a mirrored row's kernel refuses through its base row's predicate at
    # the mirrored shape
    base = {mirror: s for s, mirror in dispatch.MIRRORS.items()}
    mismatches = []
    for s in CONCRETE:
        kernel = kernel_for(s)
        for l, n, m in itertools.product(range(1, 7), repeat=3):
            if s in base:
                want = dispatch._TABLE[base[s]].domain(m, n, l)
            else:
                want = dispatch._TABLE[s].domain(l, n, m)
            try:
                kernel(Matrix.zeros(ZZ, l, n), Matrix.zeros(ZZ, n, m))
                got = None
            except UnsupportedShape as e:
                got = str(e)
            except ShapeError:
                got = ShapeError
            if got != want:
                mismatches.append((s, l, n, m, got, want))
    assert mismatches == []


def test_each_strategy_has_one_table_row_holding_its_kernel():
    assert set(dispatch._TABLE) == set(CONCRETE)
    for s in CONCRETE:
        assert kernel_for(s) is dispatch._TABLE[s].kernel
    with pytest.raises(UnsupportedShape):
        kernel_for(Strategy.AUTO)


def test_multiply_over_a_noncommutative_ring_runs_naive():
    ring = Mat2Ring()
    rng = random.Random(7)
    A = random_matrix(ring, 3, 3, rng)
    B = random_matrix(ring, 3, 3, rng)
    product, report = multiply(A, B)
    assert report.strategy is Strategy.NAIVE
    assert product == naive(A, B)
    assert multiply(A, B, Strategy.NAIVE)[0] == product
    # the fast schedule itself is wrong here, which is why auto avoids it
    assert kernel_for(Strategy.GENERAL_ODD)(A, B) != product


@pytest.mark.parametrize("strategy", [s for s in CONCRETE if s is not Strategy.NAIVE], ids=lambda s: s.value)
def test_multiply_refuses_fast_strategies_over_a_noncommutative_ring(strategy):
    ring = Mat2Ring()
    A = random_matrix(ring, 3, 3, random.Random(8))
    with pytest.raises(ValueError, match=f"{strategy.value} needs a commutative ring, mat2 is not"):
        multiply(A, A, strategy)


def test_multiply_auto_3x3_identities():
    I = Matrix.identity(ZZ, 3)
    product, report = multiply(I, I)
    assert product == I
    assert report.strategy is Strategy.GENERAL_ODD
    assert report.predicted == 21


def test_multiply_auto_row_times_3x3():
    a = matrix_from_ints(ZZ, [[1, 2, 3]])
    B = matrix_from_ints(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    product, report = multiply(a, B)
    assert product.to_rows() == [[30, 36, 42]]
    assert report.predicted == 9


def test_multiply_auto_2x2():
    A = matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    product, report = multiply(A, A)
    assert product == naive(A, A)
    assert report.strategy is Strategy.WAKSMAN_EVEN
    assert report.predicted == 7


def test_multiply_explicit_strategies_match_naive():
    rng = random.Random(3)
    cases = [
        (Strategy.NAIVE, 2, 3, 2),
        (Strategy.WINOGRAD_EVEN, 3, 4, 2),
        (Strategy.WAKSMAN_EVEN, 2, 6, 3),
        (Strategy.WAKSMAN_ODD, 3, 5, 2),
        (Strategy.GENERAL_ODD, 4, 3, 3),
        (Strategy.GENERAL_ODD, 2, 7, 5),
    ]
    for strategy, l, n, m in cases:
        A = random_matrix(ZZ, l, n, rng)
        B = random_matrix(ZZ, n, m, rng)
        product, report = multiply(A, B, strategy)
        assert product == naive(A, B)
        assert report.strategy is strategy


def test_multiply_auto_over_rings_without_halving():
    ring = ModularRing(6)
    rng = random.Random(4)
    for l, n, m in [(2, 4, 3), (2, 5, 2), (3, 3, 3), (2, 5, 4)]:
        A = random_matrix(ring, l, n, rng)
        B = random_matrix(ring, n, m, rng)
        product = multiply(A, B)[0]
        assert product == naive(A, B)


def test_multiply_predicted_equals_observed_grid():
    # observed repeats predicted by construction; this test pins both,
    # since the benchmark's gate reads observed
    rng = random.Random(5)
    for l in range(1, 6):
        for n in range(1, 7):
            for m in range(1, 6):
                A = random_matrix(ZZ, l, n, rng)
                B = random_matrix(ZZ, n, m, rng)
                product, report = multiply(A, B)
                assert report.predicted == report.observed, report
                assert product == naive(A, B)


def test_multiply_rejects_bad_explicit_strategy():
    A = matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    with pytest.raises(UnsupportedShape):
        multiply(A, A, Strategy.GENERAL_ODD)


def test_multiply_shape_and_ring_checks():
    A = matrix_from_ints(ZZ, [[1, 2]])
    with pytest.raises(ShapeError):
        multiply(A, A)
    B = matrix_from_ints(ModularRing(5), [[1], [2]])
    with pytest.raises(ValueError):
        multiply(A, B)
    # polynomial rings of equal arity over different variables differ too
    xy = PolynomialRing(("x", "y"))
    ab = PolynomialRing(("a", "b"))
    A = matrix_from_ints(xy, [[2, 3]])
    product, _ = multiply(A, matrix_from_ints(xy, [[1], [4]]))
    assert product.to_rows() == [[xy.from_int(14)]]
    with pytest.raises(ValueError, match="different rings"):
        multiply(A, matrix_from_ints(ab, [[1], [4]]))


# ---------------------------------------------------------------------------
# multiply counts nothing: its report is the table's closed form


def _random_pair(ring, l, n, m, rng):
    return random_matrix(ring, l, n, rng), random_matrix(ring, n, m, rng)


def _refuse_counted_rings(monkeypatch):
    def refuse(*args):
        raise AssertionError("a CountedRing on the multiply path")

    monkeypatch.setattr(rings.CountedRing, "__init__", refuse)


def test_warm_multiply_skips_instrumentation(monkeypatch):
    rng = random.Random(6)
    multiply(*_random_pair(ZZ, 3, 5, 4, rng))
    _refuse_counted_rings(monkeypatch)
    A, B = _random_pair(ZZ, 3, 5, 4, rng)
    product, report = multiply(A, B)
    assert product == naive(A, B)
    # general costs 46 here; the mirrored row runs general at (4, 5, 3)
    assert report.strategy is Strategy.GENERAL_TRANSPOSED
    assert report.predicted == 45


def test_multiply_returns_one_report_per_strategy_and_shape():
    rng = random.Random(30)
    A, B = _random_pair(ZZ, 3, 5, 4, rng)
    report = multiply(A, B)[1]
    assert multiply(*_random_pair(ModularRing(7), 3, 5, 4, rng))[1] is report
    assert multiply(A, B, Strategy.NAIVE)[1] is multiply(A, B, Strategy.NAIVE)[1] is not report
    # refusals are not cached, and the shape's comes before the ring's
    A, B = _random_pair(ModularRing(8), 2, 5, 3, rng)
    for strategy, error in [(Strategy.WAKSMAN_EVEN, UnsupportedShape), (Strategy.GENERAL_ODD, ExactHalveUnavailable)] * 2:
        with pytest.raises(error):
            multiply(A, B, strategy)


@pytest.mark.parametrize("ring", [ZZ, ModularRing(2**61 - 1), ModularRing(2**64)], ids=["int", "mod_p61", "mod_2^64"])
@pytest.mark.parametrize("shape", [(3, 3, 3), (16, 15, 2), (16, 15, 16)])
def test_multiply_builds_no_counted_ring(monkeypatch, tmp_path, capsys, ring, shape):
    # the first product of a shape, from multiply and from `ringmul mul`
    # alike, runs the bare kernel and counts nothing
    A, B = _random_pair(ring, *shape, random.Random(26))
    want = naive(A, B)
    _refuse_counted_rings(monkeypatch)
    product, report = multiply(A, B)
    assert product == want
    assert report.predicted == predict_count(report.strategy, *shape)

    modulus = getattr(ring, "modulus", None)
    paths = []
    for name, M in (("a", A), ("b", B)):
        data = [str(getattr(v, "value", v)) for v in M.data]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"rows": M.rows, "cols": M.cols, "data": data}))
        paths.append(str(path))
    argv = ["mul", "--a", paths[0], "--b", paths[1], "--report"]
    if modulus is not None:
        argv += ["--ring", f"mod:{modulus}"]
    assert cli.main(argv) == 0
    product_line, report_line = capsys.readouterr().out.splitlines()
    assert [int(v) for v in json.loads(product_line)["data"]] == [getattr(v, "value", v) for v in want.data]
    assert json.loads(report_line) == {**report._asdict(), "strategy": report.strategy.value}


def test_concurrent_multiplies_report_true_counts():
    # first calls of each shape race with each other
    rng = random.Random(11)
    shapes = [(2, 3, 3), (3, 4, 2), (2, 5, 4), (1, 2, 1), (3, 3, 5)]
    pairs = [_random_pair(ZZ, *s, rng) for s in shapes]
    cases = [(A, B, naive(A, B), predict_count(choose_strategy(*s), *s)) for s, (A, B) in zip(shapes, pairs)]
    errors = []

    def work():
        try:
            for _ in range(20):
                for A, B, want, count in cases:
                    product, report = multiply(A, B)
                    if product != want or report.predicted != count:
                        errors.append(report)
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    threads = [threading.Thread(target=work) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# ---------------------------------------------------------------------------
# properties the table's closed-form counts rely on

_DIM = st.integers(1, 6)
_ODD = st.integers(0, 3).map(lambda k: 2 * k + 1)
_EVEN = st.integers(1, 3).map(lambda k: 2 * k)

_GENERAL = st.tuples(_DIM, st.integers(1, 3).map(lambda k: 2 * k + 1), st.integers(3, 6))
_GENERAL_MIRRORED = _GENERAL.map(lambda s: s[::-1])

#: Shapes drawn inside each concrete strategy's domain.
SHAPES = {
    Strategy.NAIVE: st.tuples(_DIM, _DIM, _DIM),
    Strategy.WINOGRAD_EVEN: st.tuples(_DIM, _EVEN, _DIM),
    Strategy.WAKSMAN_EVEN: st.tuples(_DIM, _EVEN, _DIM),
    Strategy.WAKSMAN_ODD: st.tuples(_DIM, _ODD, _DIM),
    Strategy.GENERAL_ODD: _GENERAL,
    Strategy.GENERAL_WINOGRAD: _GENERAL,
    Strategy.GENERAL_TRANSPOSED: _GENERAL_MIRRORED,
    Strategy.GENERAL_WINOGRAD_TRANSPOSED: _GENERAL_MIRRORED,
}
RINGS = [ZZ, ModularRing(2**61 - 1)]


@pytest.mark.parametrize("ring", RINGS, ids=["int", "mod_p61"])
@pytest.mark.parametrize("strategy", CONCRETE, ids=[s.value for s in CONCRETE])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_multiply_audited_then_from_table_matches_naive(strategy, ring, data):
    l, n, m = data.draw(SHAPES[strategy], label="shape")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    predicted = predict_count(strategy, l, n, m)
    with mock.patch.object(rings.CountedRing, "__init__", side_effect=AssertionError("CountedRing")):
        for _ in range(2):
            A, B = _random_pair(ring, l, n, m, rng)
            product, report = multiply(A, B, strategy)
            assert product == naive(A, B)
            assert report.predicted == predicted


@pytest.mark.parametrize("ring", RINGS, ids=["int", "mod_p61"])
@pytest.mark.parametrize("strategy", CONCRETE, ids=[s.value for s in CONCRETE])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_tally_is_data_oblivious(strategy, ring, data):
    l, n, m = data.draw(SHAPES[strategy], label="shape")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))

    def counts(A, B):
        counted = tally(kernel_for(strategy), A, B)[1]
        return counted.count, counted.adds, counted.halvings

    def filled(rows, cols, value):
        return Matrix(ring, rows, cols, [value] * (rows * cols))

    random_tally = counts(*_random_pair(ring, l, n, m, rng))
    for value in (ring.zero(), ring.one()):
        assert counts(filled(l, n, value), filled(n, m, value)) == random_tally
    assert random_tally[0] == predict_count(strategy, l, n, m)


# ---------------------------------------------------------------------------
# residue rings: kernels run on the integer values, one reduction per entry


def _textbook_mod(A, B, modulus):
    """Product of the entries' integer values, reduced: a reference that
    uses no residue operator."""
    a, b = A.to_rows(), B.to_rows()
    return [
        sum(a[i][k].value * b[k][j].value for k in range(A.cols)) % modulus
        for i in range(A.rows)
        for j in range(B.cols)
    ]


@pytest.mark.parametrize("strategy,shape", [(Strategy.WAKSMAN_EVEN, (2, 4, 3)), (Strategy.GENERAL_ODD, (2, 5, 3))])
@pytest.mark.parametrize("first", [7, 8], ids=["warmed-at-mod7", "cold"])
def test_even_modulus_refuses_halving_on_every_call(strategy, shape, first):
    # a shape that ran at an odd modulus must still refuse an even one,
    # and the refusal names the caller's ring whether or not the shape ran
    rng = random.Random(21)
    if first == 7:
        multiply(*_random_pair(ModularRing(7), *shape, rng), strategy)
    A, B = _random_pair(ModularRing(8), *shape, rng)
    for _ in range(3):
        with pytest.raises(ExactHalveUnavailable) as refused:
            multiply(A, B, strategy)
        assert str(refused.value) == "ring mod8 lacks exact halving"
        assert "counted(" not in str(refused.value)


@pytest.mark.parametrize("modulus", [4, 2**64])
def test_multiply_refuses_halving_from_the_table_before_any_run(modulus, monkeypatch):
    # the table alone decides: the product run is never reached
    def never(*args):
        raise AssertionError("ran a refused strategy")

    monkeypatch.setattr(ModularRing, "run", never)
    ring = ModularRing(modulus)
    rng = random.Random(26)
    refused = collections.Counter()
    for s in CONCRETE:
        for l, n, m in itertools.product(range(1, 7), repeat=3):
            if applicable(s, l, n, m, True) and dispatch.cost(s, l, n, m)[2]:
                with pytest.raises(ExactHalveUnavailable) as e:
                    multiply(*_random_pair(ring, l, n, m, rng), s)
                assert str(e.value) == f"ring mod{modulus} lacks exact halving"
                refused[s] += 1
    assert len(refused) == 4 and sum(refused.values()) > 100


def test_even_modulus_hook_gives_the_exact_product_and_the_bare_kernel_refuses():
    # over the integers every halving is exact and reduction mod 8 is a
    # ring map, so the hook's result is the residue product; Mod's own
    # halving still refuses at an even modulus
    ring = ModularRing(8)
    A, B = _random_pair(ring, 3, 4, 5, random.Random(27))
    C = ring.run(waksman_even, A, B)
    assert C.ring is ring
    assert [e.value for e in C.data] == _textbook_mod(A, B, 8)
    with pytest.raises(ExactHalveUnavailable, match="^2 is not invertible mod 8$"):
        waksman_even(A, B)


def _with_entry(matrix, index, entry):
    data = list(matrix.data)
    data[index] = entry
    return Matrix(matrix.ring, matrix.rows, matrix.cols, data)


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 3, 3), (2, 4, 3), (3, 5, 2), (4, 5, 4)])
@pytest.mark.parametrize(
    "entry,error,match",
    [(Mod(3, 5), ValueError, "mixed moduli"), (3, TypeError, None)],
    ids=["foreign-modulus", "bare-int"],
)
def test_foreign_entry_raises_on_every_call(shape, entry, error, match):
    rng = random.Random(22)
    ring = ModularRing(7)
    l, n, m = shape
    for side in range(6):  # first and repeated calls; the entry in A, then in B
        A, B = _random_pair(ring, l, n, m, rng)
        if side % 2:
            B = _with_entry(B, rng.randrange(n * m), entry)
        else:
            A = _with_entry(A, rng.randrange(l * n), entry)
        with pytest.raises(error, match=match):
            multiply(A, B)


def test_matrix_of_foreign_entries_is_refused():
    # no operator meets a mismatch when every entry is foreign alike, so
    # only the entry check at the ring's boundary can refuse these
    ring = ModularRing(7)
    with pytest.raises(TypeError):
        multiply(*[Matrix(ring, 2, 2, [1, 2, 3, 4])] * 2)
    with pytest.raises(ValueError, match="mixed moduli 7 and 5"):
        multiply(*[Matrix(ring, 2, 2, [Mod(v, 5) for v in (1, 2, 3, 4)])] * 2)


def test_residue_multiply_runs_no_residue_operator(monkeypatch):
    rng = random.Random(23)
    shapes = [(3, 3, 3), (3, 4, 3), (2, 5, 2), (4, 5, 4), (16, 15, 16)]
    cases = []
    for modulus in (2**61 - 1, 2**64):
        for shape in shapes:
            A, B = _random_pair(ModularRing(modulus), *shape, rng)
            cases.append((A, B, _textbook_mod(A, B, modulus)))

    def refuse(*args):
        raise AssertionError("residue operator on the multiply path")

    for op in ("__add__", "__sub__", "__mul__", "__neg__", "halve"):
        monkeypatch.setattr(Mod, op, refuse)
    for _ in range(2):  # a first and a repeated call
        for A, B, want in cases:
            product = multiply(A, B)[0]
            assert [e.value for e in product.data] == want


ODD4096 = random.Random(4096).getrandbits(4096) | (1 << 4095) | 1
MODULI = [2, 3, 4, 7, 2**61 - 1, 2**64, ODD4096, 2**4096]


@settings(max_examples=60, deadline=None)
@given(
    modulus=st.sampled_from(MODULI),
    shape=st.tuples(_DIM, _DIM, _DIM),
    seed=st.integers(0, 2**32),
)
def test_residue_products_are_canonical_and_counted(modulus, shape, seed):
    l, n, m = shape
    ring = ModularRing(modulus)
    rng = random.Random(seed)
    edges = (0, 1, modulus - 1)

    def entry():
        # range ends make the largest integer intermediates
        return Mod(rng.choice(edges) if rng.random() < 0.5 else rng.randrange(modulus), modulus)

    strategies = [s for s in CONCRETE if applicable(s, l, n, m, ring.supports_halving)]
    for strategy in strategies:
        predicted = predict_count(strategy, l, n, m)
        for _ in range(2):  # a first and a repeated call
            A = Matrix(ring, l, n, [entry() for _ in range(l * n)])
            B = Matrix(ring, n, m, [entry() for _ in range(n * m)])
            product, report = multiply(A, B, strategy)
            assert (product.rows, product.cols, product.ring) == (l, m, ring)
            assert [e.value for e in product.data] == _textbook_mod(A, B, modulus)
            for e in product.data:
                assert 0 <= e.value < modulus
                assert e == Mod(e.value, modulus)
                assert hash(e) == hash(Mod(e.value, modulus))
            assert report.predicted == predicted


@pytest.mark.parametrize("modulus", [2**64, 2**4096], ids=["2^64", "2^4096"])
def test_auto_over_power_of_two_moduli_runs_general_winograd(modulus):
    # no exact halving mod 2^k, so odd n > 3 takes the halving-free schedule
    rng = random.Random(24)
    ring = ModularRing(modulus)
    for _ in range(2):  # a first and a repeated call
        A, B = _random_pair(ring, 16, 15, 16, rng)
        product, report = multiply(A, B)
        assert report.strategy is Strategy.GENERAL_WINOGRAD
        assert report.predicted == 2166
        assert product == naive(A, B)
        assert [e.value for e in product.data] == _textbook_mod(A, B, modulus)


SPLIT_ROWS = [Strategy.WAKSMAN_ODD, Strategy.GENERAL_ODD, Strategy.GENERAL_WINOGRAD]


def _ops(kernel, l, n, m):
    t = tally(kernel, Matrix.zeros(ZZ, l, n), Matrix.zeros(ZZ, n, m))[1]
    return t.count, t.adds, t.halvings


@settings(max_examples=100, deadline=None)
@given(strategy=st.sampled_from(SPLIT_ROWS), l=st.integers(1, 6), m=st.integers(1, 10))
def test_split_rows_compose_from_their_parts(strategy, l, m):
    # a split row spends exactly its parts' operations plus l*m additions
    # for the sum, and its cost is the parts' tallied operations
    row = dispatch._TABLE[strategy]
    domain, lead, width, rest = row.kernel.parts
    for n in range(1, 12, 2):
        if domain(l, n, m) is not None:
            continue
        parts = _ops(lead, l, width, m)
        if n > width:
            muls, adds, halvings = _ops(rest, l, n - width, m)
            parts = (parts[0] + muls, parts[1] + adds + l * m, parts[2] + halvings)
        assert _ops(row.kernel, l, n, m) == parts == dispatch.cost(strategy, l, n, m), n
