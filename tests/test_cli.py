import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringmul import IntegerRing, Matrix, Mod, ModularRing, Strategy, cli, dispatch, matrix_from_ints, multiply, verify

I3 = {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}


def _write(path, content):
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul_identities_with_report(tmp_path, capsys):
    a = _write(tmp_path / "a.json", I3)
    b = _write(tmp_path / "b.json", I3)
    out = tmp_path / "c.json"
    code, stdout, _ = _run(capsys, ["mul", "--a", a, "--b", b, "--out", str(out), "--report"])
    assert code == 0
    product = json.loads(out.read_text())
    assert product == I3
    report = json.loads(stdout)
    assert report["strategy"] == "general"
    assert report["predicted"] == report["observed"] == 21


def test_mul_row_times_3x3_report_nine(tmp_path, capsys):
    a = _write(tmp_path / "a.txt", "1 3\n1 2 3\n")
    b = _write(tmp_path / "b.txt", "3 3\n1 2 3\n4 5 6\n7 8 9\n")
    code, stdout, _ = _run(capsys, ["mul", "--a", a, "--b", b, "--report"])
    assert code == 0
    product_line, report_line = stdout.strip().splitlines()
    assert json.loads(product_line)["data"] == [30, 36, 42]
    assert json.loads(report_line)["predicted"] == 9


def test_mul_output_is_byte_identical_across_runs(tmp_path, capsys):
    a = _write(tmp_path / "a.json", I3)
    b = _write(tmp_path / "b.txt", "3 3\n1 2 3\n4 5 6\n7 8 9\n")
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli.main(["mul", "--a", a, "--b", b, "--out", str(out1)]) == 0
    assert cli.main(["mul", "--a", a, "--b", b, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_mul_inner_dim_mismatch_exit_2(tmp_path, capsys):
    a = _write(tmp_path / "a.txt", "2 2\n1 2\n3 4\n")
    b = _write(tmp_path / "b.txt", "3 2\n1 2\n3 4\n5 6\n")
    code, _, stderr = _run(capsys, ["mul", "--a", a, "--b", b])
    assert code == 2
    assert "inner dimensions" in stderr


def test_mul_malformed_file_exit_2(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"rows": 2, "cols": 2, "data": [1, 2, 3]})
    b = _write(tmp_path / "b.json", I3)
    code, _, stderr = _run(capsys, ["mul", "--a", a, "--b", b])
    assert code == 2
    assert "entries" in stderr


def test_mul_float_entry_rejected(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"rows": 1, "cols": 1, "data": [1.5]})
    code, _, stderr = _run(capsys, ["mul", "--a", a, "--b", a])
    assert code == 2
    assert "exact" in stderr


@pytest.mark.parametrize(
    "header",
    [
        {"rows": True, "cols": True},
        {"rows": True, "cols": 1},
        {"rows": 1, "cols": True},
        {"rows": 1, "cols": 1, "modulus": True},
    ],
)
def test_mul_boolean_header_rejected(tmp_path, capsys, header):
    # JSON true is not the integer 1, in the header as in the data
    a = _write(tmp_path / "a.json", {**header, "data": [2]})
    code, stdout, stderr = _run(capsys, ["mul", "--a", a, "--b", a])
    assert code == 2
    assert stdout == ""
    assert a in stderr


def test_mul_non_utf8_file_exit_2(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_bytes(b"1 1\n\xff\n")
    code, stdout, stderr = _run(capsys, ["mul", "--a", str(a), "--b", str(a)])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: " + str(a)) and stderr.count("\n") == 1


def test_mul_reads_files_that_start_with_a_byte_order_mark(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text("\ufeff" + json.dumps(I3), encoding="utf-8")
    b = tmp_path / "b.txt"
    b.write_text("\ufeff3 3\n1 2 3\n4 5 6\n7 8 9\n", encoding="utf-8")
    code, stdout, stderr = _run(capsys, ["mul", "--a", str(a), "--b", str(b)])
    assert code == 0, stderr
    assert json.loads(stdout)["data"] == list(range(1, 10))


_MUL = ["mul", "--a", "{a}", "--b", "{a}"]
_ONE = "1 1\n2\n"


@pytest.mark.parametrize(
    "content,argv,named",
    [
        pytest.param('{"rows": 1, "cols": 1, "data": [true]}', _MUL, "{a}", id="boolean-entry"),
        pytest.param('{"rows": 1, "cols": 1, "data": [null]}', _MUL, "{a}", id="unsupported-entry"),
        pytest.param('{"rows": 1, "cols": 1, "data": ["12x"]}', _MUL, "{a}", id="bad-decimal-literal"),
        pytest.param(None, _MUL, "{a}", id="unreadable-path"),
        pytest.param('{"rows": 1, "cols": 1,', _MUL, "{a}", id="invalid-json"),
        pytest.param('{"rows": 1, "cols": 1}', _MUL, "{a}", id="missing-keys"),
        pytest.param("\n \n", _MUL, "{a}", id="text-empty"),
        pytest.param("1 1 1\n2\n", _MUL, "{a}", id="text-header-token-count"),
        pytest.param("1 x\n2\n", _MUL, "{a}", id="text-header-not-integer"),
        pytest.param("2 1\n2\n", _MUL, "{a}", id="text-data-row-count"),
        pytest.param("1_0 1_0\n" + ("1 " * 10 + "\n") * 10, _MUL, "{a}", id="text-header-underscore"),
        pytest.param('{"rows": 1, "cols": 1, "data": ["1_000"]}', _MUL, "{a}", id="entry-underscore"),
        pytest.param('{"rows": 1, "cols": 1, "data": [" 12 "]}', _MUL, "{a}", id="entry-spaces"),
        pytest.param('{"rows": 1, "cols": 1, "data": ["\\u0661\\u0662"]}', _MUL, "{a}", id="entry-non-ascii-digits"),
        pytest.param("1 1\n\u0661\u0662\n", _MUL, "{a}", id="text-entry-non-ascii-digits"),
        pytest.param("[1, 2, 3]", _MUL, "{a}", id="json-array"),
        pytest.param("1 2\n2\n", _MUL, "{a}", id="text-row-width"),
        pytest.param(_ONE, [*_MUL, "--ring", "mod:x"], "mod:x", id="mul-ring-modulus-not-integer"),
        pytest.param(_ONE, [*_MUL, "--ring", "mod:1"], "mod:1", id="mul-ring-modulus-below-2"),
        pytest.param(_ONE, [*_MUL, "--ring", "mod:1_1"], "mod:1_1", id="mul-ring-modulus-underscore"),
        pytest.param(
            '{"rows": 1, "cols": 1, "modulus": 7, "data": [3]}',
            [*_MUL, "--ring", "mod:5"],
            "--ring",
            id="mul-ring-conflicts-with-file",
        ),
        pytest.param(_ONE, [*_MUL, "--ring", "gf:7"], "gf:7", id="mul-ring-unknown"),
        pytest.param(None, ["verify", "--max-shape", "1,x,1"], "--max-shape", id="max-shape-not-integer"),
        pytest.param(None, ["verify", "--max-shape", "1,0,1"], "--max-shape", id="max-shape-zero"),
        pytest.param(None, ["verify", "--max-shape", "9" * 5000 + ",1,1"], "--max-shape", id="max-shape-5000-digits"),
        pytest.param(None, ["bench", "--shape", "1,x,1"], "--shape", id="shape-not-integer"),
        pytest.param(None, ["bench", "--shape", "1,0,1"], "--shape", id="shape-zero"),
        pytest.param(None, ["bench", "--shape", "1_0,1,1"], "--shape", id="shape-underscore"),
        pytest.param(None, ["bench", "--shape", "1,3,3", "--ring", "int:0"], "int:0", id="bench-ring-zero-bits"),
        pytest.param(None, ["bench", "--shape", "1,3,3", "--ring", "int:x"], "int:x", id="bench-ring-bits-not-integer"),
        pytest.param(
            None,
            ["bench", "--shape", "1,1,1", "--reps", "1", "--ring", "int:2147483648"],
            "int:2147483648",
            id="bench-ring-bits-beyond-getrandbits",
        ),
        pytest.param(None, ["bench", "--shape", "1,3,3", "--ring", "mod:1"], "mod:1", id="bench-ring-modulus-below-2"),
        pytest.param(None, ["table", "--lmax", "65", "--nmax", "3", "--mmax", "3"], "--lmax", id="table-bound-above-cap"),
    ],
)
def test_input_errors_exit_2_with_one_line_naming_the_input(tmp_path, capsys, content, argv, named):
    # the one error line names the bad file, or the flag or the value given to it
    a = tmp_path / "a"
    if content is not None:
        a.write_text(content, encoding="utf-8")
    code, stdout, stderr = _run(capsys, [arg.format(a=a) for arg in argv])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert named.format(a=a) in stderr


def test_mul_reads_a_file_that_opens_with_a_bracket_as_json(tmp_path, capsys):
    a = _write(tmp_path / "a", " [1, 2, 3]")
    assert _run(capsys, ["mul", "--a", a, "--b", a]) == (2, "", f"error: {a}: need keys rows, cols, data\n")


def test_mul_reads_header_and_modulus_spelled_as_decimal_strings(tmp_path, capsys):
    # rows, cols and modulus follow the entries' rule; the output modulus stays a JSON integer
    a = _write(tmp_path / "a.json", {"rows": "1", "cols": "+2", "modulus": "7", "data": ["-3", 4]})
    b = _write(tmp_path / "b.json", {"rows": 2, "cols": 1, "data": [5, "6"]})
    code, stdout, stderr = _run(capsys, ["mul", "--a", a, "--b", b])
    assert code == 0, stderr
    assert stdout == '{"rows": 1, "cols": 1, "modulus": 7, "data": [2]}\n'


@pytest.mark.parametrize("target", ["multiply", "_load_matrix_file"])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, target):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    a = _write(tmp_path / "a.txt", _ONE)
    assert _run(capsys, ["mul", "--a", a, "--b", a]) == (2, "", "error: mul: out of memory\n")
    if target == "multiply":
        assert _run(capsys, ["bench", "--shape", "1,1,1", "--reps", "1"]) == (2, "", "error: bench: out of memory\n")


def test_mul_deeply_nested_json_exit_2(tmp_path, capsys):
    depth = 200_000
    a = _write(tmp_path / "a.json", '{"rows": ' + "[" * depth + "]" * depth + "}")
    code, stdout, stderr = _run(capsys, ["mul", "--a", a, "--b", a])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: " + a) and stderr.count("\n") == 1


def test_mul_unwritable_out_exit_2(tmp_path, capsys):
    a = _write(tmp_path / "a.json", I3)
    out = tmp_path / "missing" / "c.json"
    code, stdout, stderr = _run(capsys, ["mul", "--a", a, "--b", a, "--out", str(out), "--report"])
    assert code == 2
    assert stdout == ""
    assert str(out) in stderr and stderr.count("\n") == 1
    assert not out.parent.exists()


def test_mul_strategy_shape_conflict_exit_3(tmp_path, capsys):
    a = _write(tmp_path / "a.txt", "2 4\n1 2 3 4\n5 6 7 8\n")
    b = _write(tmp_path / "b.txt", "4 3\n1 2 3\n4 5 6\n7 8 9\n1 1 1\n")
    code, _, stderr = _run(capsys, ["mul", "--a", a, "--b", b, "--strategy", "general"])
    assert code == 3
    assert "general" in stderr


def test_mul_refusal_names_the_mirrored_row(tmp_path, capsys):
    a = _write(tmp_path / "a.txt", "3 3\n1 2 3\n4 5 6\n7 8 9\n")
    b = _write(tmp_path / "b.txt", "3 2\n1 2\n3 4\n5 6\n")
    code, _, stderr = _run(capsys, ["mul", "--a", a, "--b", b, "--strategy", "general"])
    assert code == 3
    assert "general needs m >= 3, got 2; general-transposed covers it" in stderr
    # the mirrored row names the caller's dimension, and has no mirror to suggest
    c = _write(tmp_path / "c.txt", "2 3\n1 2 3\n4 5 6\n")
    code, _, stderr = _run(capsys, ["mul", "--a", c, "--b", a, "--strategy", "general-transposed"])
    assert code == 3
    assert "general-transposed needs l >= 3, got 2" in stderr
    assert "covers it" not in stderr


_P64 = f"mod:{2**64}"


@pytest.mark.parametrize(
    "strategy,shape,ring,error",
    [
        pytest.param(
            "general",
            (2, 4, 3),
            "int",
            "strategy general does not cover 2x4 times 4x3: general needs odd inner dimension >= 3, got 4",
            id="general-int-even-n",
        ),
        pytest.param(
            "general",
            (3, 5, 2),
            "int",
            "strategy general does not cover 3x5 times 5x2: general needs m >= 3, got 2; general-transposed covers it",
            id="general-int-with-hint",
        ),
        # general-transposed halves at n = 5, which 2^64 cannot, so no hint
        pytest.param(
            "general",
            (3, 5, 2),
            _P64,
            "strategy general does not cover 3x5 times 5x2: general needs m >= 3, got 2",
            id="general-mod2_64-without-hint",
        ),
        pytest.param(
            "waksman-even",
            (2, 4, 3),
            "mod:6",
            "waksman-even needs exact halving: ring mod6 lacks exact halving",
            id="waksman-even-mod6",
        ),
    ],
)
def test_mul_and_bench_refuse_a_strategy_in_one_line_with_exit_3(tmp_path, capsys, strategy, shape, ring, error):
    l, n, m = shape
    a = _write(tmp_path / "a.txt", _text_file([[1] * n] * l))
    b = _write(tmp_path / "b.txt", _text_file([[1] * m] * n))
    mul = _run(capsys, ["mul", "--a", a, "--b", b, "--ring", ring, "--strategy", strategy])
    bench_ring = "int:64" if ring == "int" else ring
    bench = _run(capsys, ["bench", "--shape", f"{l},{n},{m}", "--ring", bench_ring, "--strategy", strategy])
    assert mul == bench == (3, "", f"error: {error}\n")


def test_mul_auto_runs_the_mirrored_row_where_it_is_cheaper(tmp_path, capsys):
    a = _write(tmp_path / "a.txt", "3 3\n1 2 3\n4 5 6\n7 8 9\n")
    b = _write(tmp_path / "b.txt", "3 2\n1 2\n3 4\n5 6\n")
    code, stdout, _ = _run(capsys, ["mul", "--a", a, "--b", b, "--report"])
    assert code == 0
    product_line, report_line = stdout.strip().splitlines()
    assert json.loads(product_line)["data"] == [22, 28, 49, 64, 76, 100]
    report = json.loads(report_line)
    assert report["strategy"] == "general-transposed"
    assert report["predicted"] == report["observed"] == 15


def test_mul_capability_conflict_exit_3(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"rows": 2, "cols": 4, "modulus": 6, "data": [1, 2, 3, 4, 5, 0, 1, 2]})
    b = _write(tmp_path / "b.json", {"rows": 4, "cols": 2, "modulus": 6, "data": [1, 2, 3, 4, 5, 0, 1, 2]})
    code, _, stderr = _run(capsys, ["mul", "--a", a, "--b", b, "--strategy", "waksman-even"])
    assert code == 3
    assert "halving" in stderr or "capability" in stderr
    assert "mod6" in stderr
    assert "counted(" not in stderr


def test_mul_modular_roundtrip(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"rows": 2, "cols": 2, "modulus": 7, "data": [3, 5, 6, 2]})
    b = _write(tmp_path / "b.json", {"rows": 2, "cols": 2, "modulus": 7, "data": [4, 1, 2, 6]})
    code, stdout, _ = _run(capsys, ["mul", "--a", a, "--b", b])
    assert code == 0
    product = json.loads(stdout)
    assert product["modulus"] == 7
    # (3*4 + 5*2) % 7 = 1, (3*1 + 5*6) % 7 = 5, (6*4 + 2*2) % 7 = 0, (6*1 + 2*6) % 7 = 4
    assert product["data"] == [1, 5, 0, 4]


def test_mul_mod_2_64_takes_the_halving_free_schedule(tmp_path, capsys):
    modulus = 2**64
    rng = random.Random(64)
    a_rows = [[rng.randrange(modulus) for _ in range(7)] for _ in range(4)]
    b_rows = [[rng.randrange(modulus) for _ in range(5)] for _ in range(7)]
    a = _write(tmp_path / "a.json", {"rows": 4, "cols": 7, "data": [str(v) for r in a_rows for v in r]})
    b = _write(tmp_path / "b.txt", "7 5\n" + "\n".join(" ".join(map(str, r)) for r in b_rows) + "\n")
    argv = ["mul", "--a", a, "--b", b, "--ring", f"mod:{modulus}", "--report"]
    runs = []
    for _ in range(2):
        code, stdout, _ = _run(capsys, argv)
        assert code == 0
        runs.append(stdout)
    assert runs[0] == runs[1]
    product_line, report_line = runs[0].strip().splitlines()
    want = [sum(a_rows[i][k] * b_rows[k][j] for k in range(7)) % modulus for i in range(4) for j in range(5)]
    assert [int(v) for v in json.loads(product_line)["data"]] == want
    report = json.loads(report_line)
    assert report["strategy"] == "general-winograd"
    assert report["predicted"] == report["observed"] == 100
    code, _, stderr = _run(capsys, ["mul", "--a", a, "--b", b, "--ring", f"mod:{modulus}", "--strategy", "general"])
    assert code == 3
    assert "halving" in stderr


def test_mul_modulus_conflict_exit_2(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"rows": 1, "cols": 1, "modulus": 7, "data": [3]})
    b = _write(tmp_path / "b.json", {"rows": 1, "cols": 1, "modulus": 5, "data": [3]})
    code, _, stderr = _run(capsys, ["mul", "--a", a, "--b", b])
    assert code == 2
    assert "moduli" in stderr


def test_mul_ring_flag_overrides(tmp_path, capsys):
    a = _write(tmp_path / "a.txt", "1 1\n10\n")
    code, stdout, _ = _run(capsys, ["mul", "--a", a, "--b", a, "--ring", "mod:7"])
    assert code == 0
    assert json.loads(stdout)["data"] == [(10 * 10) % 7]


def test_mul_big_integers_use_decimal_strings(tmp_path, capsys):
    big = 2**64 + 3
    a = _write(tmp_path / "a.json", {"rows": 1, "cols": 1, "data": [str(big)]})
    code, stdout, _ = _run(capsys, ["mul", "--a", a, "--b", a])
    assert code == 0
    product = json.loads(stdout)
    assert product["data"] == [str(big * big)]
    # and the emitted file parses back to the same value
    c = _write(tmp_path / "c.json", stdout.strip())
    rows, cols, entries, modulus = cli._load_matrix_file(c)
    assert entries == [big * big]


#: For the tests' own conversions of ints beyond 4300 decimal digits; the
#: CLI calls run outside it, under the interpreter's default limit.
_digits_unlimited = cli._int_digits_unlimited


@pytest.mark.parametrize(
    "bits,encode,modulus",
    [
        (8192, str, None),  # the product exceeds 4300 digits
        (16384, str, None),  # the inputs do, as decimal strings
        (16384, int, None),  # and as bare JSON integers
        (16384, int, 2**16384 + 1),  # and so does the modulus
    ],
    ids=["int8192-str", "int16384-str", "int16384-bare", "mod16384-bare"],
)
def test_mul_huge_entries_round_trip(tmp_path, capsys, bits, encode, modulus):
    limit = sys.get_int_max_str_digits()
    rng = random.Random(bits)
    a = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(9)]
    b = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(9)]
    want = [sum(a[3 * i + k] * b[3 * k + j] for k in range(3)) for i in range(3) for j in range(3)]
    extra = {}
    if modulus is not None:
        a, b = [v % modulus for v in a], [v % modulus for v in b]
        want = [v % modulus for v in want]
        extra = {"modulus": modulus}
    with _digits_unlimited():
        fa = _write(tmp_path / "a.json", {"rows": 3, "cols": 3, **extra, "data": [encode(v) for v in a]})
        fb = _write(tmp_path / "b.json", {"rows": 3, "cols": 3, **extra, "data": [encode(v) for v in b]})
        eye = _write(tmp_path / "i.json", {"rows": 3, "cols": 3, **extra, "data": I3["data"]})
    out, again = tmp_path / "c.json", tmp_path / "c2.json"
    code, _, stderr = _run(capsys, ["mul", "--a", fa, "--b", fb, "--out", str(out)])
    assert code == 0, stderr
    assert sys.get_int_max_str_digits() == limit
    with _digits_unlimited():
        product = json.loads(out.read_text())
    assert product.get("modulus") == modulus
    with _digits_unlimited():
        assert [int(v) for v in product["data"]] == want
    # the emitted file is a valid input that re-encodes byte for byte
    code, _, stderr = _run(capsys, ["mul", "--a", str(out), "--b", eye, "--out", str(again)])
    assert code == 0, stderr
    assert again.read_bytes() == out.read_bytes()


def test_mul_matches_naive_oracle_on_random_fixtures(tmp_path, capsys):
    from ringmul import ZZ, matrix_from_ints, naive

    rng = random.Random(21)
    for l, n, m in [(2, 5, 3), (3, 4, 2), (1, 3, 3)]:
        a_rows = [[rng.randint(-999, 999) for _ in range(n)] for _ in range(l)]
        b_rows = [[rng.randint(-999, 999) for _ in range(m)] for _ in range(n)]
        a = _write(tmp_path / "a.json", {"rows": l, "cols": n, "data": [v for r in a_rows for v in r]})
        b = _write(tmp_path / "b.json", {"rows": n, "cols": m, "data": [v for r in b_rows for v in r]})
        code, stdout, _ = _run(capsys, ["mul", "--a", a, "--b", b])
        assert code == 0
        want = naive(matrix_from_ints(ZZ, a_rows), matrix_from_ints(ZZ, b_rows))
        assert json.loads(stdout)["data"] == want.data


def _text_file(rows):
    return f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


@st.composite
def _mul_cases(draw):
    l, n, m = (draw(st.integers(1, 6)) for _ in range(3))
    modulus = draw(st.one_of(st.none(), st.integers(2, 2**70)))
    ring = IntegerRing() if modulus is None else ModularRing(modulus)
    entries = st.integers(-(2**70), 2**70)
    a = [[draw(entries) for _ in range(n)] for _ in range(l)]
    b = [[draw(entries) for _ in range(m)] for _ in range(n)]
    halving = ring.supports_halving
    names = [s.value for s in Strategy if s is Strategy.AUTO or dispatch.applicable(s, l, n, m, halving)]
    strategy = draw(st.sampled_from(names))
    formats = (draw(st.sampled_from(["json", "text"])), draw(st.sampled_from(["json", "text"])))
    return ring, modulus, a, b, strategy, formats


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mul_cases())
def test_mul_matches_multiply_and_is_deterministic(tmp_path, capsys, case):
    ring, modulus, a_rows, b_rows, strategy, formats = case
    files = []
    for name, rows, fmt in (("a", a_rows, formats[0]), ("b", b_rows, formats[1])):
        if fmt == "json":
            obj = {"rows": len(rows), "cols": len(rows[0]), "data": [v for r in rows for v in r]}
            files.append(_write(tmp_path / f"{name}.json", obj))
        else:
            files.append(_write(tmp_path / f"{name}.txt", _text_file(rows)))
    argv = ["mul", "--a", files[0], "--b", files[1], "--strategy", strategy, "--report"]
    argv += ["--ring", "int" if modulus is None else f"mod:{modulus}"]
    runs = []
    for out in (tmp_path / "c1.json", tmp_path / "c2.json"):
        code, stdout, stderr = _run(capsys, argv + ["--out", str(out)])
        assert code == 0, stderr
        runs.append((out.read_bytes(), stdout))
    assert runs[0] == runs[1]
    product, _ = multiply(matrix_from_ints(ring, a_rows), matrix_from_ints(ring, b_rows), Strategy(strategy))
    want = product.data if modulus is None else [v.value for v in product.data]
    got = json.loads(runs[0][0])
    assert got.get("modulus") == modulus
    assert [int(v) for v in got["data"]] == want


def test_verify_random_exits_1_with_witness_on_wrong_kernel(capsys, monkeypatch):
    # simulate a mutated build: waksman-odd gets its first entry wrong
    original = dispatch._TABLE[Strategy.WAKSMAN_ODD].kernel

    def wrong(A, B):
        out = original(A, B)
        return Matrix(out.ring, out.rows, out.cols, [out.data[0] + 1, *out.data[1:]])

    monkeypatch.setitem(dispatch._TABLE, Strategy.WAKSMAN_ODD, dispatch._TABLE[Strategy.WAKSMAN_ODD]._replace(kernel=wrong))
    code, stdout, _ = _run(capsys, ["verify", "--suite", "random", "--max-shape", "1,2,2"])
    assert code == 1
    summary = json.loads(stdout)
    assert summary["ok"] is False
    failing = summary["suites"]["random"]["failures"]
    assert failing and {f["strategy"] for f in failing} == {"waksman-odd"}
    witness = failing[0]["witness"]
    assert set(witness) == {"a", "b", "got", "want"}
    assert witness["got"] != witness["want"]


def test_verify_exits_1_with_witness_on_broken_kernel(capsys, monkeypatch):
    # simulate a mutated build: naive suddenly performs an extra multiply
    import ringmul.dispatch as dispatch
    from ringmul import Strategy

    original = dispatch._TABLE[Strategy.NAIVE].kernel

    def broken(A, B):
        out = original(A, B)
        A.data[0] * B.data[0]  # extra tallied multiplication
        return out

    monkeypatch.setitem(dispatch._TABLE, Strategy.NAIVE, dispatch._TABLE[Strategy.NAIVE]._replace(kernel=broken))
    code, stdout, _ = _run(capsys, ["verify", "--suite", "counts", "--max-shape", "1,2,2"])
    assert code == 1
    summary = json.loads(stdout)
    assert summary["ok"] is False
    failing = summary["suites"]["counts"]["failures"]
    assert failing and failing[0]["strategy"] == "naive"
    assert failing[0]["observed"] == failing[0]["predicted"] + 1


def test_verify_counts_failure_names_the_figure(capsys, monkeypatch):
    # naive spends one extra addition and the same multiplications
    original = dispatch._TABLE[Strategy.NAIVE].kernel

    def extra_addition(A, B):
        C = original(A, B)
        C[0, 0] + C[0, 0]
        return C

    monkeypatch.setitem(dispatch._TABLE, Strategy.NAIVE, dispatch._TABLE[Strategy.NAIVE]._replace(kernel=extra_addition))
    code, stdout, _ = _run(capsys, ["verify", "--suite", "counts", "--max-shape", "1,2,2"])
    assert code == 1
    failing = json.loads(stdout)["suites"]["counts"]["failures"]
    assert failing[0] == {"strategy": "naive", "shape": [1, 1, 1], "figure": "additions", "predicted": 0, "observed": 1}


def test_verify_counts_fails_a_multiplication_by_a_constant(capsys, naive_with_constant_b11):
    code, stdout, _ = _run(capsys, ["verify", "--suite", "counts", "--max-shape", "1,2,2"])
    assert code == 1
    failing = json.loads(stdout)["suites"]["counts"]["failures"]
    assert {f["strategy"] for f in failing} == {"naive"}
    assert failing[0] == dict(strategy="naive", shape=[1, 1, 1], figure="constant multiplications", predicted=0, observed=1)


def test_table_csv(capsys):
    code, stdout, _ = _run(capsys, ["table", "--lmax", "3", "--nmax", "3", "--mmax", "4"])
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "l,n,m,paper,waksman_odd,naive,delta"
    assert "3,3,3,21,23,27,2" in lines
    assert "3,3,4,28,30,36,2" in lines


def test_table_json(capsys):
    code, stdout, _ = _run(capsys, ["table", "--lmax", "1", "--nmax", "3", "--mmax", "3", "--format", "json"])
    assert code == 0
    rows = json.loads(stdout)
    assert rows == [
        {"l": 1, "n": 3, "m": 3, "paper": 9, "waksman_odd": 9, "naive": 9, "delta": 0}
    ]


def test_table_never_beaten_by_comparator(capsys):
    code, stdout, _ = _run(capsys, ["table", "--lmax", "8", "--nmax", "9", "--mmax", "8", "--format", "json"])
    assert code == 0
    rows = json.loads(stdout)
    assert len(rows) == 8 * 4 * 6
    for row in rows:
        assert row["delta"] >= 0
        # the improvement is strict exactly for multi-row products
        assert (row["delta"] > 0) == (row["l"] >= 2), row


def test_table_bad_bounds_exit_2(capsys):
    code, _, _ = _run(capsys, ["table", "--lmax", "0", "--nmax", "3", "--mmax", "3"])
    assert code == 2


@pytest.mark.parametrize("flag", ["--lmax", "--nmax", "--mmax"])
@pytest.mark.parametrize("bound", ["65", str(2**31), str(2**63)])
def test_table_bound_above_cap_exits_2_at_once(capsys, monkeypatch, flag, bound):
    def never(*args):
        raise AssertionError("table built rows despite the rejected bounds")

    monkeypatch.setattr(cli, "table_rows", never)
    argv = ["table", "--lmax", "3", "--nmax", "3", "--mmax", "3"]
    argv[argv.index(flag) + 1] = bound
    assert _run(capsys, argv) == (2, "", f"error: {flag} must be <= 64, got {bound}\n")


def test_table_bound_at_cap_runs(capsys):
    code, stdout, _ = _run(capsys, ["table", "--lmax", "64", "--nmax", "3", "--mmax", "3"])
    assert code == 0
    # 6l + 3 against Waksman's 7l + 2: the gap is l - 1
    assert stdout.splitlines()[-1] == "64,3,3,387,450,576,63"


def test_verify_counts_suite(capsys):
    code, stdout, _ = _run(capsys, ["verify", "--suite", "counts", "--max-shape", "2,5,4"])
    assert code == 0
    summary = json.loads(stdout)
    assert summary["ok"] is True
    assert summary["suites"]["counts"]["checks"] > 0
    assert summary["suites"]["counts"]["failures"] == []


def test_verify_symbolic_suite(capsys):
    code, stdout, _ = _run(capsys, ["verify", "--suite", "symbolic", "--max-shape", "2,5,4"])
    assert code == 0
    assert json.loads(stdout)["ok"] is True


def test_verify_random_suite(capsys):
    code, stdout, _ = _run(capsys, ["verify", "--suite", "random", "--seed", "3", "--max-shape", "2,4,3"])
    assert code == 0
    assert json.loads(stdout)["ok"] is True


@pytest.mark.parametrize("strategy", list(dispatch._TABLE), ids=lambda s: s.value)
def test_verify_symbolic_proves_every_table_row(capsys, monkeypatch, strategy):
    original = dispatch._TABLE[strategy].kernel

    def mutant(A, B):
        C = original(A, B)
        return Matrix(C.ring, C.rows, C.cols, [C.data[0] + A.data[0] * B.data[0]] + C.data[1:])

    monkeypatch.setitem(dispatch._TABLE, strategy, dispatch._TABLE[strategy]._replace(kernel=mutant))
    # the mirrored rows need l >= 3, so the 1,3,3 grid holds none of their shapes
    bounds = "3,3,1" if strategy in dispatch.MIRRORS.values() else "1,3,3"
    code, stdout, _ = _run(capsys, ["verify", "--suite", "symbolic", "--max-shape", bounds])
    assert code == 1
    failing = json.loads(stdout)["suites"]["symbolic"]["failures"]
    assert failing and {f["strategy"] for f in failing} == {strategy.value}
    assert failing[0]["witness"] == {"entry": [0, 0], "monomial": "a11*b11", "coefficient": 1}


@pytest.mark.parametrize("bounds", ["3,7,6", "4,7,7"])
def test_verify_symbolic_walks_the_counts_grid_under_the_cap(capsys, bounds):
    checks = {}
    for suite in ("counts", "symbolic"):
        code, stdout, _ = _run(capsys, ["verify", "--suite", suite, "--max-shape", bounds])
        assert code == 0
        checks[suite] = json.loads(stdout)["suites"][suite]["checks"]
    assert checks["symbolic"] == checks["counts"]


def test_verify_default_bounds_prove_every_row_on_414_checks(capsys):
    code, stdout, _ = _run(capsys, ["verify"])
    assert code == 0
    suites = json.loads(stdout)["suites"]
    assert {name: (s["checks"], s["ok"]) for name, s in suites.items()} == {
        "counts": (414, True),
        "random": (414, True),
        "symbolic": (414, True),
    }


def test_verify_symbolic_grid_is_clipped_above_the_cap(capsys):
    code, stdout, _ = _run(capsys, ["verify", "--suite", "symbolic", "--max-shape", "16,16,16"])
    assert code == 0
    assert json.loads(stdout)["suites"]["symbolic"]["checks"] == 680


def test_verify_symbolic_covers_each_bound_independently(capsys, monkeypatch):
    proved = []
    real = verify.symbolic_verify

    def recording(strategy, l, n, m):
        proved.append((strategy, l, n, m))
        return real(strategy, l, n, m)

    monkeypatch.setattr(verify, "symbolic_verify", recording)
    code, _, _ = _run(capsys, ["verify", "--suite", "symbolic", "--max-shape", "1,6,3"])
    assert code == 0
    assert all(l <= 1 and n <= 6 and m <= 3 for _, l, n, m in proved)
    waksman_even = {(n, m) for s, _, n, m in proved if s is Strategy.WAKSMAN_EVEN}
    assert waksman_even == {(n, m) for n in (2, 4, 6) for m in (1, 2, 3)}


def test_verify_bad_max_shape_exit_2(capsys):
    code, _, stderr = _run(capsys, ["verify", "--max-shape", "2,4"])
    assert code == 2
    assert "max-shape" in stderr


@pytest.mark.parametrize("bounds", ["1000,1000,1000", "17,1,1", "1,17,1", "1,1,17"])
def test_verify_max_shape_above_cap_exits_2_at_once(capsys, monkeypatch, bounds):
    def never(*args):
        raise AssertionError("a suite ran despite the rejected bounds")

    for runner in ("_verify_counts", "_verify_random", "_verify_symbolic"):
        monkeypatch.setattr(cli, runner, never)
    code, stdout, stderr = _run(capsys, ["verify", "--max-shape", bounds])
    assert code == 2
    assert stdout == ""
    assert stderr.count("\n") == 1 and "<= 16" in stderr


def test_verify_max_shape_at_cap_runs(capsys):
    code, stdout, _ = _run(capsys, ["verify", "--suite", "counts", "--max-shape", "16,1,1"])
    assert code == 0
    assert json.loads(stdout)["max_shape"] == [16, 1, 1]


def test_bench_csv_includes_applicable_strategies(capsys):
    code, stdout, _ = _run(capsys, ["bench", "--shape", "3,3,3", "--ring", "int:64", "--reps", "2"])
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "strategy,l,n,m,reps,first_s,median_s,spread_s"
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"general", "waksman-odd", "naive", "general-winograd"} <= names


def test_bench_modular_even_inner(capsys):
    code, stdout, _ = _run(capsys, ["bench", "--shape", "2,4,3", "--ring", "mod:101", "--reps", "2", "--format", "json"])
    assert code == 0
    names = {row["strategy"] for row in json.loads(stdout)}
    assert {"waksman-even", "winograd-even"} <= names


def test_bench_modular_times_the_multiply_path(capsys, monkeypatch):
    # bench times multiply, which runs each kernel through the ring's
    # hook, so over residues it runs no residue operator
    def refuse(*args):
        raise AssertionError("residue operator on the bench path")

    for op in ("__add__", "__sub__", "__mul__", "__neg__", "halve"):
        monkeypatch.setattr(Mod, op, refuse)
    argv = ["bench", "--shape", "3,5,4", "--ring", "mod:101", "--reps", "2", "--format", "json"]
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    assert {row["strategy"] for row in json.loads(stdout)} == {
        "general",
        "general-winograd",
        "waksman-odd",
        "naive",
        "general-transposed",
        "general-winograd-transposed",
    }


def test_bench_reports_the_first_call_apart(capsys, monkeypatch):
    # one call beyond --reps, timed as first_s and left out of the median
    calls = []
    run = IntegerRing.run

    def counted_run(self, program, A, B):
        calls.append(program)
        return run(self, program, A, B)

    monkeypatch.setattr(IntegerRing, "run", counted_run)
    argv = ["bench", "--shape", "2,40,3", "--strategy", "naive", "--reps", "3", "--format", "json"]
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    (row,) = json.loads(stdout)
    assert len(calls) == 4 and row["reps"] == 3
    assert row["first_s"] > 0 and row["median_s"] > 0 and row["spread_s"] >= 0


def test_bench_times_multiply_through_its_module_level_name(capsys, monkeypatch):
    # every timed call is the CLI's module-level multiply, looked up per call
    calls = []
    multiply = cli.multiply

    def counted(A, B, strategy):
        calls.append(strategy)
        return multiply(A, B, strategy)

    monkeypatch.setattr(cli, "multiply", counted)
    argv = ["bench", "--shape", "2,4,3", "--ring", "mod:101", "--reps", "2", "--format", "json"]
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    timed = [Strategy(row["strategy"]) for row in json.loads(stdout)]
    assert calls == [s for s in timed for _ in range(3)]


def test_bench_accepts_a_modulus_beyond_4300_digits(capsys):
    # bench parses the same ring spec that mul accepts, under the same lifted limit
    with _digits_unlimited():
        spec = f"mod:{10**5000 + 1}"
    code, stdout, stderr = _run(capsys, ["bench", "--shape", "1,3,3", "--ring", spec, "--reps", "1", "--format", "json"])
    assert code == 0, stderr
    assert {"naive", "general"} <= {row["strategy"] for row in json.loads(stdout)}


def test_bench_unsupported_explicit_strategy_exit_3(capsys):
    code, _, stderr = _run(capsys, ["bench", "--shape", "2,4,3", "--strategy", "general"])
    assert code == 3
    assert "strategy general does not cover 2x4 times 4x3" in stderr


def test_core3_is_no_strategy(tmp_path, capsys):
    # general runs the 3-column schedule at (l, 3, 3); no row of its own is left
    with pytest.raises(ValueError):
        Strategy("core3")
    a = _write(tmp_path / "a.json", I3)
    for argv in (["mul", "--a", a, "--b", a, "--strategy", "core3"], ["bench", "--shape", "3,3,3", "--strategy", "core3"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "argument --strategy: invalid choice: 'core3'" in capsys.readouterr().err


def test_bench_capability_mismatch_exit_3(capsys):
    code, _, _ = _run(capsys, ["bench", "--shape", "2,4,3", "--ring", "mod:6", "--strategy", "waksman-even"])
    assert code == 3


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bench_nonpositive_reps_exit_2(capsys, reps):
    code, _, stderr = _run(capsys, ["bench", "--shape", "2,4,3", "--reps", reps])
    assert code == 2
    assert "--reps" in stderr


class _Drawn(Exception):
    """Raised by the patched random draws: bench reached its operands."""


@pytest.fixture
def no_draws(monkeypatch):
    def drawn(*args):
        raise _Drawn

    monkeypatch.setattr(random.Random, "getrandbits", drawn)
    monkeypatch.setattr(random.Random, "randrange", drawn)


@pytest.mark.parametrize(
    "shape, ring",
    [
        ("2,2,2", "int:2000000000"),
        ("1,1,1", f"int:{2**29 + 1}"),
        ("4096,4096,4096", "int:64"),
        ("134217728,1,134217729", "mod:8"),
        (f"{2**63},1,1", "mod:7"),
    ],
)
def test_bench_refuses_operands_beyond_2_30_bits_before_drawing(capsys, no_draws, shape, ring):
    code, stdout, stderr = _run(capsys, ["bench", "--shape", shape, "--ring", ring])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: --shape") and stderr.count("\n") == 1 and "2^30 bits" in stderr


@pytest.mark.parametrize("shape, ring", [("1,1,1", f"int:{2**29}"), ("134217728,1,134217728", "mod:8")])
def test_bench_draws_operands_of_exactly_2_30_bits(capsys, no_draws, shape, ring):
    with pytest.raises(_Drawn):
        cli.main(["bench", "--shape", shape, "--ring", ring])


def test_bench_bad_ring_spec_exit_2(capsys):
    code, _, _ = _run(capsys, ["bench", "--shape", "2,4,3", "--ring", "float:32"])
    assert code == 2


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "--lmax", "not-a-number", "--nmax", "3", "--mmax", "3"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,flag",
    [
        pytest.param(["verify", "--seed", "1_0"], "--seed", id="seed-underscore"),
        pytest.param(["verify", "--seed", " 1"], "--seed", id="seed-space"),
        pytest.param(["table", "--lmax", "\u0663", "--nmax", "3", "--mmax", "3"], "--lmax", id="lmax-non-ascii-digit"),
        pytest.param(["bench", "--shape", "1,1,1", "--reps", "2.0"], "--reps", id="reps-float"),
    ],
)
def test_integer_flags_follow_the_spelling_rule_through_argparse(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert f"argument {flag}: value must be an integer" in capsys.readouterr().err


def test_cli_import_leaves_verification_and_statistics_off_the_start_path():
    def loaded(code):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        script = f"import sys\n{code}\nprint(*sys.modules)"
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    # the difference ignores whatever the interpreter's site already loads
    added = loaded("import ringmul.cli") - loaded("pass")
    assert "ringmul.cli" in added
    off_path = {"ringmul.verify", "ringmul.polynomials", "dataclasses", "inspect", "statistics", "fractions", "decimal"}
    assert not added & off_path


#: Integer spellings the CLI refuses wherever it reads an integer.
_BAD_SPELLINGS = ["1_000", " 12 ", "12 ", "\u0661\u0662", "1.0", "0x10", "", "x", "--1"]
#: Valid integers at the edges: zero, negatives, a sign, and beyond a C int and an int64.
_EDGE_INTS = ["0", "-1", "-7", "+2", str(2**31), str(2**63)]
_GOOD_RINGS = ["mod:2", "mod:7", "mod:8", f"mod:{2**64}"]
_ODD_RINGS = ["mod:1", "mod:0", "mod:-3", "mod:1_1", "mod: 7", "mod:\u0667", "gf:7", "int:64", "int"]


def _mostly(usual, odd):
    """usual five times in six, else odd."""
    return st.integers(0, 5).flatmap(lambda k: odd if k == 0 else usual)


def _spelled(small, edges=_EDGE_INTS[:4]):
    """A flag value: mostly a small integer, else an edge value or a refused spelling."""
    return _mostly(small.map(str), st.sampled_from([*edges, *_BAD_SPELLINGS]))


def _triple(l, n, m, edges=_EDGE_INTS[:4]):
    parts = st.tuples(_spelled(l, edges), _spelled(n, edges), _spelled(m, edges)).map(",".join)
    return _mostly(parts, st.sampled_from(["1,2", "1,2,3,4", "1,,1", "1 ,1,1"]))


@st.composite
def _matrix_text(draw, rows, cols):
    """A valid JSON or text matrix file; one time in six, mutated."""
    data = [draw(st.integers(-(2**70), 2**70)) for _ in range(rows * cols)]
    if draw(st.booleans()):
        obj = {"rows": rows, "cols": cols, "data": [draw(st.sampled_from([v, str(v)])) for v in data]}
        modulus = draw(_mostly(st.none(), st.sampled_from([7, 8, 2**64, "11"])))
        if modulus is not None:
            obj["modulus"] = modulus
        text = json.dumps(obj)
    else:
        text = _text_file([data[i * cols : (i + 1) * cols] for i in range(rows)])
    how = draw(_mostly(st.just("none"), st.sampled_from(["number", "splice", "wrap"])))
    if how == "none":
        return text
    if how == "wrap":  # a JSON file then parses, but not to an object
        return f"[{text}]"
    if how == "number":  # one integer, the header's included, becomes an odd value
        start, end = draw(st.sampled_from([hit.span() for hit in re.finditer("-?[0-9]+", text)]))
        new = draw(st.sampled_from([*_EDGE_INTS, *_BAD_SPELLINGS, "true", "null", "1.5", '"3"', "[1]"]))
    else:  # up to three characters become one odd character, or none
        start = draw(st.integers(0, len(text)))
        end = start + draw(st.integers(0, 3))
        new = draw(st.sampled_from(["", "_", " ", "\n", "\u0663", "\ufeff", "-", "[", "{", "]", ",", "0"]))
    return text[:start] + new + text[end:]


@st.composite
def _argv_cases(draw):
    """(argv, files): one command line over every subcommand, with the
    matrix files it names.  Every value a run could take long on is small."""
    command = draw(st.sampled_from(["mul", "mul", "table", "verify", "bench"]))
    small = st.integers(1, 3)
    if command == "mul":
        l, n, m = (draw(st.integers(1, 4)) for _ in range(3))
        files = {"a": draw(_matrix_text(l, n)), "b": draw(_matrix_text(draw(_mostly(st.just(n), st.just(n + 1))), m))}
        ring = draw(_mostly(st.just("int"), st.sampled_from([*_GOOD_RINGS, *_ODD_RINGS])))
        strategy = draw(_mostly(st.just("auto"), st.sampled_from([s.value for s in Strategy])))
        return ["mul", "--a", "{a}", "--b", "{b}", "--ring", ring, "--report", "--strategy", strategy], files
    if command == "table":
        bounds = ([f"--{k}", draw(_spelled(small, [*_EDGE_INTS, "65"]))] for k in ("lmax", "nmax", "mmax"))
        return ["table", *itertools.chain(*bounds)], {}
    if command == "verify":
        shape = draw(_triple(st.integers(1, 2), small, small, ["0", "-1", "17", str(2**31), str(2**63)]))
        seed = draw(_spelled(st.integers(0, 9), _EDGE_INTS))
        suite = draw(st.sampled_from(["all", "counts", "random", "symbolic"]))
        return ["verify", "--suite", suite, "--max-shape", shape, "--seed", seed], {}
    bits = draw(_spelled(st.integers(1, 4096), ["0", "-1", str(2**31), str(2**63)]))
    ring = draw(_mostly(st.sampled_from([f"int:{bits}", *_GOOD_RINGS]), st.sampled_from(_ODD_RINGS)))
    argv = ["bench", "--shape", draw(_triple(small, small, small)), "--ring", ring]
    argv += ["--reps", draw(_spelled(st.integers(1, 2)))]
    if draw(st.booleans()):
        argv += ["--strategy", draw(st.sampled_from([s.value for s in Strategy if s is not Strategy.AUTO]))]
    return argv, {}


def _textbook(path_a, path_b, ring):
    """The product of two matrix files that mul accepted, read without
    ringmul; every integer in them must be spelled as README says."""

    def number(v):
        assert type(v) is int or re.fullmatch("[+-]?[0-9]+", v), v
        return int(v)

    def read(path):
        text = Path(path).read_text(encoding="utf-8-sig")
        if text.lstrip()[:1] in ("{", "["):
            obj = json.loads(text)
            modulus = obj.get("modulus")
            return number(obj["cols"]), [number(v) for v in obj["data"]], modulus and number(modulus)
        header, *rows = [ln.split() for ln in text.splitlines() if ln.strip()]
        return number(header[1]), [number(t) for r in rows for t in r], None

    n, a, mod_a = read(path_a)
    m, b, mod_b = read(path_b)
    modulus = int(ring[4:]) if ring.startswith("mod:") else mod_a or mod_b
    data = [sum(a[i * n + k] * b[k * m + j] for k in range(n)) for i in range(len(a) // n) for j in range(m)]
    return modulus, data if modulus is None else [v % modulus for v in data]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argv_cases())
def test_every_command_line_exits_0_to_3_with_at_most_one_error_line(tmp_path, capsys, case):
    argv, files = case
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    argv = [arg.format(**paths) for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse's own refusal of a flag
        assert e.code == 2
        capsys.readouterr()
        return
    out = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert code != 1 or argv[0] == "verify"
    if code in (2, 3):
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err
    else:
        assert out.err == ""
    if code == 0 and argv[0] == "mul":
        product = json.loads(out.out.splitlines()[0])
        modulus, want = _textbook(paths["a"], paths["b"], argv[argv.index("--ring") + 1])
        assert product.get("modulus") == modulus
        assert [int(v) for v in product["data"]] == want
