import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringmul import CostReport, Strategy
from ringmul.rings import AxiomFailure, AxiomReport
from ringmul.verify import Mismatch, NoncommutativeWitness, RandomCheckReport, SymbolicReport

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_fresh(code):
    """Run code in a fresh interpreter importing ringmul from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


@pytest.mark.parametrize(
    "code",
    [
        "import sys, ringmul\nassert 'ringmul.verify' not in sys.modules, 'verify loaded'",
        "import ringmul\nassert ringmul.symbolic_verify is ringmul.verify.symbolic_verify",
        "import ringmul\nassert ringmul.polynomials.PolynomialRing.__name__ == 'PolynomialRing'",
        "from ringmul import *\nimport ringmul\n"
        "missing = [n for n in ringmul.__all__ if n not in globals()]\nassert not missing, missing",
        "import ringmul\nassert not hasattr(ringmul, 'no_such_name')",
        "import ringmul.cli\nassert not ringmul.baseline._FOLDS, 'fold compiled at import'",
    ],
    ids=["no-eager-verify", "verify-name", "polynomials-submodule", "star-import", "unknown-name", "no-folds-at-import"],
)
def test_lazy_package_names(code):
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


#: Each record with its field order and sample values.
RECORDS = [
    (CostReport, ("strategy", "l", "n", "m", "predicted", "observed"), (Strategy.GENERAL_ODD, 3, 3, 3, 21, 21)),
    (AxiomFailure, ("law", "operands"), ("mul_commutative", (1, 2))),
    (AxiomReport, ("ring_name", "samples", "failures"), ("ZZ", 3, [])),
    (
        SymbolicReport,
        ("strategy", "l", "n", "m", "ok", "entry", "monomial", "coefficient"),
        (Strategy.GENERAL_ODD, 1, 3, 3, False, (0, 0), "a11*b11", 1),
    ),
    (Mismatch, ("trial", "a_rows", "b_rows", "got_rows", "want_rows"), (2, [[1]], [[2]], [[3]], [[2]])),
    (
        RandomCheckReport,
        ("strategy", "l", "n", "m", "trials", "agreements", "mismatch"),
        (Strategy.NAIVE, 1, 1, 1, 4, 4, None),
    ),
    (
        NoncommutativeWitness,
        ("attempt", "a", "b", "schedule_product", "naive_product", "differing_entries"),
        (0, "A", "B", "AB", "BA", [(0, 0)]),
    ),
]


@pytest.mark.parametrize("record, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_and_construction(record, fields, values):
    assert record._fields == fields
    positional = record(*values)
    assert positional == record(**dict(zip(fields, values)))
    assert tuple(getattr(positional, f) for f in fields) == values


@pytest.mark.parametrize("record, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_are_read_only(record, fields, values):
    with pytest.raises(AttributeError):
        setattr(record(*values), fields[0], values[0])


def test_cost_report_repr():
    report = CostReport(Strategy.GENERAL_ODD, 3, 3, 3, 21, 21)
    assert repr(report) == (
        "CostReport(strategy=<Strategy.GENERAL_ODD: 'general'>, l=3, n=3, m=3, predicted=21, observed=21)"
    )


def test_axiom_records_keep_their_methods():
    failure = AxiomFailure("mul_commutative", (2, 3))
    assert failure.describe() == "mul_commutative fails on (2, 3)"
    assert AxiomReport("ZZ", 1, []).ok
    assert not AxiomReport("ZZ", 1, [failure]).ok


def _unused_imports(path):
    """Names imported at module level in path and never read; a name in
    __all__ counts as read, and a __future__ import binds no name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            read.update(ast.literal_eval(node.value))
    read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return sorted(imported - read)


def test_every_module_level_import_is_read():
    files = sorted((ROOT / "src" / "ringmul").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {str(p.relative_to(ROOT)): names for p in files if (names := _unused_imports(p))}
    assert unused == {}


def test_cli_reads_integers_only_through_its_one_reader():
    # outside cli._integer no code names int, so none calls int(...) and no
    # flag in build_parser converts with type=int
    tree = ast.parse((ROOT / "src" / "ringmul" / "cli.py").read_text(encoding="utf-8"))
    (reader,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_integer"]
    inside = {id(n) for n in ast.walk(reader)}
    named = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "int" and id(n) not in inside]
    assert named == []
    assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "int" for n in ast.walk(reader))
