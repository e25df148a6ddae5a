import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringmul import ColumnPairSchedule, CostReport, SharedBProducts, Strategy
from ringmul.rings import AxiomFailure, AxiomReport
from ringmul.verify import Mismatch, NoncommutativeWitness, RandomCheckReport, SymbolicReport

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    (ColumnPairSchedule, ("start", "pairs"), (4, ((4, 5),))),
    (SharedBProducts, ("p7", "p8", "p9"), (7, 8, 9)),
    (AxiomFailure, ("law", "operands"), ("mul_commutative", (1, 2))),
    (AxiomReport, ("ring_name", "samples", "failures"), ("ZZ", 3, [])),
    (
        SymbolicReport,
        ("strategy", "l", "n", "m", "ok", "entry", "monomial", "coefficient"),
        (Strategy.CORE3, 1, 3, 3, False, (0, 0), "a11*b11", 1),
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


@pytest.mark.parametrize("record, fields, values", RECORDS[:3], ids=[r[0].__name__ for r in RECORDS[:3]])
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
