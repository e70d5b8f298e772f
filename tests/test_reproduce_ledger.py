"""Golden ledger of the seven `emscat reproduce` tables.

Every `computed*` column is pinned.  q-sphere, e-cube, many-27 and many-1000
came out string-identical with one and two BLAS threads, so they are
compared as strings.  e-sphere, e-ellipsoid and sweep-1386 move in the last
digits with the BLAS thread count (measured spreads 8.4e-13, 4.0e-12 and
3.3e-11), so they are compared at rtol 1e-10.  A change to this ledger is a
change to the paper's reproduced numbers and must be deliberate.
"""

import contextlib
import csv
import io

import numpy as np
import pytest

from emscat.cli import main

EXACT = {
    "q-sphere": {
        "computed": ["3.730515158508327e-22", "3.759849295653089e-22",
                     "0.00786329391474487"],
    },
    "e-cube": {
        "computed_error": ["9.848832654486753e-09", "9.871662806635686e-08",
                           "1.347523237021077e-06", "0.0006329215427809787"],
    },
    "many-27": {
        "computed_norm": ["5.196151602690342", "5.196152421885643",
                          "5.196152422705811", "5.196152422706631"],
        "computed_error": ["8.163865046970321e-06", "8.163863609098565e-10",
                           "8.163863611999622e-14", "8.163863612002524e-18"],
    },
    "many-1000": {
        "computed_norm": ["31.62271500945469", "31.62277654001428",
                          "31.62277660162214", "31.62277660168374"],
        "computed_error": ["0.0003023642734884978", "3.023653176673791e-08",
                           "3.023653189617593e-12", "3.023653189630539e-16"],
    },
}

CLOSE = {
    "e-sphere": {
        "computed_error": [2.70433371528809e-04, 2.704682109820152e-07,
                           2.720259328463127e-10],
    },
    "e-ellipsoid": {
        "computed_error": [3.657194242218775e-03, 3.636279031194844e-06,
                           5.258427233205627e-09],
    },
    "sweep-1386": {
        "computed_e_error": [5.800610518858329e-07, 5.800279618712338e-10,
                             5.800649318258336e-13, 5.835559060849096e-16],
        "computed_q_error": [6.175909690733043e-03, 6.146349249046713e-03,
                             6.146079389825549e-03, 6.140281490210181e-03],
    },
}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """table id -> {column: [cell, ...]} for every reproduce table."""
    outdir = tmp_path_factory.mktemp("reproduce")
    out = {}
    for table in (*EXACT, *CLOSE):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["reproduce", table, "--output-dir", str(outdir)]) == 0
        with open(outdir / f"reproduce_{table}.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        out[table] = {key: [row[key] for row in rows] for key in rows[0]}
    return out


def test_ledger_covers_every_computed_column(tables):
    for table, columns in tables.items():
        pinned = {**EXACT, **CLOSE}[table]
        assert sorted(c for c in columns if c.startswith("computed")) == sorted(pinned)


@pytest.mark.parametrize("table", sorted(EXACT))
def test_ledger_string_identical(tables, table):
    for column, expected in EXACT[table].items():
        assert tables[table][column] == expected, column


@pytest.mark.parametrize("table", sorted(CLOSE))
def test_ledger_within_rtol(tables, table):
    for column, expected in CLOSE[table].items():
        computed = [float(v) for v in tables[table][column]]
        np.testing.assert_allclose(computed, expected, rtol=1e-10, err_msg=column)


def test_sweep_error_decays_with_size(tables):
    # radius down a decade at a fixed distance: the near-field gap drops ~1000x
    errors = [float(v) for v in tables["sweep-1386"]["computed_e_error"]]
    for larger, smaller in zip(errors, errors[1:]):
        assert 500 <= larger / smaller <= 2000
