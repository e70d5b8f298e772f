"""Golden ledger of the seven `emscat reproduce` tables.

Every `computed*` column is pinned, as captured at the default BLAS thread
count of a 2-vCPU box (two OpenBLAS threads).  q-sphere, e-cube, many-27
and many-1000 come out string-identical with one, two and four BLAS
threads on that box, so they are compared as strings.  q-sphere held at
one thread only once the one-body operator stored its coefficients real:
OpenBLAS had rounded the complex GEMM of its 197-orbit blocks differently
on one thread, and the real GEMM that replaced it gives the same bits at
all three counts.  e-sphere, e-ellipsoid and sweep-1386 are identical at
the three counts too, since the one-body solve runs in the character
basis (before it, e-ellipsoid moved by up to 5.6e-15 at one thread and
sweep-1386's third computed_e_error cell by 2.2e-16); the three are
compared at rtol 1e-10, since their last digits have moved with the
thread count before (spreads up to 1.8e-12).
A change to this ledger is a change to the paper's reproduced numbers and
must be deliberate.  The last one, solving the one-body equation in the
mirror group's character basis and leaving out the characters the
incidence leaves empty, moved 20 cells of the five one-body tables, at
most 1.7e-11 (sweep-1386's last computed_e_error cell) and in the string
rows at most 3.2e-14 (q-sphere's gap); many-27 and many-1000 (FFT path)
did not move.

sweep-1386's last computed_e_error cell, 5.8e-16 at radius 1e-10, is the
most sensitive one: the mirror split moved J by 6.1e-13 there and this cell
by 1.8e-10, while at radius 1e-7 it moved J by 6.5e-13 and the scattered
field by 2.6e-13.  Two effects stack at radius 1e-10.  The scattered field
at the evaluation point, |Es| = 5.2e-16, is 2.4 ulps of |E0| = 1, so the x
component of E_exact - E_asym, along the incident polarisation, is a whole
number of ulps of E0 (-1 + 3i) and the y and z components carry the rest.
And Es = sum_j grad g x J_j w_j cancels: the magnitudes of its terms add up
to 2.5e5 |Es| at ka = 1.05e-5 against 248 |Es| at ka = 1.05e-2, growing as
1/(ka), so a change in J reaches Es amplified by up to that factor (880
here).
"""

import contextlib
import csv
import io

import numpy as np
import pytest

from emscat.cli import main

EXACT = {
    "q-sphere": {
        "computed": ["3.730515158508323e-22", "3.759849295653089e-22",
                     "0.00786329391474576"],
    },
    "e-cube": {
        "computed_error": ["9.848832654486766e-09", "9.87166280663586e-08",
                           "1.347523237021037e-06", "0.0006329215427809773"],
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
        "computed_error": [2.704333715288116e-04, 2.70468210982024e-07,
                           2.720259328463814e-10],
    },
    "e-ellipsoid": {
        "computed_error": [3.657194242234534e-03, 3.636279031197525e-06,
                           5.25842723322952e-09],
    },
    "sweep-1386": {
        "computed_e_error": [5.800610518857694e-07, 5.800279618722008e-10,
                             5.800649318264506e-13, 5.835559059765613e-16],
        "computed_q_error": [6.175909690733972e-03, 6.146349249045676e-03,
                             6.146079389825422e-03, 6.140281490209927e-03],
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
