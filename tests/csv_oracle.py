"""The CSV table cell by cell through ``csv.writer``: an independent oracle for the tests.

The CLI formats each distinct bit pattern of its table once and joins each
row from those texts.  This module keeps the route that formats each cell
with its own ``repr`` and lets ``csv.writer`` join and quote them, so the
tests can byte-compare the two.
"""

import csv
import io

import numpy as np

from gaussbench.cli import _CSV_COLUMNS

_J_KEYS = ("j1", "j2", "j3", "j4")
_MEASURES = ("eof", "eof_lower_bound", "log_negativity", "simon_lhs_minus_rhs", "nu_tilde_minus")


def csv_rows(param, ev) -> list[list[str]]:
    """One row of ``_CSV_COLUMNS`` cells per point of an evaluation; NaN is an empty cell."""
    scheme = ev.scheme2 if ev.scheme2 is not None else ev.scheme1
    inv = None if scheme is None else scheme.invariants
    ent = ev.oracle_entanglement if scheme is None else scheme.entanglement
    columns = [param, *(getattr(ev.oracle, key) for key in _J_KEYS)]
    columns += [None if inv is None else getattr(inv, key) for key in _J_KEYS]
    columns += [getattr(ent, key) for key in _MEASURES]
    table = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in table))
    cells = []
    for column in table:
        column = np.broadcast_to(column, shape).ravel()
        cells.append(["" if t == "nan" else t for t in map(repr, column.tolist())])
    return [list(row) for row in zip(*cells)]


def render_csv(rows) -> str:
    """The header and the rows as CSV text, one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()
