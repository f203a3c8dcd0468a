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
from gaussbench.entanglement import entanglement_report

_J_KEYS = ("j1", "j2", "j3", "j4")
_MEASURES = ("eof", "eof_lower_bound", "log_negativity", "simon_lhs_minus_rhs", "nu_tilde_minus")


def csv_rows(param, ev) -> list[list[str]]:
    """The rows of an evaluation: the scheme it ran (scheme 2 where both ran),
    or no scheme columns and the oracle's own measures."""
    scheme = ev.scheme2 if ev.scheme2 is not None else ev.scheme1
    if scheme is None:
        return table_rows(param, ev.oracle, None, entanglement_report(ev.oracle))
    return table_rows(param, ev.oracle, scheme.invariants, scheme.entanglement)


def table_rows(param, oracle_inv, scheme_inv, measures) -> list[list[str]]:
    """One row of ``_CSV_COLUMNS`` cells per point; NaN is an empty cell."""
    columns = [param, *(getattr(oracle_inv, key) for key in _J_KEYS)]
    columns += [None if scheme_inv is None else getattr(scheme_inv, key) for key in _J_KEYS]
    columns += [getattr(measures, key) for key in _MEASURES]
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
