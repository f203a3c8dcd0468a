"""The public names: every exported name is bound, and removed names stay gone."""

import importlib

import pytest

import gaussbench

#: The modules that declare ``__all__`` (``errors`` exports every class it defines).
MODULES = ("bench", "cli", "entanglement", "generators", "schemes", "stateio", "states")

#: Names the package no longer has: undefined measures are NaN in an
#: ``entanglement_report``, for one state as for a batch, and
#: ``cross_block_form`` classifies the cross block, so nothing raises for
#: them; ``invert_loss`` undoes the loss of every detector kind; and NaN turns
#: into ``null`` only where ``cli`` writes a report, so ``optional_field`` is
#: private to it.  A report's cross-scheme ``consistency`` section is gone,
#: and a transcript is the tuple of the bench's observations, so the
#: per-reading ``TranscriptRecord`` is gone too.  ``reconstruct_from_transcript``
#: returns all that the per-scheme ``reconstruct_scheme1`` and
#: ``reconstruct_scheme2`` returned, and a table's values come from
#: ``propagate`` without errors, so ``propagated_value`` is gone.
REMOVED = (
    "eof_symmetric",
    "eof_lower_bound",
    "log_negativity",
    "detect_special_form",
    "NotSymmetricError",
    "NumericalDomainError",
    "invert_loss_homodyne",
    "LossInversion",
    "optional_field",
    "consistency_check",
    "ConsistencyReport",
    "CONSISTENCY_TOL",
    "TranscriptRecord",
    "symplectic_eigenvalues",
    "reconstruct_scheme1",
    "reconstruct_scheme2",
    "propagated_value",
    "SchemeValues",
    "scheme1_values",
    "scheme2_values",
    "read_mode1",
)


@pytest.mark.parametrize("name", ["gaussbench", *(f"gaussbench.{m}" for m in MODULES)])
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import_works():
    namespace = {}
    exec("from gaussbench import *", namespace)
    assert set(gaussbench.__all__) <= set(namespace)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_absent(name):
    assert name not in gaussbench.__all__
    for module in (*MODULES, "errors"):
        assert not hasattr(importlib.import_module(f"gaussbench.{module}"), name)
    assert not hasattr(gaussbench, name)
