"""The package namespace: every exported name resolves, and removed ones stay gone."""

import dataclasses

import grovermin
import grovermin.grover as grover
import grovermin.statevector as statevector
from grovermin.objectives import Objective
from grovermin.statevector import MarkedSet, Statevector


def test_every_exported_name_resolves():
    missing = [name for name in grovermin.__all__ if not hasattr(grovermin, name)]
    assert missing == []
    assert len(set(grovermin.__all__)) == len(grovermin.__all__)


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from grovermin import *", namespace)
    assert set(grovermin.__all__) <= set(namespace)


def test_removed_dense_api_is_gone():
    # The closed forms run every search; these wrappers and second copies of
    # the amplification step were deleted with the dense engine.
    removed = [
        (grovermin, "amplify"),
        (grovermin, "measured_success_probability"),
        (grovermin, "phase_flip"),
        (grovermin, "diffusion"),
        (grover, "amplify"),
        (grover, "measured_success_probability"),
        (grover, "iterate"),
        (statevector, "phase_flip"),
        (statevector, "diffusion"),
        (Statevector, "copy"),
        (Statevector, "norm_squared"),
        (MarkedSet, "empty"),
        (MarkedSet, "__contains__"),
    ]
    present = [f"{owner.__name__}.{name}" for owner, name in removed if hasattr(owner, name)]
    assert present == []
    assert {"amplify", "measured_success_probability", "phase_flip", "diffusion"}.isdisjoint(
        grovermin.__all__
    )


def test_objective_has_two_kinds_and_no_scalar_fn():
    # A scalar-only function is passed as a vectorized batch_fn; there is no
    # separate ``fn`` field or unchecked scalar path.
    fields = [f.name for f in dataclasses.fields(Objective)]
    assert fields == ["name", "arity", "batch_fn", "factor"]
    assert not hasattr(Objective, "_vectorized")
