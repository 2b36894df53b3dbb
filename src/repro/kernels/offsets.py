"""The vectorized offset evaluator: every reference, affine or indirect.

:func:`offset_columns` is the bulk twin of
:meth:`repro.ir.loops.LoopNest.offset_evaluators`.  Both are built from
:meth:`repro.ir.accesses.Access.offset_terms`; here each reference
becomes a function from coordinate columns (one ``int64`` array per loop
dimension) to its ``int64`` flat element offsets.  An affine reference
is ``constant + sum(coeff * column)``; an indirect one adds a gather
through each index array.  Vectorized tagging
(:mod:`repro.kernels.tagging`) and the batched trace builder
(:mod:`repro.kernels.cachesim`) are its only callers.

Call it only after :meth:`~repro.ir.loops.LoopNest.validate_access_bounds`:
NumPy silently wraps a negative index around to the end of the array.
This module imports NumPy at module level.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.ir.loops import LoopNest


def offset_columns(nest: LoopNest) -> list:
    """One ``(columns, count) -> int64 offsets`` function per reference.

    Index arrays are converted to ``int64`` here, once per nest, not on
    every call of the returned functions.
    """
    evaluators = []
    for access in nest.accesses:
        constant, coeffs, gathers = access.offset_terms()
        gathers = tuple(
            (stride, np.asarray(data, dtype=np.int64), inner, factors)
            for stride, data, inner, factors in gathers
        )
        evaluators.append(
            partial(_offsets, constant=constant, coeffs=coeffs, gathers=gathers)
        )
    return evaluators


def _linear(columns: list, count: int, coeffs, constant: int):
    """``constant + sum(c * column)`` as an int64 array of ``count``
    values; zero coefficients cost nothing.  Column by column, this
    beats an integer matmul (NumPy has no BLAS for int64)."""
    total = np.full(count, constant, dtype=np.int64)
    for column, coeff in zip(columns, coeffs):
        if coeff:
            total += column * coeff
    return total


def _offsets(columns: list, count: int, constant, coeffs, gathers):
    total = _linear(columns, count, coeffs, constant)
    for stride, data, inner, factors in gathers:
        total += data[_linear(columns, count, factors, inner)] * stride
    return total
