"""Array references (the paper's mappings ``R``).

Two concrete access kinds share the :class:`Access` interface:

* :class:`AffineAccess` (historically :class:`ArrayAccess`) — every
  subscript is an affine expression over the loop variables.  This is the
  only kind the paper's static analysis handles, and it keeps the closed
  ``offset_form`` used by all vectorized fast paths.
* :class:`IndirectAccess` — at least one subscript is an
  :class:`IndirectExpr`, a one-level nested reference ``idx[affine...]``
  into an index array that carries concrete :attr:`~repro.ir.arrays.Array.data`.
  There is no affine form; the access can only be *evaluated*.

Both kinds describe their flat element offset through
:meth:`Access.offset_terms`, an affine part plus zero or more index-array
gathers.  The two offset evaluators — scalar
:meth:`repro.ir.loops.LoopNest.offset_evaluators` and vectorized
:func:`repro.kernels.offsets.offset_columns` — are built from it, so
tagging, simulation and analysis never branch on the access kind.  The
polyhedral passes (dependences, transforms) still dispatch on
:attr:`Access.is_affine`: only affine pairs have dependence polyhedra.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import IRError
from repro.ir.arrays import Array
from repro.poly.affine import AffineExpr
from repro.poly.relation import AffineMap

#: ``(constant, coeffs, gathers)``; each gather is ``(stride, data,
#: constant, coeffs)`` reading ``data`` at an affine flat offset.
OffsetTerms = tuple[
    int, tuple[int, ...], tuple[tuple[int, tuple[int, ...], int, tuple[int, ...]], ...]
]


class Access:
    """Abstract array reference inside a loop nest.

    Subclasses provide ``array``, ``loop_dims``, ``subscripts`` and
    ``is_write`` attributes plus the evaluation methods below; consumers
    that need the affine closed form must check :attr:`is_affine` first.
    """

    __slots__ = ()

    #: True when every subscript is affine in the loop variables.
    is_affine = False

    def element(self, iteration: Sequence[int]) -> tuple[int, ...]:
        """Array element touched by ``iteration`` (R(I))."""
        raise NotImplementedError

    def element_offset(self, iteration: Sequence[int]) -> int:
        """Flat element offset within the array for ``iteration``."""
        raise NotImplementedError

    def offset_form(self) -> tuple[int, tuple[int, ...]]:
        """Affine closed form of the flat offset; raises when none exists."""
        raise NotImplementedError

    def offset_terms(self) -> "OffsetTerms":
        """The flat offset as ``(constant, coeffs, gathers)``.

        ``offset(I) = constant + coeffs . I + sum(stride * data[c + k . I]
        for stride, data, c, k in gathers)``; an affine access has no
        gathers.  Unchecked, like :meth:`offset_form`.
        """
        raise NotImplementedError


class ArrayAccess(Access):
    """One affine array reference inside a loop nest.

    ``subscripts[k]`` gives array dimension ``k`` as an affine expression
    over the nest's loop variables; ``is_write`` distinguishes the
    assignment target from the uses.  ``R(I)`` in the paper is
    :meth:`element`.
    """

    __slots__ = ("array", "loop_dims", "subscripts", "is_write", "_map")

    is_affine = True

    def __init__(
        self,
        array: Array,
        loop_dims: Sequence[str],
        subscripts: Sequence[AffineExpr | int | str],
        is_write: bool = False,
    ):
        loop_dims = tuple(loop_dims)
        coerced = tuple(AffineExpr.coerce(s) for s in subscripts)
        if len(coerced) != array.rank:
            raise IRError(
                f"array {array.name!r} has rank {array.rank}, got {len(coerced)} subscripts"
            )
        loop_set = set(loop_dims)
        for expr in coerced:
            extra = expr.variables() - loop_set
            if extra:
                raise IRError(
                    f"subscript {expr} of {array.name!r} uses non-loop variables {sorted(extra)}"
                )
        out_dims = tuple(f"{array.name}_d{k}" for k in range(array.rank))
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "loop_dims", loop_dims)
        object.__setattr__(self, "subscripts", coerced)
        object.__setattr__(self, "is_write", is_write)
        object.__setattr__(self, "_map", AffineMap(loop_dims, out_dims, coerced))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ArrayAccess is immutable")

    @property
    def access_map(self) -> AffineMap:
        """The reference as an affine map from iterations to array indices."""
        return self._map

    def element(self, iteration: Sequence[int]) -> tuple[int, ...]:
        """Array element touched by ``iteration`` (R(I))."""
        return self._map.apply(tuple(iteration))

    def element_offset(self, iteration: Sequence[int]) -> int:
        """Flat element offset within the array for ``iteration``."""
        return self.array.linear_offset(self.element(iteration))

    def offset_form(self) -> tuple[int, tuple[int, ...]]:
        """Flat element offset as a linear form over the loop dims.

        Returns ``(constant, coeffs)`` with ``offset(I) = constant +
        sum(coeffs[k] * I[k])``.  This is the unchecked fast path for hot
        loops (tagging, trace generation); validate the nest with
        :meth:`repro.ir.loops.LoopNest.validate_access_bounds` first.
        """
        strides = self.array._strides
        constant = 0
        coeffs = [0] * len(self.loop_dims)
        for subscript, stride in zip(self.subscripts, strides):
            constant += subscript.constant * stride
            for k, dim in enumerate(self.loop_dims):
                coeffs[k] += subscript.coeff(dim) * stride
        return constant, tuple(coeffs)

    def offset_terms(self) -> "OffsetTerms":
        return (*self.offset_form(), ())

    def is_uniform_with(self, other: ArrayAccess) -> bool:
        """True if the two references differ only by a constant vector.

        Uniform reference pairs (e.g. ``A[i][j]`` and ``A[i+1][j-1]``)
        admit constant dependence distances.
        """
        if not isinstance(other, ArrayAccess):
            return False
        if self.array != other.array or self.loop_dims != other.loop_dims:
            return False
        return all(
            (a - b).is_constant() for a, b in zip(self.subscripts, other.subscripts)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayAccess):
            return NotImplemented
        return (
            self.array == other.array
            and self.loop_dims == other.loop_dims
            and self.subscripts == other.subscripts
            and self.is_write == other.is_write
        )

    def __hash__(self) -> int:
        return hash((self.array, self.loop_dims, self.subscripts, self.is_write))

    def __repr__(self) -> str:
        subs = "".join(f"[{s}]" for s in self.subscripts)
        kind = "W" if self.is_write else "R"
        return f"ArrayAccess({kind}:{self.array.name}{subs})"


#: The affine access under its role name; ``ArrayAccess`` remains the
#: constructor every existing call site uses.
AffineAccess = ArrayAccess


class IndirectExpr:
    """A one-level nested reference ``idx[affine...]`` used as a subscript.

    The index array must carry concrete ``data``; the expression's value at
    an iteration is ``idx.data[flat]`` where ``flat`` is the (affine) flat
    offset of the inner subscripts.  Nesting deeper than one level is not
    representable: the inner subscripts are plain affine expressions.
    """

    __slots__ = ("array", "subscripts", "_constant", "_coeffs")

    def __init__(self, array: Array, subscripts: Sequence[AffineExpr | int | str]):
        if array.data is None:
            raise IRError(
                f"index array {array.name!r} has no recorded data; indirect "
                "references need concrete index values"
            )
        coerced = tuple(AffineExpr.coerce(s) for s in subscripts)
        if len(coerced) != array.rank:
            raise IRError(
                f"index array {array.name!r} has rank {array.rank}, "
                f"got {len(coerced)} subscripts"
            )
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "subscripts", coerced)
        constant = 0
        coeffs: dict[str, int] = {}
        for subscript, stride in zip(coerced, array._strides):
            constant += subscript.constant * stride
            for var in subscript.variables():
                coeffs[var] = coeffs.get(var, 0) + subscript.coeff(var) * stride
        object.__setattr__(self, "_constant", constant)
        object.__setattr__(self, "_coeffs", dict(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IndirectExpr is immutable")

    def variables(self) -> frozenset[str]:
        vars_: set[str] = set()
        for subscript in self.subscripts:
            vars_ |= subscript.variables()
        return frozenset(vars_)

    def inner_offset_form(self, loop_dims: Sequence[str]) -> tuple[int, tuple[int, ...]]:
        """Flat offset *into the index array* as ``(constant, coeffs)``."""
        return self._constant, tuple(self._coeffs.get(d, 0) for d in loop_dims)

    def value(self, env: dict[str, int]) -> int:
        """The index value at a loop-variable environment."""
        flat = self._constant
        for var, coeff in self._coeffs.items():
            flat += coeff * env[var]
        data = self.array.data
        if not 0 <= flat < len(data):
            raise IRError(
                f"indirect reference reads {self.array.name!r} at flat offset "
                f"{flat}, outside [0, {len(data) - 1}]"
            )
        return data[flat]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndirectExpr):
            return NotImplemented
        return self.array == other.array and self.subscripts == other.subscripts

    def __hash__(self) -> int:
        return hash((self.array, self.subscripts))

    def __str__(self) -> str:
        subs = "".join(f"[{s}]" for s in self.subscripts)
        return f"{self.array.name}{subs}"

    def __repr__(self) -> str:
        return f"IndirectExpr({self})"


class IndirectAccess(Access):
    """An array reference with at least one indirect subscript.

    ``subscripts[k]`` is either an :class:`~repro.poly.affine.AffineExpr`
    or an :class:`IndirectExpr`.  The access has no affine map; callers
    evaluate it per iteration (:meth:`element`, :meth:`element_offset`) or
    through the offset evaluators built from :meth:`offset_terms`.
    """

    __slots__ = ("array", "loop_dims", "subscripts", "is_write")

    is_affine = False

    def __init__(
        self,
        array: Array,
        loop_dims: Sequence[str],
        subscripts: Sequence[AffineExpr | IndirectExpr | int | str],
        is_write: bool = False,
    ):
        loop_dims = tuple(loop_dims)
        coerced: list[AffineExpr | IndirectExpr] = []
        indirect = False
        for subscript in subscripts:
            if isinstance(subscript, IndirectExpr):
                coerced.append(subscript)
                indirect = True
            else:
                coerced.append(AffineExpr.coerce(subscript))
        if not indirect:
            raise IRError(
                f"reference to {array.name!r} has only affine subscripts; "
                "use ArrayAccess"
            )
        if len(coerced) != array.rank:
            raise IRError(
                f"array {array.name!r} has rank {array.rank}, got {len(coerced)} subscripts"
            )
        loop_set = set(loop_dims)
        for expr in coerced:
            extra = expr.variables() - loop_set
            if extra:
                raise IRError(
                    f"subscript {expr} of {array.name!r} uses non-loop variables {sorted(extra)}"
                )
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "loop_dims", loop_dims)
        object.__setattr__(self, "subscripts", tuple(coerced))
        object.__setattr__(self, "is_write", is_write)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IndirectAccess is immutable")

    def index_arrays(self) -> tuple[Array, ...]:
        """Distinct index arrays this reference reads through."""
        seen: dict[str, Array] = {}
        for subscript in self.subscripts:
            if isinstance(subscript, IndirectExpr):
                seen.setdefault(subscript.array.name, subscript.array)
        return tuple(seen.values())

    def element(self, iteration: Sequence[int]) -> tuple[int, ...]:
        env = dict(zip(self.loop_dims, iteration))
        index = []
        for subscript in self.subscripts:
            if isinstance(subscript, IndirectExpr):
                index.append(subscript.value(env))
            else:
                index.append(subscript.evaluate(env))
        return tuple(index)

    def element_offset(self, iteration: Sequence[int]) -> int:
        """Flat element offset (bounds-checked through the array)."""
        return self.array.linear_offset(self.element(iteration))

    def offset_form(self) -> tuple[int, tuple[int, ...]]:
        raise IRError(
            f"indirect reference to {self.array.name!r} has no affine offset "
            "form; evaluate it via element_offset or offset_terms"
        )

    def subscript_forms(
        self,
    ) -> tuple[tuple[str, int, tuple[int, ...], tuple[int, ...] | None], ...]:
        """Per-dimension evaluation recipe.

        Each entry is ``(kind, constant, coeffs, data)``: for ``kind ==
        'affine'`` the dimension's value is ``constant + coeffs . I`` and
        ``data`` is ``None``; for ``kind == 'indirect'`` the value is
        ``data[constant + coeffs . I]`` (``constant``/``coeffs`` give the
        flat offset into the index array).  :meth:`offset_terms` folds it
        into one flat offset.
        """
        forms = []
        for subscript in self.subscripts:
            if isinstance(subscript, IndirectExpr):
                constant, coeffs = subscript.inner_offset_form(self.loop_dims)
                forms.append(("indirect", constant, coeffs, subscript.array.data))
            else:
                constant = subscript.constant
                coeffs = tuple(subscript.coeff(d) for d in self.loop_dims)
                forms.append(("affine", constant, coeffs, None))
        return tuple(forms)

    def offset_terms(self) -> "OffsetTerms":
        """Affine dimensions fold into the constant and coefficients; each
        indirect dimension becomes one gather, scaled by its stride."""
        constant = 0
        coeffs = [0] * len(self.loop_dims)
        gathers = []
        for (kind, base, factors, data), stride in zip(
            self.subscript_forms(), self.array._strides
        ):
            if kind == "indirect":
                gathers.append((stride, data, base, factors))
                continue
            constant += base * stride
            for k, factor in enumerate(factors):
                coeffs[k] += factor * stride
        return constant, tuple(coeffs), tuple(gathers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndirectAccess):
            return NotImplemented
        return (
            self.array == other.array
            and self.loop_dims == other.loop_dims
            and self.subscripts == other.subscripts
            and self.is_write == other.is_write
        )

    def __hash__(self) -> int:
        return hash((self.array, self.loop_dims, self.subscripts, self.is_write))

    def __repr__(self) -> str:
        subs = "".join(f"[{s}]" for s in self.subscripts)
        kind = "W" if self.is_write else "R"
        return f"IndirectAccess({kind}:{self.array.name}{subs})"
