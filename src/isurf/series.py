"""Truncated multivariate power series and implicit-function elimination.

A ``TruncatedSeries`` is a polynomial modulo the terms of weighted degree >=
order (weight 1 if unlisted).  Degrees must be non-negative (InvalidInput), so
a dropped term never comes back below the order and every product goes through
one kernel, ``_product``, that never forms a dropped term pair (Brent & Kung,
J. ACM 25, 1978).  ``solve_system`` runs Newton sweeps for a diagonal-unit
Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Mapping, Sequence

from .errors import InvalidInput, NotSolvable, TruncationTooShallow
from .poly import ExactPolynomial, PolyRing

DEFAULT_ORDER = 10


def _by_degree(terms: Mapping[tuple[int, ...], Fraction], w: Sequence[int]) -> list:
    """The terms as (weighted degree, exponents, coefficient), by ascending degree."""
    return sorted(((sum(map(mul, w, e)), e, c) for e, c in terms.items()), key=itemgetter(0))


def _truncate_poly(p: ExactPolynomial, order: int, weights: Mapping[str, int]) -> ExactPolynomial:
    terms = _by_degree(p.terms, [weights.get(name, 1) for name in p.ring.variables])
    if terms and terms[0][0] < 0:
        raise InvalidInput(f"term of negative weighted degree {terms[0][0]} in a truncated series")
    return ExactPolynomial._closed(p.ring, {e: c for d, e, c in terms if d < order})


def _product(a: Mapping[tuple[int, ...], Fraction], b: list, w: Sequence[int],
             order: int, out: dict | None = None) -> dict:
    """Add the terms of a*b below the order into ``out``.  ``b`` comes from
    _by_degree, so the inner loop stops at the first pair reaching the order."""
    out = {} if out is None else out
    get = out.get
    for ea, ca in a.items():
        room = order - sum(map(mul, w, ea))
        for db, eb, cb in b:
            if db >= room:
                break
            key = tuple(map(add, ea, eb))
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


@dataclass(frozen=True)
class TruncatedSeries:
    """A polynomial known modulo terms of weighted degree >= order."""

    poly: ExactPolynomial
    order: int
    weights: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "poly", _truncate_poly(self.poly, self.order, dict(self.weights)))

    @staticmethod
    def of(poly: ExactPolynomial, order: int = DEFAULT_ORDER,
           weights: Mapping[str, int] | None = None) -> "TruncatedSeries":
        return TruncatedSeries(poly, order, tuple(sorted((weights or {}).items())))

    @property
    def ring(self) -> PolyRing:
        return self.poly.ring

    def weight_vector(self) -> list[int]:
        weights = dict(self.weights)
        return [weights.get(name, 1) for name in self.ring.variables]

    def _wrap(self, poly: ExactPolynomial) -> "TruncatedSeries":
        return TruncatedSeries(poly, self.order, self.weights)

    def _coerce(self, other) -> dict:
        """Terms of ``other`` (series, polynomial or number) truncated like this series."""
        other = other.poly if isinstance(other, TruncatedSeries) else other
        if not isinstance(other, ExactPolynomial):
            other = self.ring.constant(other)
        elif other.ring != self.ring:
            raise ValueError("ring mismatch")
        return self._wrap(other).poly.terms

    def __add__(self, other):
        other_poly = other.poly if isinstance(other, TruncatedSeries) else other
        return self._wrap(self.poly + other_poly)

    def __sub__(self, other):
        other_poly = other.poly if isinstance(other, TruncatedSeries) else other
        return self._wrap(self.poly - other_poly)

    def __mul__(self, other):
        a, b = self.poly.terms, self._coerce(other)
        if len(a) > len(b):
            a, b = b, a
        w = self.weight_vector()
        product = _product(a, _by_degree(b, w), w, self.order)
        return self._wrap(ExactPolynomial._closed(self.ring, product))

    def __neg__(self):
        return self._wrap(-self.poly)

    def derivative(self, name: str) -> "TruncatedSeries":
        return self._wrap(self.poly.derivative(name))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def constant_term(self) -> Fraction:
        return self.poly.constant_term()

    def substitute(self, assignment: Mapping[str, ExactPolynomial]) -> "TruncatedSeries":
        """Replace variables by polynomials of this ring, modulo the order.  An
        image with a term below the weight of its variable raises InvalidInput."""
        ring, order = self.ring, self.order
        w = self.weight_vector()
        cache: dict[tuple[int, int], list] = {}

        def power(i: int, e: int) -> list:
            key = (i, e)
            if key not in cache:
                if e == 1:
                    name = ring.variables[i]
                    p = self._coerce(assignment[name] if name in assignment else ring.var(name))
                else:
                    half = power(i, e // 2)
                    p = _product({x: c for _, x, c in half}, half, w, order)
                    if e % 2:
                        p = _product(p, power(i, 1), w, order)
                cache[key] = _by_degree(p, w)
                if e == 1 and cache[key] and cache[key][0][0] < w[i]:
                    raise InvalidInput(f"image of {ring.variables[i]} has a term below its weight")
            return cache[key]

        zero = (0,) * ring.nvars
        result: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.poly.terms.items():
            factors = [power(i, e) for i, e in enumerate(exps) if e]
            term = {zero: c}
            for factor in factors[:-1]:
                term = _product(term, factor, w, order)
            _product(term, factors[-1] if factors else [(0, zero, 1)], w, order, result)
        return self._wrap(ExactPolynomial._closed(ring, result))

    def inverse(self) -> "TruncatedSeries":
        """Inverse of a unit series (nonzero constant term)."""
        c0 = self.poly.constant_term()
        if c0 == 0:
            raise NotSolvable("series has no constant term, not a unit")
        # u = c0 (1 + m)  =>  1/u = (1/c0) sum (-m)^k
        minus_m = -(self * (1 / c0) - 1)
        acc = powm = self._wrap(self.ring.one())
        for _ in range(self.order):
            powm = powm * minus_m
            if powm.is_zero():
                return acc * (1 / c0)
            acc = acc + powm
        raise NotSolvable("geometric series does not terminate: a weight-0 variable in the unit")

    def __str__(self):
        return f"{self.poly} + O({self.order})"


def solve_system(relations: Sequence[TruncatedSeries], variables: Sequence[str],
                 order: int | None = None) -> dict[str, ExactPolynomial]:
    """Solve relations[i] = 0 for variables[i] jointly, as series in the rest.

    Each relation must be a unit times its variable plus higher-order terms
    (diagonal-unit Jacobian at the origin); Gauss-Seidel Newton sweeps then
    converge order by order.
    """
    if len(relations) != len(variables):
        raise ValueError("need one relation per variable")
    if not relations:
        return {}
    order = order if order is not None else relations[0].order
    ring = relations[0].ring
    rels = [TruncatedSeries(r.poly, order, relations[0].weights) for r in relations]
    if order <= max(rels[0].weight_vector()[ring.index(v)] for v in variables):
        raise TruncationTooShallow(f"order {order} drops the linear terms of the relations")
    for r, v in zip(rels, variables):
        if r.poly.coefficients_in(v).get(1, ring.zero()).constant_term() == 0:
            raise NotSolvable(f"relation is not linear-unit in {v}")
    # solutions only ever involve the unsolved variables: every residual is
    # computed with the full current assignment substituted in
    sol = {v: ring.zero() for v in variables}
    derivs = [r.derivative(v) for r, v in zip(rels, variables)]
    for _ in range(order + 2):
        done = True
        for i, v in enumerate(variables):
            res = rels[i].substitute(sol)
            if res.is_zero():
                continue
            done = False
            sol[v] = sol[v] - (res * derivs[i].substitute(sol).inverse()).poly
        if done:
            return sol
    raise NotSolvable("system iteration did not converge")
