"""Truncated multivariate power series and implicit-function elimination.

A ``TruncatedSeries`` is a polynomial modulo the terms of weighted degree >=
order (weight 1 if unlisted).  Degrees must be non-negative (InvalidInput), so
a dropped term never comes back below the order.  Products and substitutions
are the ``poly`` kernel (``product_terms``, ``substitute_terms``) called with
the series' weights and order, so a dropped term pair is never formed.
``solve_system`` runs Newton sweeps for a diagonal-unit Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Mapping, Sequence

from .errors import InvalidInput, NotSolvable, TruncationTooShallow
from .poly import (Coeff, ExactPolynomial, PolyRing, exact_quotient, graded_terms,
                   product_terms, substitute_terms)

DEFAULT_ORDER = 10


def _truncate_poly(p: ExactPolynomial, order: int, weights: Mapping[str, int]) -> ExactPolynomial:
    terms = graded_terms(p.terms, [weights.get(name, 1) for name in p.ring.variables])
    if terms and terms[0][0] < 0:
        raise InvalidInput(f"term of negative weighted degree {terms[0][0]} in a truncated series")
    return ExactPolynomial.unchecked(p.ring, {e: c for d, e, c in terms if d < order})


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

    def _coerce(self, other) -> ExactPolynomial:
        """``other`` (series, polynomial or number) truncated like this series."""
        other = other.poly if isinstance(other, TruncatedSeries) else other
        if not isinstance(other, ExactPolynomial):
            other = self.ring.constant(other)
        elif other.ring != self.ring:
            raise ValueError("ring mismatch")
        return self._wrap(other).poly

    def __add__(self, other):
        other_poly = other.poly if isinstance(other, TruncatedSeries) else other
        return self._wrap(self.poly + other_poly)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.poly.terms, self._coerce(other).terms
        if len(a) > len(b):
            a, b = b, a
        w = self.weight_vector()
        product = product_terms(a, graded_terms(b, w), w, self.order)
        return self._wrap(ExactPolynomial.unchecked(self.ring, product))

    def __neg__(self):
        return self._wrap(-self.poly)

    def derivative(self, name: str) -> "TruncatedSeries":
        return self._wrap(self.poly.derivative(name))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def constant_term(self) -> Coeff:
        return self.poly.constant_term()

    def substitute(self, assignment: Mapping[str, ExactPolynomial]) -> "TruncatedSeries":
        """Replace variables by polynomials of this ring, modulo the order.  An
        image with a term below the weight of its variable raises InvalidInput."""
        ring, w = self.ring, self.weight_vector()

        def image(i: int) -> ExactPolynomial:
            name = ring.variables[i]
            img = self._coerce(assignment[name] if name in assignment else ring.var(name))
            if any(sum(map(mul, w, e)) < w[i] for e in img.terms):
                raise InvalidInput(f"image of {name} has a term below its weight")
            return img

        result = substitute_terms(self.poly.terms, image, ring.nvars, w, self.order)
        return self._wrap(ExactPolynomial.unchecked(ring, result))

    def inverse(self) -> "TruncatedSeries":
        """Inverse of a unit series (nonzero constant term)."""
        c0 = self.poly.constant_term()
        if c0 == 0:
            raise NotSolvable("series has no constant term, not a unit")
        # u = c0 (1 + m)  =>  1/u = (1/c0) sum (-m)^k
        inverse_c0 = exact_quotient(1, c0)
        minus_m = -(self * inverse_c0 - 1)
        acc = powm = self._wrap(self.ring.one())
        for _ in range(self.order):
            powm = powm * minus_m
            if powm.is_zero():
                return acc * inverse_c0
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
