"""Truncated multivariate power series and implicit-function elimination.

A ``TruncatedSeries`` is a polynomial modulo the terms of total degree >=
order.  Its variables are ordinary (a ring with invertible variables raises
InvalidInput), so no term below the order comes from one dropped above it.
Series of different orders do not mix (InvalidInput).  Products and
substitutions are the ``poly`` kernel (``multiply_terms``, ``substitute_terms``)
called with the series' order, so a dropped term pair is never formed.
``solve_system`` eliminates variables by chord sweeps at the relations'
order: each correction divides a residual by the constant unit of its
relation, so nothing is differentiated or inverted, and a sweep whose
residuals are all zero is the certificate.  The order itself is chosen once
per germ, by ``tsing.chart_germ``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import InvalidInput, NotSolvable, TruncationTooShallow
from .poly import (Coeff, ExactPolynomial, PolyRing, exact_quotient, multiply_terms,
                   substitute_terms)


class TruncatedSeries:
    """A polynomial known modulo terms of total degree >= order."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: ExactPolynomial, order: int):
        ring = poly.ring
        if ring.invertible:
            raise InvalidInput(f"truncated series over invertible {sorted(ring.invertible)}")
        terms = {e: c for e, c in poly.terms.items() if sum(e) < order}
        self.poly, self.order = ExactPolynomial(ring, terms), order

    @property
    def ring(self) -> PolyRing:
        return self.poly.ring

    def _wrap(self, poly: ExactPolynomial) -> "TruncatedSeries":
        return TruncatedSeries(poly, self.order)

    def _coerce(self, other) -> ExactPolynomial:
        """``other`` (series of this order, polynomial or number) truncated like
        this series; a series of another order raises InvalidInput."""
        if isinstance(other, TruncatedSeries):
            if other.order != self.order:
                raise InvalidInput(f"order mismatch: O({self.order}) and O({other.order})")
            other = other.poly
        if not isinstance(other, ExactPolynomial):
            other = self.ring.constant(other)
        elif other.ring != self.ring:
            raise InvalidInput("ring mismatch")
        return self._wrap(other).poly

    def __add__(self, other):
        return self._wrap(self.poly + self._coerce(other))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        product = multiply_terms(self.poly.terms, self._coerce(other).terms, self.order)
        return self._wrap(ExactPolynomial(self.ring, product))

    def __neg__(self):
        return self._wrap(-self.poly)

    def derivative(self, name: str) -> "TruncatedSeries":
        return self._wrap(self.poly.derivative(name))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def constant_term(self) -> Coeff:
        return self.poly.constant_term()

    def substitute(self, assignment: Mapping[str, ExactPolynomial]) -> "TruncatedSeries":
        """Replace variables by polynomials (or numbers) of this ring, modulo
        the order, by the image rules of ``substitute_terms``: an unassigned
        variable folds as its key, an image with a constant term raises
        InvalidInput, and an image (packed once, its packed form kept) enters
        with only its terms below the order, so one with a single such term
        folds."""
        result = substitute_terms(self.poly.terms, self.ring, assignment, self.ring, self.order)
        return self._wrap(ExactPolynomial(self.ring, result))

    def inverse(self) -> "TruncatedSeries":
        """Inverse of a unit series (nonzero constant term)."""
        c0 = self.poly.constant_term()
        if c0 == 0:
            raise NotSolvable("series has no constant term, not a unit")
        # u = c0 (1 + m)  =>  1/u = (1/c0) sum (-m)^k, and m^k = 0 once k >= order
        inverse_c0 = exact_quotient(1, c0)
        minus_m = -(self * inverse_c0 - 1)
        acc = powm = self._wrap(self.ring.one())
        for _ in range(self.order):
            powm = powm * minus_m
            if powm.is_zero():
                break
            acc = acc + powm
        return acc * inverse_c0

    def __str__(self):
        return f"{self.poly} + O({self.order})"


def solve_system(relations: Sequence[TruncatedSeries],
                 variables: Sequence[str]) -> dict[str, ExactPolynomial]:
    """Solve relations[i] = 0 for variables[i] jointly, as series in the rest.

    Each relation must be a nonzero constant unit u_i times its variable plus
    higher-order terms, with no constant term (NotSolvable otherwise);
    relations of different orders raise InvalidInput.  The Gauss-Seidel chord
    sweeps, all at the relations' order, set variables[i] -= residual_i / u_i
    (Newton's step with the Jacobian frozen at its constant diagonal); the
    first sweep that leaves every residual zero is the certificate.  A system
    the sweeps cannot solve within order + 2 of them (say, one with constant
    coupling between the variables) raises NotSolvable; it never returns a
    series that does not solve it.
    """
    if len(relations) != len(variables):
        raise InvalidInput("need one relation per variable")
    if not relations:
        return {}
    order, ring = relations[0].order, relations[0].ring
    if any(r.order != order for r in relations):
        raise InvalidInput(f"relations of different orders {sorted({r.order for r in relations})}")
    if order <= 1:
        raise TruncationTooShallow(f"order {order} drops the linear terms of the relations")
    inverse_units = []
    for r, v in zip(relations, variables):
        unit = r.poly.coefficient(ring.exponents({v: 1}))
        if unit == 0:
            raise NotSolvable(f"relation is not linear-unit in {v}")
        if r.constant_term() != 0:
            raise NotSolvable(f"relation for {v} has a constant term")
        inverse_units.append(exact_quotient(1, unit))
    # solutions only ever involve the unsolved variables: every residual is
    # computed with the full current assignment substituted in
    sol = {v: ring.zero() for v in variables}
    for _ in range(order + 2):
        done = True
        for r, v, inverse_unit in zip(relations, variables, inverse_units):
            res = r.substitute(sol)
            if not res.is_zero():
                done = False
                sol[v] = sol[v] - (res * inverse_unit).poly
        if done:
            return sol
    raise NotSolvable("system iteration did not converge")
