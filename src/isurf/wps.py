"""Weighted-projective hypersurface invariants and local analysis.

Hilbert series (from a minimal free resolution and from the hypersurface
formula), adjunction invariants, the degree-51 model in P(1,3,17,25) with
its coordinate-point germs, and the two-equation family in P(1,1,2,3,5)
interpolating between the index-2 and index-3 degenerations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from . import load_fixture
from .errors import InvalidInput
from .poly import Coeff, ExactPolynomial, PolyRing, exact_quotient
from .rings import seeded_form, weighted_monomials
from .toric import WPS_WEIGHTS
from .tsing import chart_germ

T_RING = PolyRing.of("t")


def _t(power: int) -> ExactPolynomial:
    return T_RING.monomial({"t": power})


class HilbertSeries(NamedTuple):
    """numerator / prod (1 - t^w) as an exact rational function."""

    numerator: ExactPolynomial
    denominator_weights: tuple[int, ...]

    def denominator(self) -> ExactPolynomial:
        out = T_RING.one()
        for w in self.denominator_weights:
            out = out * (T_RING.one() - _t(w))
        return out

    def equals(self, other: "HilbertSeries") -> bool:
        return (self.numerator * other.denominator()
                == other.numerator * self.denominator())

    def coefficients(self, upto: int) -> list[Coeff]:
        """Power-series coefficients of the rational function, degrees 0..upto."""
        den = self.denominator()
        num = {e[0]: c for e, c in self.numerator.terms.items()}
        d = {e[0]: c for e, c in den.terms.items()}
        d0 = d.get(0)
        if not d0:
            raise InvalidInput("denominator has no constant term")
        out = []
        for k in range(upto + 1):
            acc = num.get(k, 0)
            for i in range(1, k + 1):
                if i in d:
                    acc -= d[i] * out[k - i]
            out.append(exact_quotient(acc, d0))
        return out


class ResolutionData(NamedTuple):
    """Betti degree lists of the length-five self-dual resolution."""

    ambient_weights: tuple[int, ...]
    socle: int
    l1: tuple[int, ...]
    l2: tuple[int, ...]


def bundled_resolution() -> ResolutionData:
    data = load_fixture("resolution.json")
    return ResolutionData(tuple(data["ambient_weights"]), int(data["socle"]),
                          tuple(data["L1"]), tuple(data["L2"]))


def hilbert_series_from_resolution(res: ResolutionData) -> HilbertSeries:
    """Alternating sum of the twists over the weight denominator."""
    s = res.socle
    num = T_RING.one() - _t(s)
    for d in res.l1:
        num = num - _t(d) + _t(s - d)
    for d in res.l2:
        num = num + _t(d) - _t(s - d)
    return HilbertSeries(num, res.ambient_weights)


class HypersurfaceInvariants(NamedTuple):
    canonical_degree: int
    k_squared: Fraction
    series: HilbertSeries


def wps_hypersurface_invariants(degree: int, weights: Sequence[int]) -> HypersurfaceInvariants:
    """Adjunction data of a quasismooth hypersurface of the given degree."""
    weights = tuple(int(w) for w in weights)
    if any(w <= 0 for w in weights):
        raise InvalidInput("weights must be positive")
    total = sum(weights)
    if degree < total:
        raise InvalidInput("degree below the adjunction threshold")
    can = degree - total
    prod = 1
    for w in weights:
        prod *= w
    k2 = Fraction(degree * can * can, prod)
    series = HilbertSeries(T_RING.one() - _t(degree), weights)
    return HypersurfaceInvariants(can, k2, series)


def footnote_series() -> HilbertSeries:
    """(1 - t^10) / ((1-t)^2 (1-t^2)(1-t^5))."""
    return HilbertSeries(T_RING.one() - _t(10), (1, 1, 2, 5))


# ---------------------------------------------------------------------------
# the degree-51 model in P(1, 3, 17, 25)


S51_RING = PolyRing.of(*WPS_WEIGHTS)


def generic_p50(seed: int) -> ExactPolynomial:
    """Seeded general form of weighted degree 50 (every monomial present)."""
    monos = weighted_monomials(50, names=S51_RING.variables, weights=WPS_WEIGHTS)
    return seeded_form(S51_RING, monos, seed, "P50")


def s51_equation(theta, tau, seed: int) -> ExactPolynomial:
    """e*P50 + tau*t1^17 + theta*t1^3*s0*ze + s0^3, weighted degree 51."""
    R = S51_RING
    p = generic_p50(seed)
    e, t1, s0, ze = (R.var(v) for v in ("e", "t1", "s0", "ze"))
    return e * p + t1 ** 17 * Fraction(tau) + t1 ** 3 * s0 * ze * Fraction(theta) + s0 ** 3


def s51_point_analysis(point: str, theta, tau, seed: int, order: int):
    """Local type of the degree-51 model at a coordinate point of the ambient.

    point is one of "e", "t1", "s0", "ze".  Returns a classification object,
    or the string "absent" when the surface misses the point.
    """
    local = [v for v in S51_RING.variables if v != point]
    return chart_germ({"s51": s51_equation(theta, tau, seed)}, WPS_WEIGHTS, point,
                      (), "s51", local, order)


# ---------------------------------------------------------------------------
# the two-equation family in P(1, 1, 2, 3, 5)


FAMILY_WEIGHTS = {"x0": 1, "x1": 1, "y": 2, "u": 3, "z": 5}
FAMILY_RING = PolyRing.of(*FAMILY_WEIGHTS)


def generic_f10(seed: int) -> ExactPolynomial:
    """Seeded general degree-10 form in (x0, x1, y, u), without the pure
    y-power."""
    monos = [m for m in weighted_monomials(10, names=("x0", "x1", "y", "u"),
                                           weights=FAMILY_WEIGHTS)
             if m != {"y": 5}]
    return seeded_form(FAMILY_RING, monos, seed, "f10")


class TwoSingularityFamily(NamedTuple):
    """x0 y = x1^3 + mu u  and  z^2 = nu y^5 + f10(x0, x1, y, u)."""

    eq1: ExactPolynomial
    eq2: ExactPolynomial

    @staticmethod
    def of(mu, nu, seed: int) -> "TwoSingularityFamily":
        R = FAMILY_RING
        eq1 = R.var("x0") * R.var("y") - R.var("x1") ** 3 - R.var("u") * mu
        eq2 = R.var("z") ** 2 - R.var("y") ** 5 * nu - generic_f10(seed)
        return TwoSingularityFamily(eq1, eq2)

    def germ_at_y(self, order: int):
        """Eliminate x0 with the first equation on the y-chart; classify the
        second in 1/2(1,1,1) on (x1, u, z)."""
        return chart_germ({"eq1": self.eq1, "eq2": self.eq2}, FAMILY_WEIGHTS, "y",
                          (("eq1", "x0"),), "eq2", ("x1", "u", "z"), order)

    def germ_at_u(self, order: int):
        """Eliminate x1 with the second equation on the u-chart; classify the
        first in 1/3(1,2,2) on (x0, y, z)."""
        return chart_germ({"eq1": self.eq1, "eq2": self.eq2}, FAMILY_WEIGHTS, "u",
                          (("eq2", "x1"),), "eq1", ("x0", "y", "z"), order)
