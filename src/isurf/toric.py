"""Cox presentations, toric blowups, multidegrees, the relative-sextic
normal form of the elliptic surface, and the collapse onto weighted
projective space."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import load_fixture
from .errors import CertificateFailed, InvalidInput
from .lattice import IntegerMatrix, gale_rays as _gale_rays
from .poly import Coeff, ExactPolynomial, PolyRing, exact_quotient


class CoxPresentation:
    """Variables and grading rows."""

    __slots__ = ("ring", "weights")

    def __init__(self, ring: PolyRing, weights: IntegerMatrix):
        if weights.ncols != ring.nvars:
            raise InvalidInput("one weight column per variable required")
        if weights.rank() != weights.nrows:
            raise InvalidInput("weight matrix must have full row rank")
        self.ring, self.weights = ring, weights

    @staticmethod
    def of(variables: Sequence[str], weights: Sequence[Sequence[int]]) -> "CoxPresentation":
        return CoxPresentation(PolyRing.of(*variables), IntegerMatrix(weights))


def multidegree(f: ExactPolynomial, weights: IntegerMatrix) -> tuple[int, ...]:
    """Common degree vector of all terms of f under the grading rows;
    NotHomogeneous (from ``weighted_degree``) when the terms differ."""
    if f.is_zero():
        raise InvalidInput("the zero polynomial has no multidegree")
    return tuple(f.weighted_degree(dict(zip(f.ring.variables, row))) for row in weights.rows)


def gale_rays(cox: CoxPresentation) -> dict[str, tuple[int, ...]]:
    """Primitive ray generators, one per variable (see lattice.gale_rays)."""
    rays = _gale_rays(cox.weights)
    return dict(zip(cox.ring.variables, rays))


def toric_blowup(cox: CoxPresentation, new_var: str, new_row: Sequence[int]) -> CoxPresentation:
    """Extend a presentation by one variable and one grading row.

    The new row lists nonnegative multiplicities on the old variables (the
    centre of the blowup) and -1 on the new variable, encoding the ray
    relation v_new = sum(multiplicity_i * v_i).
    """
    new_row = tuple(int(x) for x in new_row)
    if len(new_row) != cox.ring.nvars + 1:
        raise InvalidInput("row length must cover the old variables plus the new one")
    if new_row[-1] != -1:
        raise InvalidInput("the new variable's entry must be -1")
    old_part = new_row[:-1]
    if any(x < 0 for x in old_part) or not any(old_part):
        raise InvalidInput("centre multiplicities must be nonnegative and not all zero")
    variables = cox.ring.variables + (new_var,)
    rows = [tuple(r) + (0,) for r in cox.weights.rows] + [new_row]
    return CoxPresentation.of(variables, rows)


def blowup_transform(f: ExactPolynomial, substitution: Mapping[str, ExactPolynomial],
                     exceptional: ExactPolynomial) -> ExactPolynomial:
    """Strict transform: pull back along the substitution, divide exactly."""
    target = exceptional.ring
    pullback = f.substitute(substitution, ring=target)
    return pullback.exact_divide(exceptional)


# ---------------------------------------------------------------------------
# bundled presentations (shipped as fixture data)


_TORIC = load_fixture("toric.json")

F_PRESENTATION = CoxPresentation.of(_TORIC["base"]["vars"], _TORIC["base"]["weights"])
FTILDE_PRESENTATION = CoxPresentation.of(_TORIC["double_blowup"]["vars"],
                                         _TORIC["double_blowup"]["weights"])
F_VARS = F_PRESENTATION.ring.variables
FTILDE_VARS = FTILDE_PRESENTATION.ring.variables

# the same grading after the unimodular change that sends s1, t0, c, e to the
# standard basis; under it the last row reads off weighted-projective degrees
SHIFTED_WEIGHTS = IntegerMatrix(_TORIC["shifted_weights"])

WPS_WEIGHTS = {"e": 1, "t1": 3, "s0": 17, "ze": 25}


def wps_collapse(f: ExactPolynomial) -> ExactPolynomial:
    """Contract the three exceptional directions: set s1 = t0 = c = 1.

    The image lives in the weighted ring on (e, t1, s0, ze) with weights
    (1, 3, 17, 25); any further variables of f (parameters) are carried
    along unchanged.
    """
    dropped = {"s1", "t0", "c"}
    keep = [v for v in f.ring.variables if v not in dropped]
    target = PolyRing(tuple(keep), f.ring.invertible & frozenset(keep))
    return f.substitute(dict.fromkeys(dropped, 1), ring=target)


# ---------------------------------------------------------------------------
# the elliptic-surface normal form


class WeierstrassModel:
    """Relative sextic z^2 = s0^3 + j s0^2 s1^2 + k s0 s1^4 + l s1^6.

    ``j``, ``k``, ``l`` are homogeneous in (t0, t1) of degrees 6, 12, 18.
    After normalisation the model is stored through k1 (degree 11), l1
    (degree 16) and the parameters eps, theta, tau; ``theta`` is the
    coefficient in the displayed form (ze - theta t1^3 s0 s1) ze = rhs.
    """

    __slots__ = ("ring", "j", "k", "l")

    def __init__(self, ring: PolyRing, j: ExactPolynomial, k: ExactPolynomial,
                 l: ExactPolynomial):
        for poly, deg in ((j, 6), (k, 12), (l, 18)):
            if not poly.is_zero():
                d = poly.weighted_degree({"t0": 1, "t1": 1})
                if d != deg:
                    raise InvalidInput(f"coefficient degree {d}, expected {deg}")
        self.ring, self.j, self.k, self.l = ring, j, k, l

    def equation(self) -> ExactPolynomial:
        """rhs - lhs of the double cover equation, in the five Cox variables."""
        R = self.ring
        s0, s1, ze = R.var("s0"), R.var("s1"), R.var("ze")
        j, k, l = (c.substitute({}, R) for c in (self.j, self.k, self.l))
        rhs = s0 ** 3 + j * s0 ** 2 * s1 ** 2 + k * s0 * s1 ** 4 + l * s1 ** 6
        return rhs - ze ** 2


def discriminant(k: ExactPolynomial, l: ExactPolynomial) -> ExactPolynomial:
    """4 k^3 + 27 l^2, homogeneous of degree 36 when k, l have degrees 12, 18."""
    return k ** 3 * 4 + l ** 2 * 27


def fiber_type(theta, tau) -> str:
    """Special-fiber type from the vanishing pattern of the two parameters.

    For I2 and III the surface itself is singular, and the type is that of
    the fiber after resolving its A1 point.
    """
    if theta != 0:
        return "I1" if tau != 0 else "I2"
    return "II" if tau != 0 else "III"


def displayed_sextic(ring: PolyRing, k1: ExactPolynomial, l1: ExactPolynomial,
                     theta, tau) -> ExactPolynomial:
    """rhs - lhs of the displayed relative sextic over ``ring``,

      (e ze - theta t1^3 s0 s1) ze
          = c s0^3 + c e t0 k1 s0 s1^4 + t0 (c^2 e^3 t0 l1 + tau t1^17) s1^6,

    the binary forms k1, l1 in (t0, t1) read at (c^2 e^3 t0, t1).  The
    exceptional variables c and e of the two blowups are 1 when ``ring`` lacks
    them, which gives the normal form before blowing up.
    """
    t0, t1, s0, s1, ze = (ring.var(v) for v in ("t0", "t1", "s0", "s1", "ze"))
    c, e = (ring.var(v) if v in ring.variables else ring.one() for v in ("c", "e"))
    arg = c ** 2 * e ** 3 * t0
    k1, l1 = (f.substitute({"t0": arg}, ring) for f in (k1, l1))
    rhs = c * s0 ** 3 + c * e * t0 * k1 * s0 * s1 ** 4 \
        + t0 * (arg * l1 + tau * t1 ** 17) * s1 ** 6
    return rhs - (e * ze - theta * t1 ** 3 * s0 * s1) * ze


class NormalizedModel(NamedTuple):
    """The displayed sextic with c = e = 1, theta in ``ring`` (``displayed_sextic``)."""

    ring: PolyRing
    k1: ExactPolynomial
    l1: ExactPolynomial
    eps: Coeff
    theta: ExactPolynomial
    tau: Coeff

    def equation(self) -> ExactPolynomial:
        return displayed_sextic(self.ring, self.k1, self.l1, self.theta, self.tau)


def weierstrass_normalize(model: WeierstrassModel) -> NormalizedModel:
    """Absorb j, centre the singular fiber over t0 = 0, shift the cover variable.

    Steps, each an exact substitution into the running equation:
      1. s0 -> s0 - (1/3) j s1^2 removes the s0^2 term;
      2. with alpha, beta the pure-t1 coefficients of k, l, solve
         alpha = -3 eps^2, beta = 2 eps^3 and shift s0 -> s0 + eps t1^6 s1^2,
         making the s0-coefficient divisible by t0;
      3. shift ze by half the remaining cross term: the displayed parameter
         theta satisfies theta^2 = 12 eps (a formal square root when 12 eps
         is not a rational square, carried as a parameter with the rewrite
         rule theta^2 -> 12 eps).
    """
    R = model.ring
    t_ring = model.k.ring
    s0, s1 = R.var("s0"), R.var("s1")
    if model.equation().coefficient(R.exponents({"s0": 3})) == 0:
        raise InvalidInput("the s0^3 coefficient must be nonzero")
    # step 1: remove the s0^2 coefficient
    shift1 = {"s0": s0 - model.j.substitute({}, R) * s1 ** 2 * Fraction(1, 3)}
    eq = model.equation().substitute(shift1)
    k = _coefficient_of(eq, {"s0": 1, "s1": 4}, t_ring)
    l = _coefficient_of(eq, {"s0": 0, "s1": 6}, t_ring)
    if not _coefficient_of(eq, {"s0": 2, "s1": 2}, t_ring).is_zero():
        raise CertificateFailed("the s0 shift left an s0^2 s1^2 term")
    # step 2: centre the singular fiber over t0 = 0
    alpha = k.coefficient(t_ring.exponents({"t1": 12}))
    beta = l.coefficient(t_ring.exponents({"t1": 18}))
    eps = exact_quotient(-3 * beta, 2 * alpha) if alpha else 0
    if alpha != -3 * eps ** 2 or beta != 2 * eps ** 3:
        raise InvalidInput(
            "fiber over t0=0 is not singular: no eps with alpha=-3eps^2, beta=2eps^3")
    shift2 = {"s0": s0 + R.var("t1") ** 6 * s1 ** 2 * eps}
    eq = eq.substitute(shift2)
    # step 3: shift the cover variable; displayed parameter theta^2 = 12 eps
    twelve_eps = 12 * eps
    root = _rational_sqrt(twelve_eps)
    if root is not None:
        ext = R
        theta = R.constant(root)
        formal = False
    else:
        ext = R.extend("theta")
        theta = ext.var("theta")
        eq = eq.substitute({}, ext)
        formal = True
    ze = ext.var("ze")
    half = theta * ext.var("t1") ** 3 * ext.var("s0") * ext.var("s1") * Fraction(1, 2)
    eq = eq.substitute({"ze": ze - half})
    if formal:
        eq = reduce_square(eq, "theta", ext.constant(twelve_eps))
    # read off k1, l1, tau from the final equation
    kk = _coefficient_of(eq, {"s0": 1, "s1": 4}, t_ring)
    ll = _coefficient_of(eq, {"s0": 0, "s1": 6}, t_ring)
    k1 = kk.exact_divide(t_ring.var("t0"))
    tau = ll.coefficient(t_ring.exponents({"t0": 1, "t1": 17}))
    l1 = (ll - t_ring.monomial({"t0": 1, "t1": 17}, tau)).exact_divide(t_ring.var("t0") ** 2)
    out = NormalizedModel(ext, k1, l1, eps, theta, tau)
    # exact verification: the transformed equation is the displayed normal form
    check = out.equation()
    if formal:
        check = reduce_square(check, "theta", ext.constant(twelve_eps))
    if eq != check:
        raise CertificateFailed("normalisation did not reach the displayed form")
    return out


def reduce_square(p: ExactPolynomial, name: str, square_value: ExactPolynomial) -> ExactPolynomial:
    """Apply the rewrite rule name^2 -> square_value exhaustively."""
    x = p.ring.var(name)
    return sum((c * x ** (e % 2) * square_value ** (e // 2)
                for e, c in p.coefficients_in(name).items()), p.ring.zero())


def _rational_sqrt(x: Coeff) -> Fraction | None:
    if x < 0:
        return None
    from math import isqrt

    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _coefficient_of(eq: ExactPolynomial, fiber_powers: Mapping[str, int],
                    t_ring: PolyRing) -> ExactPolynomial:
    """Coefficient of the exact (s0, s1, ze)-monomial given by fiber_powers,
    moved into ``t_ring``."""
    partial = eq
    for name in ("s0", "s1", "ze"):
        partial = partial.coefficients_in(name).get(fiber_powers.get(name, 0), eq.ring.zero())
    for name in eq.ring.variables:
        if name not in t_ring.variables and partial.degree_in(name) != 0:
            raise InvalidInput(f"coefficient unexpectedly involves {name}")
    return partial.substitute({}, t_ring)
