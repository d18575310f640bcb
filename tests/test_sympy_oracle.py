"""The poly kernel and the series layer against SymPy, an independent system.

Every other oracle in these tests shares the package's term dicts; SymPy's
``Poly`` over QQ and its expression trees share none of it.  Truncation at
the order is applied here to SymPy's full results.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from isurf.poly import PolyRing, multiply_terms
from isurf.series import TruncatedSeries

R3 = PolyRing.of("x", "y", "z")
GENS = sympy.symbols("x y z")
LAURENT = PolyRing.of("x", "y", "lam", invertible=("lam",))
LAURENT_GENS = sympy.symbols("x y lam")


def to_sympy(p) -> sympy.Poly:
    """An ExactPolynomial without negative exponents as a sympy.Poly over QQ."""
    gens = sympy.symbols(p.ring.variables)
    rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(rep, *gens, domain=sympy.QQ)


def from_sympy(poly: sympy.Poly, ring: PolyRing):
    """A sympy.Poly over QQ, on the ring's variables, as an ExactPolynomial."""
    return ring.from_terms({e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()})


def to_expr(p) -> sympy.Expr:
    """Any ExactPolynomial, negative exponents included, as a SymPy expression."""
    gens = sympy.symbols(p.ring.variables)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
                       for exps, c in p.terms.items()))


def truncated(poly: sympy.Poly, order: int | None) -> sympy.Poly:
    if order is None:
        return poly
    rep = {e: c for e, c in poly.as_dict().items() if sum(e) < order}
    return sympy.Poly.from_dict(rep, *poly.gens, domain=sympy.QQ)


def test_conversions_round_trip():
    p = R3.parse("1/2*x^2*y - 3*z + 7/3")
    assert from_sympy(to_sympy(p), R3) == p
    assert to_sympy(p) == sympy.Poly(sympy.Rational(1, 2) * GENS[0] ** 2 * GENS[1]
                                     - 3 * GENS[2] + sympy.Rational(7, 3), *GENS)
    assert from_sympy(to_sympy(R3.zero()), R3) == R3.zero()
    laurent = LAURENT.parse("x*lam^-2 - 1/4*lam")
    lam = LAURENT_GENS[2]
    assert sympy.expand(to_expr(laurent) - (LAURENT_GENS[0] / lam ** 2 - lam / 4)) == 0


_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _polys(ring=R3, max_terms=5, max_exp=3, min_exp=0):
    exps = st.tuples(*[st.integers(min_exp if v in ring.invertible else 0, max_exp)
                       for v in ring.variables])
    return st.dictionaries(exps, _COEFFS, max_size=max_terms).map(ring.from_terms)


def _monomials(ring=R3, max_exp=2):
    """One nonzero term of degree >= 1."""
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars).filter(any)
    return st.builds(lambda e, c: ring.from_terms({e: c}), exps, _COEFFS.filter(bool))


def _orders():
    return st.none() | st.integers(1, 9)


@settings(max_examples=30, deadline=None)
@given(_polys(), _polys(), _orders())
def test_products_equal_sympy(a, b, order):
    expected = truncated(to_sympy(a) * to_sympy(b), order)
    assert R3.from_terms(multiply_terms(a.terms, b.terms, order)) == from_sympy(expected, R3)
    if order is not None:
        product = TruncatedSeries(a, order) * TruncatedSeries(b, order)
        assert product.poly == from_sympy(expected, R3)


@settings(max_examples=30, deadline=None)
@given(_polys(max_terms=4, max_exp=2), st.integers(0, 5))
def test_powers_equal_sympy(p, n):
    assert p ** n == from_sympy(to_sympy(p) ** n, R3)


@settings(max_examples=30, deadline=None)
@given(_COEFFS.filter(bool), st.integers(-3, 3), st.integers(-4, 4))
def test_monomial_powers_with_negative_exponents_equal_sympy(c, k, n):
    m = LAURENT.monomial({"lam": k}, c)
    assert sympy.expand(to_expr(m ** n) - to_expr(m) ** n) == 0


def _substituted(f, images) -> sympy.Expr:
    gens = sympy.symbols(f.ring.variables)
    return sympy.expand(to_expr(f).xreplace({g: to_expr(images[str(g)])
                                             for g in gens if str(g) in images}))


@settings(max_examples=25, deadline=None)
@given(_polys(), _monomials(), _monomials(), _polys(max_terms=3, max_exp=2), _orders())
def test_substitutions_equal_sympy(f, gx, gy, gz, order):
    # monomial images fold into the seed, the z image forms products
    gz = gz - gz.constant_term()
    images = {"x": gx, "y": gy, "z": gz}
    exact = sympy.Poly(_substituted(f, images), *GENS, domain=sympy.QQ)
    assert f.substitute(images) == from_sympy(exact, R3)
    if order is not None:
        series = TruncatedSeries(f, order)
        expected = sympy.Poly(_substituted(series.poly, images), *GENS, domain=sympy.QQ)
        assert series.substitute(images).poly == from_sympy(truncated(expected, order), R3)


@settings(max_examples=25, deadline=None)
@given(_polys(LAURENT, max_terms=4, max_exp=2, min_exp=-3), _COEFFS.filter(bool),
       st.integers(-2, 2), _polys(LAURENT, max_terms=3, max_exp=2, min_exp=-1))
def test_laurent_substitutions_equal_sympy(f, c, k, x_image):
    # lam^-j is raised by the monomial inverse of c*lam^k, coefficient and all
    images = {"lam": LAURENT.monomial({"lam": k}, c), "x": x_image}
    assert sympy.expand(to_expr(f.substitute(images)) - _substituted(f, images)) == 0
