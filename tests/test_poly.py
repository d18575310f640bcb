import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isurf import poly, wps
from isurf.errors import InvalidInput, NotDivisible, ParseError
from isurf.poly import ExactPolynomial, PolyRing, multiply_terms
from isurf.series import TruncatedSeries
from isurf.tsing import TSingularity

from oracles import evaluate, schoolbook, termwise_substitute

R3 = PolyRing.of("x0", "x1", "y")


def test_parse_two_terms():
    p = R3.parse("x0*y - x1^3")
    assert len(p) == 2
    assert p.coefficient((1, 0, 1)) == 1
    assert p.coefficient((0, 3, 0)) == -1


def test_parse_with_parameter():
    ring = PolyRing.of("z", "y", "nu")
    p = ring.parse("z^2 - nu*y^5")
    assert len(p) == 2
    assert p.coefficient((0, 5, 1)) == -1


def test_parse_cancellation_stores_nothing():
    p = R3.parse("x0*y - x1^3 - (x0*y - x1^3)")
    assert p.is_zero() and len(p.terms) == 0


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        R3.parse("x0 + + y")
    assert err.value.position == 5
    with pytest.raises(ParseError, match="undeclared identifier 'q'") as err:
        R3.parse("x0 + q")
    assert err.value.position == 5


def test_parse_rational_coefficients_and_parens():
    p = R3.parse("3/5*x0 - (x1 - 2/7)*y")
    q = R3.parse(str(p))
    assert p == q


def test_canonical_form_is_graded_lex():
    p = R3.parse("x0 + y^2 + x1^3")
    assert str(p) == "x1^3 + y^2 + x0"


def _random_poly(rng, ring, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in ring.variables)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return ring.from_terms(terms)


def test_ring_laws_on_many_random_triples():
    rng = random.Random(7)
    for _ in range(120):
        f, g, h = (_random_poly(rng, R3) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)


def test_exact_divide_examples():
    ring = PolyRing.of("c", "s0", "t0")
    f = ring.parse("c^2*s0^3 + c^2*t0")
    assert f.exact_divide(ring.parse("c^2")) == ring.parse("s0^3 + t0")
    with pytest.raises(NotDivisible):
        R3.parse("x0*y - x1^3").exact_divide(R3.parse("x1"))


def test_exact_divide_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        f, g = _random_poly(rng, R3), _random_poly(rng, R3)
        if g.is_zero():
            continue
        assert (f * g).exact_divide(g) == f


def test_exact_divide_multiterm_divisor():
    f = R3.parse("x0^2 - y^2")
    g = R3.parse("x0 - y")
    assert f.exact_divide(g) == R3.parse("x0 + y")


def test_substitute_shift():
    ring = PolyRing.of("x")
    f = ring.parse("x^2")
    shifted = f.substitute({"x": ring.parse("x + 1")})
    assert shifted == ring.parse("x^2 + 2*x + 1")


def test_substitute_into_larger_ring():
    big = PolyRing.of("x0", "x1", "y", "t")
    f = R3.parse("x0*y - x1^3")
    g = f.substitute({"x0": big.var("t") ** 2}, ring=big)
    assert g == big.parse("t^2*y - x1^3")


def test_the_empty_assignment_moves_a_polynomial_into_another_ring():
    f = R3.parse("x0*y - 1/2*x1^3 + 3")
    big = PolyRing.of("t", "y", "x1", "x0")
    assert f.substitute({}, big) == big.parse("x0*y - 1/2*x1^3 + 3")
    # a variable missing from the target may be left out while it does not occur
    small = PolyRing.of("y", "x1")
    assert R3.parse("x1*y^2 - 5").substitute({}, small) == small.parse("x1*y^2 - 5")
    with pytest.raises(ValueError, match="x0 is neither assigned nor a variable"):
        f.substitute({}, small)
    # a variable that is assigned need not be in the target
    assert f.substitute({"x0": 0}, small) == small.parse("-1/2*x1^3 + 3")


def test_an_unassigned_variable_is_neither_built_nor_packed(monkeypatch):
    ring = PolyRing.of("x", "y", "lam").with_invertible("lam")
    f = ring.parse("x^2*y - 3*y*lam^-1 + 1/2*lam^2")
    image = ring.parse("2*x*lam")
    image.packed_form()
    big = ring.extend("t")
    expected = (f.substitute({"x": image}).substitute({}, big),
                big.parse("x^2*y - 3*y*lam^-1 + 1/2*lam^2"))
    calls = []
    for owner, name in ((PolyRing, "var"), (poly._Keys, "packed")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, method=method, name=name:
                            calls.append(name) or method(*args))
    got = (f.substitute({"x": image}).substitute({}, big), f.substitute({}, big))
    assert got == expected and calls == []
    assert got[0] == big.parse("4*x^2*y*lam^2 - 3*y*lam^-1 + 1/2*lam^2")


def test_monomial_with_zero_coefficient_is_zero():
    zero = R3.monomial({"x0": 1, "y": 2}, 0)
    assert zero.is_zero() and zero == R3.zero() and str(zero) == "0"
    assert R3.monomial({"x0": 1, "y": 2}, Fraction(-1, 2)) == R3.parse("-1/2*x0*y^2")
    assert R3.exponents({"y": 3, "x0": 1}) == (1, 0, 3)


def test_laurent_exponents_require_declaration():
    ring = PolyRing.of("x", "lam").with_invertible("lam")
    p = ring.parse("x*lam^-2")
    assert p.coefficient((1, -2)) == 1
    with pytest.raises(ParseError):
        ring.parse("x^-1")
    with pytest.raises(InvalidInput, match="negative exponent on non-invertible variable x"):
        ring.from_terms({(-1, 0): Fraction(1)})


def test_monomial_inverse_and_clearing():
    ring = PolyRing.of("x", "lam").with_invertible("lam")
    m = ring.parse("3*lam^2")
    assert m.monomial_inverse() * m == ring.one()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          st.fractions(min_value=-5, max_value=5)), max_size=6))
def test_parse_serialize_roundtrip(term_list):
    ring = PolyRing.of("a", "b")
    p = ring.from_terms({exps: c for exps, c in term_list})
    assert ring.parse(str(p)) == p


def test_weighted_degree_and_homogeneity():
    p = R3.parse("x0*y - x1^3")
    assert p.weighted_degree({"x0": 1, "x1": 1, "y": 2}) == 3
    from isurf.errors import NotHomogeneous
    with pytest.raises(NotHomogeneous) as err:
        R3.parse("x0 + y").weighted_degree({"x0": 1, "x1": 1, "y": 2})
    assert len(err.value.offending) == 2


def test_derivative():
    p = R3.parse("x0^3*y + x1")
    assert p.derivative("x0") == R3.parse("3*x0^2*y")
    assert p.derivative("y") == R3.parse("x0^3")


def test_negative_exponents_are_checked_where_terms_come_in():
    ring = PolyRing.of("x", "lam").with_invertible("lam")
    with pytest.raises(ValueError):
        ring.from_terms({(-1, 0): 1})
    with pytest.raises(ValueError):
        ring.parse("2*x").monomial_inverse()
    with pytest.raises(ValueError):
        ring.parse("x*lam^-1").substitute({}, PolyRing.of("x", "lam"))
    # a power onto an invertible variable of the target is fine
    assert ring.parse("x*lam^-1").substitute({}, ring.extend("t")).coefficient((1, -1, 0)) == 1


def test_substitute_raises_a_negative_power_by_the_monomial_inverse():
    ring = PolyRing.of("x", "t").with_invertible("t")
    g = ring.parse("x^2*t^-3 + x*t^2")
    got = g.substitute({"x": ring.parse("x + x*t^-1"), "t": ring.parse("2*t")})
    assert got == ring.parse("1/8*x^2*t^-3 + 1/4*x^2*t^-4 + 1/8*x^2*t^-5 + 4*x*t^2 + 4*x*t")
    with pytest.raises(NotDivisible):
        g.substitute({"t": ring.parse("t + 1")})


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", None])
def test_floats_and_other_non_exact_coefficients_are_rejected(bad):
    ring = PolyRing.of("x", "y")
    p = ring.parse("x + y")
    with pytest.raises(InvalidInput):
        ring.constant(bad)
    with pytest.raises(InvalidInput):
        ring.from_terms({(1, 0): bad})
    with pytest.raises(InvalidInput):
        p * bad
    with pytest.raises(InvalidInput):
        p + bad
    with pytest.raises(InvalidInput):
        p.substitute({"x": bad})


@pytest.mark.parametrize("build, message", [
    (lambda: PolyRing(("x", "x"), frozenset()), r"duplicate variable names in \('x', 'x'\)"),
    (lambda: PolyRing(("x",), frozenset({"y"})), r"invertible names not declared: \['y'\]"),
    (lambda: R3.var("x0") + PolyRing.of("x0").var("x0"), "ring mismatch"),
    (lambda: R3.var("x0").substitute({"x0": PolyRing.of("x0").var("x0")}),
     "image of x0 lies in the wrong ring"),
], ids=["duplicate-names", "undeclared-invertible", "ring-mismatch", "image-ring"])
def test_bad_input_raises_invalid_input(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


def test_int_and_fraction_coefficients_stay_exact():
    ring = PolyRing.of("x", "y")
    p = ring.parse("x + y")
    assert ring.constant(Fraction(1, 10)) == ring.parse("1/10")
    assert p * Fraction(1, 2) == ring.parse("1/2*x + 1/2*y")
    assert p.substitute({"x": 3}) == ring.parse("y + 3")
    assert evaluate(p, {"x": Fraction(1, 3), "y": 2}) == Fraction(7, 3)


_SMALL_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               st.fractions(min_value=-4, max_value=4, max_denominator=5),
                               max_size=4)


@settings(max_examples=40, deadline=None)
@given(_SMALL_TERMS, st.integers(0, 5))
def test_power_equals_repeated_schoolbook_product(terms, n):
    ring = PolyRing.of("a", "b")
    p = ring.from_terms(terms)
    assert p ** n == functools.reduce(schoolbook, [p] * n, ring.one())


def _count_products(monkeypatch) -> list:
    """The term pairs each ``product_terms`` call forms, one entry a call."""
    products = []
    kernel = poly.product_terms

    def counted(a, b, limit, out=None):
        products.append(sum(kb < limit - ka for ka in a for kb, _ in b))
        return kernel(a, b, limit, out)

    monkeypatch.setattr(poly, "product_terms", counted)
    return products


@pytest.mark.parametrize("n", range(1, 12))
def test_power_makes_no_product_it_does_not_use(monkeypatch, n):
    p = R3.parse("x0 + 2*x1 - y + 1")
    expected = functools.reduce(operator.mul, [p] * n)
    products = _count_products(monkeypatch)
    assert p ** n == expected
    if n == 1:
        assert products == [] and p ** 1 is p
    else:
        assert 0 < len(products) <= n.bit_length() - 1 + bin(n).count("1")


def test_one_term_images_make_no_product(monkeypatch):
    ring = PolyRing.of("x", "lam").with_invertible("lam")
    f = ring.parse("x^2*lam^-2 + 3*x*lam - 1/5*lam^-1 + 7")
    half_x, double_lam = ring.parse("1/2*x"), ring.parse("2*lam")
    # lam -> 2*lam: the inverse 1/2*lam^-1 keeps its 2, and so does x -> x/2
    both = ring.parse("1/16*x^2*lam^-2 + 3*x*lam - 1/10*lam^-1 + 7")
    lam_only = ring.parse("1/4*x^2*lam^-2 + 6*x*lam - 1/10*lam^-1 + 7")
    series = TruncatedSeries(R3.parse("x0^3*y - 2*x1*y^2 + x0 + 5"), 5)
    images = {"x0": R3.parse("-3/4*x1"), "y": R3.parse("x0*x1"), "x1": R3.zero()}
    truncated = R3.parse("-3/4*x1 + 5")
    products = _count_products(monkeypatch)
    assert f.substitute({"x": half_x, "lam": double_lam}) == both
    assert f.substitute({"lam": double_lam}) == lam_only
    assert series.substitute(images).poly == truncated
    assert products == []


def test_parsing_makes_no_product(monkeypatch):
    # numbers and powers go straight into the term; only a parenthesised
    # factor reaches the kernel, once per factor, and folds there unpacked
    ring = PolyRing.of("x", "lam").with_invertible("lam")
    products = _count_products(monkeypatch)
    calls = []
    kernel = poly.multiply_terms
    monkeypatch.setattr(poly, "multiply_terms", lambda *args: calls.append(1) or kernel(*args))
    assert ring.parse("1/16*x^2*lam^-2") == ring.monomial({"x": 2, "lam": -2}, Fraction(1, 16))
    f = ring.parse("x^2*lam^-2 + 3*x*lam - 1/5*lam^-1 + 7 - 2*x*3/4*lam*x")
    assert len(f) == 5 and f.coefficient((0, -1)) == Fraction(-1, 5)
    assert f.coefficient((2, 1)) == Fraction(-3, 2)
    assert calls == []
    assert ring.parse("2*x*(x - lam)*lam^-1*(x + 1)") == ring.parse(
        "2*x^3*lam^-1 + 2*x^2*lam^-1 - 2*x^2 - 2*x")
    assert len(calls) == 2 and products == [4]


def test_a_germ_makes_a_bounded_number_of_products(monkeypatch):
    # 92 products and 796 term pairs now that every chord sweep runs at the
    # germ's order: it is decided at order 7 after one attempt at 4, and at
    # those orders the extra products of full-order sweeps cost less than the
    # degree-stepped schedule's bookkeeping (80 and 621 with that schedule,
    # 421 and 12,479 when solved at the full order 12, 436 products before
    # images were trimmed at the order, 2,750 before one-term images folded
    # into the seed, 23,510 pairs with every chord sweep at order 12); 16
    # packs, 59 while unassigned variables were built and packed on every
    # substitution
    products = _count_products(monkeypatch)
    packs = []
    packed = poly._Keys.packed
    monkeypatch.setattr(poly._Keys, "packed", lambda *args: packs.append(1) or packed(*args))
    germ = wps.TwoSingularityFamily.of(0, 1, 0).germ_at_u(12)
    assert germ.same_singularity(TSingularity(2, 3, 1))
    assert len(products) <= 100
    assert sum(products) <= 880
    assert len(packs) <= 20


# -- int coefficients until a division ------------------------------------------

_INT_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.integers(-6, 6), max_size=5)


def _as_fractions(p):
    """The same polynomial with every coefficient a Fraction."""
    return ExactPolynomial(p.ring, {e: Fraction(c) for e, c in p.terms.items()})


def _all_int(p):
    return all(type(c) is int for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(_INT_TERMS, _INT_TERMS, st.integers(0, 4))
def test_int_products_and_powers_equal_the_fraction_oracle(a_terms, b_terms, n):
    ring = PolyRing.of("a", "b")
    a, b = ring.from_terms(a_terms), ring.from_terms(b_terms)
    fa, fb = _as_fractions(a), _as_fractions(b)
    assert a * b == schoolbook(fa, fb) and _all_int(a * b)
    assert a ** n == functools.reduce(schoolbook, [fa] * n, ring.one()) and _all_int(a ** n)


def test_integral_quotients_are_stored_as_int():
    ring = PolyRing.of("x", "lam").with_invertible("lam")
    assert _all_int(ring.parse("4/2*x + 3"))
    assert _all_int(ring.parse("4*x^2 - 6*x").exact_divide(ring.parse("2*x")))
    assert _all_int(ring.parse("-lam^2").monomial_inverse())
    half = ring.parse("2*lam").monomial_inverse()
    assert half.coefficient((0, -1)) == Fraction(1, 2)
    halved = ring.parse("4*x*lam - 6") * Fraction(1, 2)
    assert halved == ring.parse("2*x*lam - 3") and _all_int(halved)
    plane = PolyRing.of("x", "y")
    square = TruncatedSeries(plane.parse("1/2*x + 1/2"), 4) * plane.parse("2*x - 2")
    assert square.poly == plane.parse("x^2 - 1") and _all_int(square.poly)
    assert poly.exact_quotient(6, 3) == 2 and type(poly.exact_quotient(6, 3)) is int
    assert poly.exact_quotient(Fraction(3, 2), Fraction(1, 2)) == 3
    assert poly.exact_quotient(1, 3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        poly.exact_quotient(1, 0)


def test_integral_sums_and_derivatives_are_stored_as_int():
    ring = PolyRing.of("x", "y")
    doubled = ring.parse("1/2*x") + ring.parse("1/2*x")
    assert doubled == ring.var("x") and type(doubled.coefficient((1, 0))) is int
    slope = ring.parse("3/2*x^2").derivative("x")
    assert slope == ring.parse("3*x") and type(slope.coefficient((1, 0))) is int


def test_the_pair_loop_multiplies_only_ints(monkeypatch):
    seen = []
    kernel = poly.product_terms

    def checked(a, b, limit, out=None):
        # packed keys and int numerators: of both factors, of the sum the
        # pairs add into, and the limit their keys are compared with
        pairs = [*a.items(), *b, *(out.items() if out is not None else ())]
        seen.extend([type(limit), *(type(x) for pair in pairs for x in pair)])
        return kernel(a, b, limit, out)

    monkeypatch.setattr(poly, "product_terms", checked)
    germ = wps.TwoSingularityFamily.of(0, 1, 0).germ_at_u(12)
    assert germ.same_singularity(TSingularity(2, 3, 1))
    ring = PolyRing.of("x", "lam").with_invertible("lam")
    f = ring.parse("x^3*lam^-2 - 2/3*x*lam + 5/2")
    images = {"x": ring.parse("1/2*x + 3/5*lam"), "lam": ring.parse("7/4*lam")}
    point = {"x": Fraction(2, 3), "lam": Fraction(-5, 2)}
    values = {name: evaluate(g, point) for name, g in images.items()}
    assert evaluate(f.substitute(images), point) == evaluate(f, values)
    assert seen and set(seen) == {int}


def test_bool_coefficient_is_an_int():
    ring = PolyRing.of("x")
    one = ring.constant(True)
    assert type(one.constant_term()) is int and one.constant_term() == 1
    assert str(one) == "1" and one == ring.one()
    assert str(ring.from_terms({(1,): True})) == "x"
    assert ring.constant(False).is_zero()


# -- packed exponent keys at their edges ------------------------------------------
#
# The kernel adds packed keys, so these draws push exponents out to the bound
# that keeps every key decodable, over Laurent rings of 1 to 14 variables,
# and compare with the tuple oracles of oracles.py.

BOUND = poly.EXPONENT_BOUND
_NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


@st.composite
def _laurent_rings(draw):
    """1 to 14 variables, any of them invertible."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 14)))]
    return PolyRing.of(*names).with_invertible(*draw(st.sets(st.sampled_from(names))))


def _near_bound(draw, ring, reach, max_terms, names=None, min_terms=0):
    """Terms in ``names`` (all variables by default) of absolute exponent sum at
    most ``reach``; most have one exponent pushed out to that sum, negative
    only on an invertible variable."""
    names = ring.variables if names is None else names
    terms = {}
    for _ in range(draw(st.integers(min_terms, max_terms))):
        exps = dict.fromkeys(ring.variables, 0)
        for name in names:
            exps[name] = draw(st.integers(-2 if name in ring.invertible else 0, 2))
        if sum(map(abs, exps.values())) > reach:
            exps = dict.fromkeys(ring.variables, 0)
        if draw(st.integers(0, 3)):
            far = draw(st.sampled_from(names))
            exps[far] = 0
            size = reach - sum(map(abs, exps.values()))
            negative = far in ring.invertible and draw(st.booleans())
            exps[far] = -size if negative else size
        terms[tuple(exps.values())] = draw(_NONZERO)
    return ring.from_terms(terms)


def _truncated(p, order):
    return p if order is None else p.ring.from_terms(
        {e: c for e, c in p.terms.items() if sum(e) < order})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_products_and_powers_equal_the_schoolbook_oracle(data):
    ring = data.draw(_laurent_rings())
    a, b = (_near_bound(data.draw, ring, (BOUND - 1) // 2, 4) for _ in range(2))
    expected = schoolbook(a, b)
    assert a * b == expected
    degrees = sorted({sum(e) for e in expected.terms}) or [0]
    order = data.draw(st.none() | st.builds(operator.add, st.sampled_from(degrees),
                                            st.integers(0, 1)))
    assert ring.from_terms(multiply_terms(a.terms, b.terms, order)) == _truncated(expected, order)
    n = data.draw(st.integers(0, 3))
    p = _near_bound(data.draw, ring, (BOUND - 1) // max(n, 1), 3)
    assert p ** n == functools.reduce(schoolbook, [p] * n, ring.one())
    if ring.invertible:
        m = _near_bound(data.draw, ring, (BOUND - 1) // 2, 1, sorted(ring.invertible), 1)
        assert m ** -2 == schoolbook(m.monomial_inverse(), m.monomial_inverse())
    keys = poly._keys(ring.nvars)
    numerators, d, reach = keys.packed(a.terms)
    assert keys.decoded(numerators, d) == a.terms and reach < BOUND


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_packed_substitution_equals_the_termwise_oracle(data):
    ring = data.draw(_laurent_rings())
    degree = data.draw(st.integers(1, 4))
    f = _near_bound(data.draw, ring, degree, 3)
    reach = (BOUND - 1) // degree  # so a term's product stays below the bound
    images = {}
    for name in data.draw(st.sets(st.sampled_from(ring.variables))):
        if name in ring.invertible:  # a Laurent monomial, c*lam^k among them
            images[name] = _near_bound(data.draw, ring, reach, 1, sorted(ring.invertible), 1)
        else:
            images[name] = _near_bound(data.draw, ring, reach, 3)
    assert f.substitute(images) == termwise_substitute(f, images)


def test_a_key_past_the_bound_raises_instead_of_wrapping():
    ring = PolyRing.of("x", "y", "lam").with_invertible("lam")
    x, y, lam = ring.var("x"), ring.var("y"), ring.var("lam")
    top = BOUND - 1

    def power(name, k):
        return ring.monomial({name: k})

    under = power("x", top - 1) + y
    assert under * (lam + 1) == schoolbook(under, lam + 1)
    half = power("x", BOUND // 2 - 1) + y
    assert half ** 2 == schoolbook(half, half)
    for past in (lambda: (power("x", top) + y) * (lam + 1),
                 lambda: (power("x", top) + lam) * (x + lam),
                 lambda: (power("lam", -top) + y) * (power("lam", -1) + 1),
                 lambda: (power("lam", -BOUND) + y) * (y + 1),
                 lambda: (power("x", BOUND // 2) + y) ** 2,
                 lambda: (x ** 2 + y).substitute({"x": power("x", BOUND // 2) + y}),
                 lambda: (power("lam", -2) + y).substitute({"lam": power("lam", BOUND // 2)})):
        with pytest.raises(InvalidInput, match="bound"):
            past()
    # a one-term factor folds into the other's tuples, unpacked and unbounded
    assert power("x", BOUND) * power("x", BOUND) == power("x", 2 * BOUND)
