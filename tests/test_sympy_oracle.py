"""The poly kernel and the series layer against SymPy, an independent system.

Every other oracle in these tests shares the package's term dicts; SymPy's
``Poly`` over QQ and its expression trees share none of it.  Truncation at
the order is applied here to SymPy's full results.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.rings import ring as sympy_ring

from isurf import load_fixture, rings, scenarios, tsing, wps
from isurf.errors import TruncationTooShallow
from isurf.poly import PolyRing, multiply_terms
from isurf.series import TruncatedSeries
from isurf.skew import SkewMatrix
from isurf.tsing import DEFAULT_ORDER

R3 = PolyRing.of("x", "y", "z")
GENS = sympy.symbols("x y z")
LAURENT = PolyRing.of("x", "y", "lam").with_invertible("lam")
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


def _sympy_parsed(text: str, ring: PolyRing):
    """``text`` read by SymPy, ``^`` as ``**``, expanded and converted back."""
    gens = sympy.symbols(ring.variables)
    expr = sympy.parse_expr(text.replace("^", "**"), local_dict=dict(zip(ring.variables, gens)))
    return from_sympy(sympy.Poly(sympy.expand(expr), *gens, domain=sympy.QQ), ring)


def _fixture_polynomials():
    """(system, text) for every polynomial string of the relation and format
    fixtures."""
    relations = load_fixture("relations.json")
    for key, data in relations.items():
        yield from ((key, text) for text in data["relations"].values())
    yield "standard", relations["standard"]["r14_rewritten"]
    for entry in load_fixture("formats.json").values():
        texts = [*(t for row in entry["matrix"] for t in row), *entry["vector"],
                 *(m for c in entry["certificates"] for m, _ in c["combo"])]
        if entry.get("modulus"):
            texts.append(entry["modulus"])
        yield from ((entry["system"], text) for text in texts)


def test_every_fixture_polynomial_parses_as_sympy_reads_it():
    systems = load_fixture("relations.json")
    cases = list(_fixture_polynomials())
    assert len(cases) > 150 and any("(" in text for _, text in cases)
    for key, text in cases:
        ring = rings.generator_ring(*systems[key]["params"])
        assert ring.parse(text) == _sympy_parsed(text, ring), text


_NUMBERS = st.integers(-9, 9).map(str) | st.builds(
    "{}/{}".format, st.integers(-9, 9), st.integers(1, 6))
_POWERS = st.builds("{}^{}".format, st.sampled_from(R3.variables), st.integers(0, 4))


def _expressions(factors):
    """Sums of products of ``factors`` in the canonical grammar, with an
    optional leading minus and spaces or none around the binary signs."""
    terms = st.lists(factors, min_size=1, max_size=3).map("*".join)
    signs = st.sampled_from(["+", "-", " + ", " - "])
    return st.builds(lambda lead, first, rest: lead + first + "".join(s + t for s, t in rest),
                     st.sampled_from(["", "-", "- "]), terms,
                     st.lists(st.tuples(signs, terms), max_size=3))


_TEXTS = st.recursive(_expressions(_NUMBERS | _POWERS | st.sampled_from(R3.variables)),
                      lambda inner: _expressions(_NUMBERS | _POWERS | inner.map("({})".format)),
                      max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(_TEXTS)
def test_parsed_expressions_equal_sympy(text):
    assert R3.parse(text) == _sympy_parsed(text, R3)


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


# -- the germ pipeline: solve_system's solutions and the restricted germs -------
#
# Each case runs the package's own chart analysis with solve_system and
# classify_germ recorded, once for each order chart_germ tries.  SymPy's
# sparse polynomials then set the chart variable to 1, substitute each
# attempt's solution into every relation the solver eliminated (which must
# vanish modulo that attempt's order) and into the germ relation (which must
# equal the germ the classifier was given), truncating each product at that
# order.


def _sympy_elements(ring):
    """p -> the element of SymPy's sparse ring over QQ on the ring's variables."""
    target = sympy_ring(",".join(ring.variables), sympy.QQ)[0]
    return lambda p: target.from_dict({e: sympy.QQ(c.numerator, c.denominator)
                                       for e, c in p.terms.items()})


def _truncated_substitute(f, images: dict, order: int):
    """f with generator i replaced by images[i], every product truncated at the
    order; the images have no constant term, so a term of degree >= order
    maps beyond it."""
    ring = f.ring
    powers = {}

    def power(i, e):
        if (i, e) not in powers:
            powers[i, e] = images[i] if e == 1 else _truncate_element(
                power(i, e - 1) * images[i], order)
        return powers[i, e]

    total = ring.zero
    for monom, c in f.items():
        if sum(monom) >= order:
            continue
        term = ring({tuple(0 if i in images else e for i, e in enumerate(monom)): c})
        for i, e in enumerate(monom):
            if e and i in images:
                term = _truncate_element(term * power(i, e), order)
        total += term
    return total


def _truncate_element(p, order):
    return p.ring.from_dict({m: c for m, c in p.items() if sum(m) < order})


def _germ_cases(seed):
    """(label, equations, chart variable, eliminated equations, germ equation,
    run) for the ten germ cases and the two 14-relation charts; run()
    classifies through the package."""
    order = DEFAULT_ORDER
    for desc, point, theta, tau, _ in scenarios.WPS51_GERMS:
        yield (desc, {"s51": wps.s51_equation(theta, tau, seed)}, point, (), "s51",
               lambda: wps.s51_point_analysis(point, theta, tau, seed, order))
    for desc, mu, nu, chart, _ in scenarios.FAMILY_GERMS:
        fam = wps.TwoSingularityFamily.of(mu, nu, seed)
        plan = (("eq1",), "eq2", fam.germ_at_y) if chart == "y" else (("eq2",), "eq1", fam.germ_at_u)
        yield (desc, {"eq1": fam.eq1, "eq2": fam.eq2}, chart, *plan[:2],
               lambda: plan[2](order))
    for name, tau in (("Uz", scenarios.GENERAL_TAU), ("Pw", Fraction(0))):
        rels = rings.specialize_standard(scenarios.GENERAL_THETA, tau, seed)
        plan = rings.CHARTS[name]
        yield (name, dict(rels.relations), plan.chart_var,
               tuple(relation for relation, _ in plan.eliminate), plan.germ_relation,
               lambda: rings.chart_singularity(rels, plan, order))


@pytest.mark.parametrize("seed", [0, 1])
def test_germ_solutions_and_restrictions_equal_sympy(monkeypatch, seed):
    solved, attempts, shallow = [], [], []
    solve, classify = tsing.solve_system, tsing.classify_germ

    def recorded_solve(relations, variables):
        solution = solve(relations, variables)
        solved.append((relations, variables, solution))
        return solution

    def recorded_classify(germ):
        # chart_germ's elimination at this order is the last solve before it;
        # classify_germ solves for critical points after it
        attempts.append((solved[-1], germ.equation))
        try:
            return classify(germ)
        except TruncationTooShallow:
            shallow.append(len(attempts) - 1)
            raise

    monkeypatch.setattr(tsing, "solve_system", recorded_solve)
    monkeypatch.setattr(tsing, "classify_germ", recorded_classify)
    checked = tried = 0
    for label, equations, chart, eliminated, germ_name, run in _germ_cases(seed):
        solved.clear()
        attempts.clear()
        shallow.clear()
        result = run()
        ring = equations[germ_name].ring
        element = _sympy_elements(ring)
        at_chart = {name: element(equations[name]).subs(element(ring.var(chart)), 1)
                    for name in (*eliminated, germ_name)}
        if result == "absent":
            assert attempts == [] and any(f.coeff(1) != 0 for f in at_chart.values()), label
            continue
        # every order tried but the last was too shallow to decide the germ
        assert attempts and shallow == list(range(len(attempts) - 1)), label
        for (relations, variables, solution), germ in attempts:
            order = germ.order
            images = {ring.index(v): element(solution[v]) for v in variables}
            assert [element(r.poly) for r in relations] \
                == [_truncate_element(at_chart[name], order) for name in eliminated]
            for name in eliminated:
                assert _truncated_substitute(at_chart[name], images, order) == 0, (label, name)
            expected = _truncated_substitute(at_chart[germ_name], images, order)
            assert element(germ.poly.substitute({}, ring)) == expected, (label, order)
        checked += 1
        tried += len(attempts)
    assert checked == 9  # the three "absent" cases leave nothing to solve
    assert tried > checked  # some germs were retried at a higher order


# -- Pfaffians against SymPy's determinant -----------------------------------------

_SKEW_RING = PolyRing.of("a", "b")
_ENTRIES = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                           _COEFFS, max_size=2).map(_SKEW_RING.from_terms)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([2, 4, 6]).flatmap(
    lambda n: st.lists(_ENTRIES, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    .map(lambda entries: (n, entries))))
def test_pfaffian_squared_equals_sympy_determinant(case):
    n, entries = case
    above = iter(entries)
    m = SkewMatrix(_SKEW_RING, n, {(i, j): next(above) for i in range(n)
                                   for j in range(i + 1, n)})
    dense = sympy.Matrix(n, n, lambda i, j: to_expr(m.entry(i, j)))
    # over the domain QQ[a, b]: Matrix.det on expressions takes seconds at n = 6
    det = sympy.Poly(dense.to_DM(sympy.QQ[sympy.symbols("a b")]).det().as_expr(),
                     *sympy.symbols("a b"), domain=sympy.QQ)
    assert m.sub_pfaffians(m.size)[0][1] ** 2 == from_sympy(det, _SKEW_RING)
