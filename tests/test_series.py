import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isurf.errors import InvalidInput, NotSolvable, TruncationTooShallow
from isurf import poly
from isurf.poly import ExactPolynomial, PolyRing, multiply_terms, substitute_terms
from isurf.series import TruncatedSeries, solve_system

from oracles import schoolbook, termwise_substitute

S = PolyRing.of("x", "y")


def test_eliminate_simple():
    g = solve_system([TruncatedSeries(S.parse("x - y^2"), 10)], ["x"])["x"]
    assert g == S.parse("y^2")


def test_eliminate_not_solvable_without_linear_unit():
    with pytest.raises(NotSolvable):
        solve_system([TruncatedSeries(S.parse("x^2 - y"), 10)], ["x"])


def test_eliminate_backsubstitution_vanishes():
    rng = random.Random(3)
    ring = PolyRing.of("x", "y", "z")
    for _ in range(25):
        # x * unit + higher-order noise, always solvable
        noise = {}
        for _ in range(rng.randint(0, 4)):
            exps = (rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3))
            if sum(exps) < 2:
                continue
            noise[exps] = Fraction(rng.randint(-4, 4))
        f = ring.var("x") * rng.randint(1, 5) + ring.from_terms(noise) \
            + ring.var("y") * rng.randint(-3, 3)
        series = TruncatedSeries(f, 8)
        try:
            g = solve_system([series], ["x"])["x"]
        except NotSolvable:
            continue
        assert series.substitute({"x": g}).is_zero()
        assert g.degree_in("x") == 0


def test_truncation_drops_high_order():
    s = TruncatedSeries(S.parse("x + y^5"), 4)
    assert s.poly == S.parse("x")
    t = s * s
    assert t.poly == S.parse("x^2")


def test_inverse_of_unit_series():
    u = TruncatedSeries(S.parse("2 + x + y^2"), 7)
    inv = u.inverse()
    assert (u * inv.poly).poly == S.one()


def test_solve_system_two_variables():
    ring = PolyRing.of("a", "b", "s")
    r1 = TruncatedSeries(ring.parse("a - s^2 + b*s"), 8)
    r2 = TruncatedSeries(ring.parse("b + a*s - s^3"), 8)
    sol = solve_system([r1, r2], ["a", "b"])
    for r in (r1, r2):
        assert r.substitute(sol).is_zero()
    for value in sol.values():
        assert value.degree_in("a") == 0 and value.degree_in("b") == 0


def test_constant_coupling_is_not_solvable():
    # each relation is linear-unit in its variable, but the constant coupling
    # of a and b keeps a degree-one residual after every sweep
    ring = PolyRing.of("a", "b", "s")
    relations = [TruncatedSeries(ring.parse(r), 6) for r in ("a + 2*b + s", "b + 2*a")]
    with pytest.raises(NotSolvable):
        solve_system(relations, ["a", "b"])


def _record_truncations(monkeypatch) -> list:
    """(order, least degree or None) of every series substitution."""
    records = []
    substitute = TruncatedSeries.substitute

    def recorded(series, assignment):
        result = substitute(series, assignment)
        records.append((series.order, min(map(sum, result.poly.terms), default=None)))
        return result

    monkeypatch.setattr(TruncatedSeries, "substitute", recorded)
    return records


def test_chord_sweeps_gain_one_order_each(monkeypatch):
    # x = y + x^2 is solved by the Catalan series; each chord sweep x <- y + x^2
    # fixes one more coefficient, so order 16 takes 15 corrections and then
    # the certifying sweep, the most sweeps a system can need, all at the order
    ring = PolyRing.of("x", "y")
    sweeps = _record_truncations(monkeypatch)
    x = solve_system([TruncatedSeries(ring.parse("x - y - x^2"), 16)], ["x"])["x"]
    assert len(sweeps) == 16
    assert [t for t, _ in sweeps] == [16] * 16
    assert sweeps[-1] == (16, None)
    assert x == ring.from_terms({(0, k): comb(2 * k - 2, k - 1) // k for k in range(1, 16)})


@pytest.mark.parametrize("names, relations, gain", [
    ("x y", ["x - y - x^2"], 1),
    ("x y", ["x - y - 2*x^3 + y^2*x"], 2),
    ("a b s", ["a - s^2 + b*s", "b + a*s - s^3"], 1),
    ("a b s", ["a - s - a*b^2", "b - s^2 + s*a^3"], 2),
])
def test_no_sweep_is_too_shallow_to_gain_g(monkeypatch, names, relations, gain):
    # every sweep substitutes at the relations' order and the last one leaves
    # every residual zero.  A term with an unknown other than the units has
    # degree >= g + 1, so each sweep raises the error's valuation (>= 1 at the
    # zero start) by at least g: after ceil((order - 1) / g) corrections the
    # next sweep is the certificate
    ring, order = PolyRing.of(*names.split()), 13
    unknowns = ring.variables[:len(relations)]
    series = [TruncatedSeries(ring.parse(r), order) for r in relations]
    records = _record_truncations(monkeypatch)
    solve_system(series, unknowns)
    sweeps = [records[i:i + len(series)] for i in range(0, len(records), len(series))]
    assert all(t == order for t, _ in records)
    assert all(low is None for _, low in sweeps[-1])
    assert len(sweeps) <= -(-(order - 1) // gain) + 1


# -- the truncation-aware kernel against schoolbook oracles --------------------
#
# ``a * b`` and ``poly.substitute`` run the same kernel as the series, so the
# oracles in oracles.py are written out: every pair of terms, and every term
# of the substituted polynomial raised factor by factor.

R3 = PolyRing.of("x", "y", "z")


def _truncate(p, order):
    return p.ring.from_terms({e: c for e, c in p.terms.items() if sum(e) < order})


def test_oracles_are_not_vacuous():
    assert schoolbook(S.parse("x + y"), S.parse("x - y")) == S.parse("x^2 - y^2")
    assert termwise_substitute(S.parse("x^2*y + 3"), {"x": S.parse("1 + y")}) \
        == S.parse("y^3 + 2*y^2 + y + 3")


def _polys(max_terms=6, max_exp=4):
    term = st.tuples(st.tuples(*[st.integers(0, max_exp)] * 3),
                     st.fractions(min_value=-4, max_value=4, max_denominator=7))
    return st.lists(term, max_size=max_terms).map(lambda ts: R3.from_terms(dict(ts)))


@settings(max_examples=80, deadline=None)
@given(_polys(), _polys(), st.integers(1, 9))
def test_product_equals_truncated_schoolbook(a, b, order):
    sa, sb = TruncatedSeries(a, order), TruncatedSeries(b, order)
    expected = _truncate(schoolbook(a, b), order)
    assert (sa * sb).poly == expected and (sa * b).poly == expected
    assert a * b == schoolbook(a, b)
    # the kernel alone, without the truncation every new series applies
    kernel = multiply_terms(sa.poly.terms, sb.poly.terms, order)
    assert ExactPolynomial(R3, kernel) == expected


@settings(max_examples=60, deadline=None)
@given(_polys(max_exp=3), _polys(max_terms=3, max_exp=2), _polys(max_terms=3, max_exp=2),
       st.integers(1, 8))
def test_substitute_equals_truncated_schoolbook(f, gx, gy, order):
    series = TruncatedSeries(f, order)
    if any(series.poly.degree_in(v) and g.constant_term() for g, v in ((gx, "x"), (gy, "y"))):
        # an image with a constant term would bring dropped terms back
        with pytest.raises(InvalidInput):
            series.substitute({"x": gx, "y": gy})
        return
    got = series.substitute({"x": gx, "y": gy})
    expected = termwise_substitute(series.poly, {"x": gx, "y": gy})
    assert got.poly == _truncate(expected, order)
    assert f.substitute({"x": gx, "y": gy}) == termwise_substitute(f, {"x": gx, "y": gy})


def _one_term_images(max_exp=2):
    """k * x^a y^b z^c of degree >= 1; k = 0 gives the zero image."""
    exps = st.tuples(*[st.integers(0, max_exp)] * 3).filter(any)
    coeff = st.sampled_from([Fraction(1, 2), Fraction(-3, 4), 1, 0]) \
        | st.fractions(min_value=-4, max_value=4, max_denominator=7)
    return st.builds(lambda e, c: R3.from_terms({e: c}), exps, coeff)


@settings(max_examples=50, deadline=None)
@given(_polys(max_exp=3), _one_term_images(), _one_term_images(),
       _polys(max_terms=3, max_exp=2), st.integers(1, 10))
def test_one_term_images_fold_like_the_termwise_oracle(f, gx, gy, gz, order):
    # one-term images fold into the seed, x/2 carrying its 2 into the
    # denominator; the multi-term z image still forms products
    gz = gz - gz.constant_term()
    series = TruncatedSeries(f, order)
    for images in ({"x": gx, "y": gy}, {"x": gx, "y": gy, "z": gz}):
        expected = termwise_substitute(series.poly, images)
        assert series.substitute(images).poly == _truncate(expected, order)
        assert f.substitute(images) == termwise_substitute(f, images)


def test_folded_seeds_at_the_order_are_dropped():
    f = R3.parse("x^2*y + 3*x*z + z^3 - 1/3*y")
    images = {"x": R3.parse("1/2*x^2"), "y": R3.parse("-3/4*y"), "z": R3.parse("y + z")}
    # x^2*y folds to a seed of degree 5 = order; x*z to 3/2*x^2, times y + z
    got = TruncatedSeries(f, 5).substitute(images).poly
    assert got == R3.parse("3/2*x^2*y + 3/2*x^2*z + y^3 + 3*y^2*z + 3*y*z^2 + z^3 + 1/4*y")
    assert got == _truncate(termwise_substitute(f, images), 5)
    # the kernel keeps nothing at the order itself; the series does not re-truncate it
    assert substitute_terms(f.terms, R3, images, R3, 5) == got.terms


def test_an_image_with_one_term_below_the_order_folds(monkeypatch):
    # y + y^5 enters at order 4 as y alone, so no product is formed
    calls = []
    kernel = poly.product_terms
    monkeypatch.setattr(poly, "product_terms", lambda *args: calls.append(1) or kernel(*args))
    series = TruncatedSeries(S.parse("x^2*y + 3*x - y"), 4)
    assert series.substitute({"x": S.parse("y + y^5")}).poly == S.parse("y^3 + 2*y")
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(_polys(max_terms=5, max_exp=3), st.integers(1, 8),
       st.fractions(min_value=1, max_value=5, max_denominator=4))
def test_inverse_times_unit_is_one(m, order, c0):
    unit = TruncatedSeries(m - m.constant_term() + c0, order)
    assert (unit * unit.inverse()).poly == R3.one()


@st.composite
def _linear_unit_systems(draw):
    ring = PolyRing.of("a", "b", "c", "s", "t")
    k = draw(st.integers(1, 3))
    unknowns = list(ring.variables[:k])
    relations = []
    for v in unknowns:
        f = ring.var(v) * draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1]))
        for _ in range(draw(st.integers(0, 5))):
            exps = tuple(draw(st.integers(0, 2)) for _ in ring.variables)
            # no constant term and no linear term in an unknown: each relation
            # vanishes at the origin with a diagonal Jacobian there
            if sum(exps) < 2 and sum(exps[k:]) == 0:
                continue
            f = f + ring.monomial(dict(zip(ring.variables, exps)),
                                  draw(st.integers(-3, 3)))
        relations.append(f)
    return relations, unknowns


@settings(max_examples=40, deadline=None)
@given(_linear_unit_systems(), st.integers(1, 7))
def test_solve_system_residual_vanishes_mod_order(system, order):
    relations, unknowns = system
    series = [TruncatedSeries(r, order) for r in relations]
    if order == 1:
        with pytest.raises(TruncationTooShallow):
            solve_system(series, unknowns)
        return
    sol = solve_system(series, unknowns)
    for r in series:
        assert r.substitute(sol).is_zero()
    for value in sol.values():
        assert all(value.degree_in(v) == 0 for v in unknowns)


@st.composite
def _chord_systems(draw):
    """Unit-linear systems with 1-3 unknowns at orders 2-14: linear ones (no
    term with an unknown besides the units), ones whose other terms with an
    unknown have degree >= 2, 3 or 4 (g >= 1, 2, 3), and either of these with
    constant coupling to the earlier unknowns (g = 0); the forcing terms in s
    and t are of any degree, or only of degree order - 1."""
    ring = PolyRing.of("a", "b", "c", "s", "t")
    order = draw(st.integers(2, 14))
    k = draw(st.integers(1, 3))
    unknowns = ring.variables[:k]
    least = draw(st.sampled_from([None, 2, 3, 4]))  # None: a linear system
    triangular = draw(st.booleans())
    late = draw(st.booleans())
    coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    relations = []
    for i, v in enumerate(unknowns):
        terms = {ring.exponents({v: 1}): draw(coeff)}
        for _ in range(draw(st.integers(1, 3))):
            ds = draw(st.integers(0, min(3, order - 1)))
            dt = order - 1 - ds if late else draw(st.integers(0, 3))
            if ds + dt:
                terms[ring.exponents({"s": ds, "t": dt})] = draw(coeff)
        for _ in range(draw(st.integers(1, 3)) if least else 0):
            exps = list(draw(st.tuples(*[st.integers(0, 2)] * 5)))
            exps[draw(st.integers(0, k - 1))] += 1
            exps[3] += max(0, least - sum(exps))
            terms[tuple(exps)] = draw(coeff)
        if triangular:
            for j in range(i):
                terms[ring.exponents({unknowns[j]: 1})] = draw(coeff)
        relations.append(TruncatedSeries(ring.from_terms(terms), order))
    return relations, list(unknowns)


@settings(max_examples=150, deadline=None)
@given(_chord_systems())
# the first correction gains 2 where g = 1, so a sweep substituting only up to
# degree 4 would find every residual zero although the solution goes on
@example(([TruncatedSeries(PolyRing.of("a", "s").parse("a - s^2 - a^2"), 8)], ["a"]))
def test_chord_sweeps_solve_the_system_or_raise(system):
    # either NotSolvable, or every relation vanishes at the solution and no
    # solution mentions an unknown
    relations, unknowns = system
    try:
        sol = solve_system(relations, unknowns)
    except NotSolvable:
        return
    for r in relations:
        assert r.substitute(sol).is_zero()
    for value in sol.values():
        assert all(value.degree_in(v) == 0 for v in unknowns)


def test_invertible_variables_are_rejected():
    # t^-1 has degree -1: times the x^4 that the image x + x^4 drops at order
    # 4 it would give x^4*t^-1, of degree 3, which a truncated result would miss
    laurent = PolyRing.of("x", "t").with_invertible("t")
    for f in ("x*t^-1", "x + t"):
        with pytest.raises(InvalidInput):
            TruncatedSeries(laurent.parse(f), 4)


def test_image_below_its_weight_is_rejected():
    # x = 1 + y has a constant term: x^3*y, dropped at order 3, would give y
    with pytest.raises(InvalidInput):
        TruncatedSeries(S.parse("x^2 + y"), 3).substitute({"x": S.parse("1 + y")})


@pytest.mark.parametrize("build, message", [
    (lambda: TruncatedSeries(S.parse("x"), 4) + TruncatedSeries(PolyRing.of("x", "z").var("x"), 4),
     "ring mismatch"),
    (lambda: solve_system([TruncatedSeries(S.parse("x"), 4)], []),
     "need one relation per variable"),
], ids=["ring-mismatch", "relation-count"])
def test_bad_input_raises_invalid_input(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


@pytest.mark.parametrize("relation", ["x - 1 - y", "1 + x"])
def test_a_relation_with_a_constant_term_is_not_solvable(relation, monkeypatch):
    # its solution would have a constant term; the relation is named before
    # any sweep, not the image of x after one
    sweeps = []
    monkeypatch.setattr(TruncatedSeries, "substitute", lambda *args: sweeps.append(args))
    with pytest.raises(NotSolvable, match="relation for x has a constant term"):
        solve_system([TruncatedSeries(S.parse(relation), 3)], ["x"])
    assert sweeps == []


# -- series of different orders do not mix -------------------------------------
#
# At O(2) the y^3 of x + y^3 is unknown, so nothing built from it is known to
# O(10); answering at either order alone would be wrong or depend on the order
# of the operands.

S10, S2 = TruncatedSeries(S.parse("1 + x"), 10), TruncatedSeries(S.parse("x + y^3"), 2)


def test_sum_of_different_orders_is_rejected():
    for a, b in ((S10, S2), (S2, S10)):
        with pytest.raises(ValueError, match="order"):
            a + b
        with pytest.raises(ValueError, match="order"):
            a - b


def test_product_of_different_orders_is_rejected():
    for a, b in ((S10, S2), (S2, S10)):
        with pytest.raises(ValueError, match="order"):
            a * b


def test_solve_system_of_different_orders_is_rejected():
    # x = y^2 + O(2) reads as x = 0, which would give z = y^3 "to order 10"
    ring = PolyRing.of("z", "x", "y")
    relations = [TruncatedSeries(ring.parse("z - x - y^3"), 10),
                 TruncatedSeries(ring.parse("x - y^2"), 2)]
    with pytest.raises(ValueError, match="order"):
        solve_system(relations, ["z", "x"])


# -- int coefficients until a division, against the all-Fraction oracles ---------

def _int_polys(max_terms=5, max_exp=3):
    term = st.tuples(st.tuples(*[st.integers(0, max_exp)] * 3), st.integers(-5, 5))
    return st.lists(term, max_size=max_terms).map(lambda ts: R3.from_terms(dict(ts)))


def _as_fractions(p):
    """The same polynomial with every coefficient a Fraction."""
    return ExactPolynomial(p.ring, {e: Fraction(c) for e, c in p.terms.items()})


def _all_int(p):
    return all(type(c) is int for c in p.terms.values())


def _schoolbook_inverse(u, order):
    """(1/c0) sum_k (1 - u/c0)^k by schoolbook products; the k-th power is zero
    below the order once k reaches it."""
    scale = R3.constant(1 / u.constant_term())
    minus_m = R3.one() - schoolbook(u, scale)
    total = power = R3.one()
    for _ in range(order):
        power = _truncate(schoolbook(power, minus_m), order)
        total = total + power
    return _truncate(schoolbook(total, scale), order)


@settings(max_examples=60, deadline=None)
@given(_int_polys(), _int_polys(), _int_polys(max_terms=3, max_exp=2), st.integers(1, 8))
def test_int_series_products_and_substitutions_equal_the_fraction_oracle(a, b, g, order):
    fa, fb, fg = _as_fractions(a), _as_fractions(b), _as_fractions(g)
    product = (TruncatedSeries(a, order) * b).poly
    assert product == _truncate(schoolbook(fa, fb), order) and _all_int(product)
    x, y, z = (R3.var(v) for v in R3.variables)
    image = {"x": g * x, "y": g * y + z}
    expected = termwise_substitute(fa, {"x": fg * x, "y": fg * y + z})
    substituted = a.substitute(image)
    assert substituted == expected and _all_int(substituted)
    series = TruncatedSeries(a, order).substitute(image).poly
    assert series == _truncate(expected, order) and _all_int(series)


@settings(max_examples=60, deadline=None)
@given(_int_polys(), st.integers(1, 8), st.sampled_from([1, -1, 2, -3]))
def test_int_inverse_equals_the_fraction_oracle(m, order, c0):
    unit = m - m.constant_term() + c0
    inverse = TruncatedSeries(unit, order).inverse().poly
    assert inverse == _schoolbook_inverse(_as_fractions(unit), order)
    if c0 in (1, -1):  # no division
        assert _all_int(inverse)
