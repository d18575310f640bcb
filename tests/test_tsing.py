import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isurf import rings, scenarios, tsing, wps
from isurf.errors import InvalidInput, TruncationTooShallow
from isurf.poly import PolyRing
from isurf.series import TruncatedSeries
from isurf.tsing import (QuotientGerm, RationalDoublePoint, TSingularity,
                         Unrecognized, classify_germ, codiscrepancy,
                         delta_squared, hj_expand, index_two_chain,
                         ktilde_squared, plane_quotient, recognize_tchain)

from oracles import admissible_type_search, hj_value, single_solve_chart_germ


def test_hj_expansion_examples():
    assert hj_expand(25, 14) == [2, 5, 3]
    assert hj_expand(18, 5) == [4, 3, 2]
    assert hj_expand(2, 1) == [2]
    assert hj_expand(4, 3) == [2, 2, 2]
    assert hj_value([2, 2, 2]) == Fraction(4, 3)


def test_hj_invalid_inputs():
    with pytest.raises(InvalidInput):
        hj_expand(4, 2)
    with pytest.raises(InvalidInput):
        hj_expand(3, 3)


def test_hj_roundtrip_exhaustive():
    for p in range(2, 201):
        for q in range(1, p):
            if gcd(p, q) == 1:
                chain = hj_expand(p, q)
                assert all(b >= 2 for b in chain)
                assert hj_value(chain) == Fraction(p, q)


def test_recognition_examples():
    assert recognize_tchain([4]) == TSingularity(1, 2, 1)
    assert recognize_tchain([2, 5, 3]) == TSingularity(1, 5, 3)
    assert recognize_tchain([2, 2]) == RationalDoublePoint(2)
    assert isinstance(recognize_tchain([2, 6]), Unrecognized)
    with pytest.raises(InvalidInput):
        recognize_tchain([1, 2])


def test_a_long_chain_is_recognized_without_a_search():
    # p has 33 digits: the type is read off gcd(p, q + 1), not searched for
    assert isinstance(recognize_tchain([12] * 30), Unrecognized)


def test_admissible_types_equal_the_trial_search():
    for order in range(1, 160):
        for weight in range(order + 1):
            found = tsing._admissible_type(order, weight)
            got = None if found is None else (found.d, found.n, found.a)
            assert got == admissible_type_search(order, weight), (order, weight)


def all_t_types(bound):
    out = []
    n = 2
    while n * n <= bound:
        for d in range(1, bound // (n * n) + 1):
            for a in range(1, n):
                if gcd(a, n) == 1:
                    out.append(TSingularity(d, n, a))
        n += 1
    return out


def test_recognition_roundtrip_sweep():
    for sing in all_t_types(200):
        chain = hj_expand(sing.order, sing.weight)
        back = recognize_tchain(chain)
        assert back == sing, (sing, chain, back)


def test_codiscrepancy_examples():
    assert codiscrepancy([4]).coefficients == (Fraction(1, 2),)
    assert codiscrepancy([4, 3, 2]).coefficients == (
        Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
    assert codiscrepancy([3, 5, 2]).coefficients == (
        Fraction(3, 5), Fraction(4, 5), Fraction(2, 5))


def thomas_codiscrepancy(chain):
    """The oracle: Thomas elimination of b_i a_i - a_{i-1} - a_{i+1} = b_i - 2
    in Fractions (diagonal b_i, off-diagonal -1)."""
    r = len(chain)
    diag = [Fraction(x) for x in chain]
    rhs = [Fraction(x - 2) for x in chain]
    for i in range(1, r):
        diag[i] -= 1 / diag[i - 1]
        rhs[i] += rhs[i - 1] / diag[i - 1]
    coeffs = [Fraction(0)] * r
    coeffs[r - 1] = rhs[r - 1] / diag[r - 1]
    for i in range(r - 2, -1, -1):
        coeffs[i] = (rhs[i] + coeffs[i + 1]) / diag[i]
    return tuple(coeffs)


def test_thomas_oracle_solves_the_system():
    chain = [4, 3, 2]
    a = (0,) + thomas_codiscrepancy(chain) + (0,)
    assert all(b * a[i] - a[i - 1] - a[i + 1] == b - 2 for i, b in enumerate(chain, 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=50))
def test_codiscrepancy_equals_the_thomas_oracle(chain):
    assert codiscrepancy(chain).coefficients == thomas_codiscrepancy(chain)


def test_codiscrepancy_rejects_bad_chains():
    for chain in ([], [1, 3], [4, 0]):
        with pytest.raises(InvalidInput):
            codiscrepancy(chain)


def quadratic_form_oracle(chain, coeffs):
    """Independent evaluation of the intersection form on the chain."""
    r = len(chain)
    total = Fraction(0)
    for i in range(r):
        for j in range(r):
            if i == j:
                pairing = -chain[i]
            elif abs(i - j) == 1:
                pairing = 1
            else:
                pairing = 0
            total += coeffs[i] * coeffs[j] * pairing
    return total


def test_delta_squared_examples_via_oracle():
    for chain, expect in (([4], -1), ([3, 5, 2], -3), ([4, 3, 2], -2)):
        cd = codiscrepancy(chain)
        assert delta_squared(cd) == expect
        assert quadratic_form_oracle(chain, cd.coefficients) == expect


def fraction_delta_squared(cd):
    """The oracle: the same sum in Fractions."""
    b, a = cd.entries, cd.coefficients
    total = sum((ai * ai * -bi for ai, bi in zip(a, b)), Fraction(0))
    return total + 2 * sum((a[i] * a[i + 1] for i in range(len(a) - 1)), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=50))
def test_delta_squared_equals_the_fraction_oracle(chain):
    cd = codiscrepancy(chain)
    got = delta_squared(cd)
    assert got == fraction_delta_squared(cd) and isinstance(got, Fraction)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=1, max_size=30))
def test_integer_chains_agree_with_the_fraction_reference(chain):
    value = hj_value(chain)
    kind = recognize_tchain(chain)
    if isinstance(kind, TSingularity):
        assert Fraction(kind.order, kind.weight) == value
    elif isinstance(kind, Unrecognized):
        assert kind.reason.startswith(f"{value.numerator}/{value.denominator} ")
    else:
        assert kind == RationalDoublePoint(len(chain)) and set(chain) == {2}
    square = quadratic_form_oracle(chain, thomas_codiscrepancy(chain))
    assert delta_squared(codiscrepancy(chain)) == square


def test_codiscrepancy_coefficients_in_open_interval_sweep():
    for sing in all_t_types(200):
        chain = hj_expand(sing.order, sing.weight)
        cd = codiscrepancy(chain)
        assert all(0 < c < 1 for c in cd.coefficients)
        assert delta_squared(cd) == sing.d - len(chain) - 1


def test_reversal_gives_conjugate_and_same_square():
    for sing in all_t_types(200):
        chain = hj_expand(sing.order, sing.weight)
        rev = chain[::-1]
        kind = recognize_tchain(rev)
        assert kind == sing.conjugate()
        assert sing.same_singularity(kind)
        assert delta_squared(codiscrepancy(rev)) == delta_squared(codiscrepancy(chain))


def test_conjugation_inverts_the_weight():
    for sing in all_t_types(100):
        conj = sing.conjugate()
        assert (sing.weight * conj.weight) % sing.order == 1 % sing.order


def test_ktilde_examples():
    assert ktilde_squared([[3, 5, 2], [4]]) == -3
    assert ktilde_squared([[2, 5, 3], [4, 3, 2]]) == -4
    assert ktilde_squared([[4]]) == 0
    with pytest.raises(InvalidInput):
        ktilde_squared([[2, 6]])


def test_index_two_chain_family():
    assert index_two_chain(1) == [4]
    assert index_two_chain(2) == [3, 3]
    assert index_two_chain(3) == [3, 2, 3]
    for d in range(1, 33):
        assert recognize_tchain(index_two_chain(d)) == TSingularity(d, 2, 1)


# -- plane quotients ---------------------------------------------------------


def test_plane_quotient_cases():
    assert plane_quotient(25, 1, 14) == TSingularity(1, 5, 3)
    assert plane_quotient(18, 1, 5) == TSingularity(2, 3, 1)
    assert plane_quotient(25, 3, 17) == TSingularity(1, 5, 3)  # 17/3 = 14 mod 25
    assert isinstance(plane_quotient(7, 1, 3), Unrecognized)
    assert isinstance(plane_quotient(4, 2, 1), Unrecognized)  # not isolated
    # one search serves the plane quotient and the chain recognition
    for d, n, a in [(1, 2, 1), (2, 3, 1), (1, 3, 2), (1, 5, 3), (3, 4, 1), (1, 7, 4)]:
        sing = TSingularity(d, n, a)
        assert plane_quotient(sing.order, 1, sing.weight) == sing
        assert recognize_tchain(hj_expand(sing.order, sing.weight)) == sing


# -- germs -------------------------------------------------------------------

R_WUT = PolyRing.of("w", "u1", "t")
R_ESZ = PolyRing.of("e", "s0", "ze")


def test_germ_index_25():
    germ = QuotientGerm(5, (3, 4, 2), TruncatedSeries(R_WUT.parse("u1^5 - w*t"), 10))
    got = classify_germ(germ)
    assert got.same_singularity(TSingularity(1, 5, 3))


def test_germ_index_9():
    germ = QuotientGerm(3, (1, 2, 1), TruncatedSeries(R_ESZ.parse("3*s0*ze + e^3"), 10))
    assert classify_germ(germ).same_singularity(TSingularity(1, 3, 2))


def test_germ_with_linear_term_is_the_plane_quotient():
    # e is linear: the point is 1/25(3, 17) = 1/25(1, 14) in the (t1, s0) plane
    ring = PolyRing.of("e", "t1", "s0")
    germ = QuotientGerm(25, (1, 3, 17), TruncatedSeries(ring.parse("e + s0^3"), 10))
    got = classify_germ(germ)
    assert got == TSingularity(1, 5, 3) and str(got) == "1/25(1,14)"


def test_germ_of_group_order_one_is_rejected():
    ring = PolyRing.of("x", "y", "z")
    with pytest.raises(InvalidInput, match="group order must be at least 2"):
        QuotientGerm(1, (0, 0, 0), TruncatedSeries(ring.parse("x*y - z^2"), 10))


def test_germ_index_18_with_supplied_tail():
    f = R_ESZ.parse("e*s0 + e*ze^2 + e^2*ze + 2*e^2*s0^2 + s0^3")
    germ = QuotientGerm(3, (1, 2, 1), TruncatedSeries(f, 10))
    assert classify_germ(germ).same_singularity(TSingularity(2, 3, 1))


def test_germ_quarter_point_by_square_completion():
    ring = PolyRing.of("x1", "u", "z")
    f = ring.parse("z^2 - u^2 + x1^2 + x1^4")
    germ = QuotientGerm(2, (1, 1, 1), TruncatedSeries(f, 10))
    assert classify_germ(germ) == TSingularity(1, 2, 1)


def test_germ_invariance_under_permutation_and_units():
    base = R_WUT.parse("u1^5 - w*t + w^2*u1")
    expected = classify_germ(
        QuotientGerm(5, (3, 4, 2), TruncatedSeries(base, 10)))
    # permuted variables
    ring2 = PolyRing.of("t", "w", "u1")
    permuted = base.substitute({v: ring2.var(v) for v in ("w", "u1", "t")}, ring=ring2)
    got2 = classify_germ(QuotientGerm(5, (2, 3, 4), TruncatedSeries(permuted, 10)))
    assert got2.same_singularity(expected)
    # multiplied by a unit series (weight-0 unit: constant)
    got3 = classify_germ(QuotientGerm(5, (3, 4, 2), TruncatedSeries(base * 7, 10)))
    assert got3.same_singularity(expected)


def test_germ_unit_series_multiplication():
    # x*y - z^3 in 1/3(1, 2, 1) is 1/9(1,2); an invariant unit keeps it so
    ring = PolyRing.of("x", "y", "z")
    base = ring.parse("x*y - z^3")
    unit = ring.parse("1 + x*y + 2*z^3")
    got = classify_germ(QuotientGerm(3, (1, 2, 1), TruncatedSeries(base * unit, 10)))
    assert got == TSingularity(1, 3, 1) and str(got) == "1/9(1,2)"


@pytest.mark.parametrize("n, action, equation, expected", [
    (2, (1, 0, 1), "x^2 + y^2 + z^2", "unrecognized(normalised weight 0 not coprime to 2)"),
    (4, (2, 2, 1), "x*y + z^4", "unrecognized(no hyperbolic variable pair found)"),
    (4, (1, 3, 2), "x*y - z^2",
     "unrecognized(residual multiplicity 2 not divisible by the order 4)"),
    (7, (2, 5, 1), "x*y - z^7", "1/49(1,27)"),
    (3, (1, 1, 1), "x^2 + y^2 + z^2", "unrecognized(equation is not invariant)"),
    (2, (1, 1, 1), "x^2 + 2*x*y + y^2 + z^2 + y^4", "1/8(1,3)"),
], ids=["weights-of-the-pair", "pair-weight-unit", "multiplicity", "normalised-weight",
        "invariance", "degenerate-pair"])
def test_each_classifier_guard_decides_a_germ(n, action, equation, expected):
    """One germ per guard of the quotient classifier, each read differently
    with that guard deleted, its weight left unnormalised or, for the
    degenerate pair (x, y), the Hessian read without its factor 2."""
    ring = PolyRing.of("x", "y", "z")
    germ = QuotientGerm(n, action, TruncatedSeries(ring.parse(equation), 10))
    assert str(classify_germ(germ)) == expected


def test_germ_truncation_too_shallow():
    germ = QuotientGerm(5, (3, 4, 2), TruncatedSeries(R_WUT.parse("-w*t"), 6))
    with pytest.raises(TruncationTooShallow):
        classify_germ(germ)


def test_germ_order_too_shallow_for_quadratic_part():
    # order 2 drops w*t: the germ must not come back as unrecognized
    germ = QuotientGerm(5, (3, 4, 2), TruncatedSeries(R_WUT.parse("u1^5 - w*t"), 2))
    with pytest.raises(TruncationTooShallow):
        classify_germ(germ)


def test_germ_noninvariant_rejected():
    with pytest.raises(InvalidInput):
        QuotientGerm(5, (3, 4, 2),
                     TruncatedSeries(R_WUT.parse("u1^5 - w*t + w"), 10))


def test_germ_recovers_disguised_normal_forms():
    """Cover forms hidden by equivariant coordinate changes and unit factors
    still classify to the same type."""
    import random
    rng = random.Random(23)
    cases = [(1, 5, 3), (2, 3, 1), (1, 3, 2), (1, 2, 1), (3, 2, 1), (1, 4, 3)]
    for d, n, a in cases:
        dn = d * n
        ring = PolyRing.of("x", "y", "z")
        x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
        m = pow(a, -1, n)  # z^m has the weight of x
        shift = rng.randint(1, 4)
        unit_coeff = rng.randint(1, 3)
        f = (x + z ** m * shift) * y - z ** dn * (unit_coeff + 0)
        # multiply by an invariant unit: 1 + x*y has weight 0
        f = f * (ring.one() + x * y * rng.randint(-2, 2))
        order = max(10, dn + m + 3)
        germ = QuotientGerm(n, (1, n - 1, a % n), TruncatedSeries(f, order))
        got = classify_germ(germ)
        assert isinstance(got, TSingularity), (d, n, a, got)
        assert got.same_singularity(TSingularity(d, n, a)), (d, n, a, got)


# -- the critical point against a Newton oracle --------------------------------


def newton_critical_residual(f, x, y):
    """Oracle: f at its critical point in (x, y) by a two-variable Newton
    iteration that substitutes and inverts the full Hessian on every step."""
    fx, fy = f.derivative(x), f.derivative(y)
    hxx, hxy, hyy = fx.derivative(x), fx.derivative(y), fy.derivative(y)
    gx = gy = f.ring.zero()
    for _ in range(f.order + 2):
        sub = {x: gx, y: gy}
        rx, ry = fx.substitute(sub), fy.substitute(sub)
        if rx.is_zero() and ry.is_zero():
            return f.substitute(sub).poly
        a, b, c = hxx.substitute(sub), hxy.substitute(sub), hyy.substitute(sub)
        det_inv = (a * c - b * b).inverse()
        # [gx, gy] -= H^{-1} [rx, ry] with H = [[a, b], [b, c]]
        gx = gx - ((c * rx - b * ry) * det_inv).poly
        gy = gy - ((a * ry - b * rx) * det_inv).poly
    raise AssertionError("Newton iteration did not converge")


_XYZ = PolyRing.of("x", "y", "z")
_NONZERO = st.integers(-4, 4).filter(bool)


@st.composite
def _hyperbolic_germs(draw):
    """f = a x^2 + b x y + c y^2 + higher terms with 4ac - b^2 != 0: either
    a = c = 0 (f_x alone is not linear-unit in x) or all of a, b, c nonzero."""
    if draw(st.booleans()):
        a, b, c = 0, draw(_NONZERO), 0
    else:
        a, b, c = draw(st.tuples(_NONZERO, _NONZERO, _NONZERO)
                       .filter(lambda abc: 4 * abc[0] * abc[2] != abc[1] ** 2))
    order = draw(st.integers(3, 8))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4)).filter(
        lambda e: (sum(e) == 2 and e[2] > 0) or sum(e) >= 3)
    coeff = st.builds(Fraction, _NONZERO, st.sampled_from([1, 1, 2, 3]))
    terms = draw(st.dictionaries(exps, coeff, max_size=6))
    terms.update({(2, 0, 0): a, (1, 1, 0): b, (0, 2, 0): c})
    return TruncatedSeries(_XYZ.from_terms(terms), order)


@settings(max_examples=80, deadline=None)
@given(_hyperbolic_germs())
def test_critical_residual_equals_the_newton_oracle(f):
    # the constant Hessian of f in (x, y), as classify_germ reads it
    hessian = (2 * f.poly.coefficient((2, 0, 0)), f.poly.coefficient((1, 1, 0)),
               2 * f.poly.coefficient((0, 2, 0)))
    assert tsing._critical_residual(f, "x", "y", *hessian) == newton_critical_residual(f, "x", "y")


# -- chart germs: the precision ladder against one solve at the cap -------------


def _chart_cases(seed):
    """chart_germ's arguments but the order for the germ cases of wps51 and
    family-munu and the two 14-relation charts, at a seed."""
    for _, point, theta, tau, _ in scenarios.WPS51_GERMS:
        yield ({"s51": wps.s51_equation(theta, tau, seed)}, wps.WPS_WEIGHTS, point, (), "s51",
               tuple(v for v in wps.S51_RING.variables if v != point))
    for _, mu, nu, chart, _ in scenarios.FAMILY_GERMS:
        fam = wps.TwoSingularityFamily.of(mu, nu, seed)
        plan = ((("eq1", "x0"),), "eq2", ("x1", "u", "z")) if chart == "y" \
            else ((("eq2", "x1"),), "eq1", ("x0", "y", "z"))
        yield ({"eq1": fam.eq1, "eq2": fam.eq2}, wps.FAMILY_WEIGHTS, chart, *plan)
    for name, tau in (("Uz", scenarios.GENERAL_TAU), ("Pw", Fraction(0))):
        rels = rings.specialize_standard(scenarios.GENERAL_THETA, tau, seed)
        plan = rings.CHARTS[name]
        yield (dict(rels.relations), rings.GENERATOR_DEGREES, plan.chart_var,
               plan.eliminate, plan.germ_relation, plan.local_vars)


def _outcome(analysis, *args):
    """The result, or the type and message of the TruncationTooShallow raised."""
    try:
        return analysis(*args)
    except TruncationTooShallow as exc:
        return TruncationTooShallow, str(exc)


_CHART_CASES = len(scenarios.WPS51_GERMS) + len(scenarios.FAMILY_GERMS) + 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, _CHART_CASES - 1), st.integers(0, 10**6), st.integers(1, 13))
def test_the_ladder_classifies_as_one_solve_at_the_cap(case, seed, order):
    args = next(itertools.islice(_chart_cases(seed), case, None))
    assert _outcome(tsing.chart_germ, *args, order) \
        == _outcome(single_solve_chart_germ, *args, order)


# x*y - z^9 at the point of w in P(3, 1, 2, 1): 1/27(1, 8), which needs order 10
_Z9 = ({"f": PolyRing.of("w", "x", "y", "z").parse("x*y - z^9")},
       {"w": 3, "x": 1, "y": 2, "z": 1}, "w", (), "f", ("x", "y", "z"))


def _orders_tried(monkeypatch) -> list:
    orders = []
    classify = tsing.classify_germ

    def recorded(germ):
        orders.append(germ.equation.order)
        return classify(germ)

    monkeypatch.setattr(tsing, "classify_germ", recorded)
    return orders


@pytest.mark.parametrize("order, tried", [
    (16, [4, 7, 13]), (13, [4, 7, 13]), (10, [4, 7, 10]), (9, [4, 7, 9]),
    (5, [4, 5]), (4, [4]), (3, [3]), (1, [1])])
def test_the_orders_tried_step_from_4_and_stop_at_the_cap(monkeypatch, order, tried):
    expected = _outcome(single_solve_chart_germ, *_Z9, order)
    orders = _orders_tried(monkeypatch)
    assert _outcome(tsing.chart_germ, *_Z9, order) == expected
    assert orders == tried
    assert (expected == TSingularity(3, 3, 1)) == (order >= 10)


@pytest.mark.parametrize("order", [7, 12, 16])
def test_the_pinned_germ_is_decided_at_order_7(monkeypatch, order):
    # its residual has multiplicity 6: order 4 is too shallow, 7 decides it
    orders = _orders_tried(monkeypatch)
    got = wps.TwoSingularityFamily.of(0, 1, 0).germ_at_u(order)
    assert got.same_singularity(TSingularity(2, 3, 1)) and orders == [4, 7]


def test_order_3_raises_the_message_of_one_solve():
    raised = 0
    for args in _chart_cases(1):
        expected = _outcome(single_solve_chart_germ, *args, 3)
        assert _outcome(tsing.chart_germ, *args, 3) == expected
        raised += isinstance(expected, tuple)
    assert raised == 6
