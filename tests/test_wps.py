from fractions import Fraction

import pytest

from isurf import rings, scenarios, toric, wps
from isurf.tsing import DEFAULT_ORDER, TSingularity


def test_resolution_fixture_counts():
    res = wps.bundled_resolution()
    assert len(res.l1) == 14 and len(res.l2) == 35
    assert res.socle == 28
    assert res.ambient_weights == (1, 1, 2, 3, 4, 4, 5, 7)


def test_series_from_resolution_rejects_a_wrong_betti_degree():
    """Negative control: with the last degree of L2 moved from 19 to 17 the
    resolution no longer gives the footnote's series."""
    res = wps.bundled_resolution()
    assert res.l2[-1] == 19
    wrong = res._replace(l2=res.l2[:-1] + (17,))
    assert not wps.hilbert_series_from_resolution(wrong).equals(wps.footnote_series())


def test_series_from_resolution_equals_footnote():
    hs = wps.hilbert_series_from_resolution(wps.bundled_resolution())
    assert hs.equals(wps.footnote_series())
    coeffs = hs.coefficients(6)
    assert coeffs[1] == 2 and coeffs[2] == 4
    # independent expansion oracle: multiply the closed form out by hand
    fs = wps.footnote_series()
    assert fs.coefficients(6) == coeffs


def test_series_coefficients_oracle():
    """Brute-force expansion of 1/((1-t)^2 (1-t^2)(1-t^5)) times (1-t^10)."""
    upto = 12
    # count monomials of weighted degree k in weights (1,1,2,5), then subtract
    # the degree-10 shift
    def count(k):
        total = 0
        for a in range(k + 1):
            for b in range(k + 1 - a):
                for c in range((k - a - b) // 2 + 1):
                    rem = k - a - b - 2 * c
                    if rem >= 0 and rem % 5 == 0:
                        total += 1
        return total

    expected = [count(k) - (count(k - 10) if k >= 10 else 0)
                for k in range(upto + 1)]
    got = [int(c) for c in wps.footnote_series().coefficients(upto)]
    assert got == expected


def test_hypersurface_invariants():
    inv = wps.wps_hypersurface_invariants(51, (1, 3, 17, 25))
    assert inv.canonical_degree == 5
    assert inv.k_squared == 1
    assert [int(c) for c in inv.series.coefficients(3)] == [1, 1, 1, 2]
    inv2 = wps.wps_hypersurface_invariants(10, (1, 1, 2, 5))
    assert inv2.canonical_degree == 1 and inv2.k_squared == 1
    assert inv2.series.equals(wps.footnote_series())
    inv3 = wps.wps_hypersurface_invariants(6, (1, 1, 1, 3))
    assert inv3.canonical_degree == 0 and inv3.k_squared == 0


def test_s51_point_analysis_cases():
    def at(point, theta, tau):
        return wps.s51_point_analysis(point, theta, tau, 0, DEFAULT_ORDER)

    assert at("ze", 3, 2).same_singularity(TSingularity(1, 5, 3))
    assert at("s0", 3, 2) == "absent"
    assert at("t1", 3, 2) == "absent"
    assert at("t1", 3, 0).same_singularity(TSingularity(1, 3, 2))
    assert at("t1", 0, 0).same_singularity(TSingularity(2, 3, 1))


def _special_theta(seed, theta) -> bool:
    """theta * q(theta) = 0, q(theta) = a theta^2 - b c theta + d c^2 with a, b,
    d and c the P50 coefficients of e^2 t1^16, e t1^8 ze, ze^2 and t1^11 s0:
    at t1 = 1 and tau = 0 the quadratic part of the germ in (e, s0, ze) is
    s0 (c e + theta ze), and theta q(theta) is the cubic part along its kernel
    direction (e, ze) = (theta, -c)."""
    p50 = wps.generic_p50(seed)

    def coeff(**powers):
        return p50.coefficient(wps.S51_RING.exponents(powers))

    a, b, d, c = coeff(e=2, t1=16), coeff(e=1, t1=8, ze=1), coeff(ze=2), coeff(t1=11, s0=1)
    return theta * (a * theta ** 2 - b * c * theta + d * c * c) == 0


@pytest.mark.parametrize("seed, theta, special", [
    (5, 3, True), (92, 3, True), (184, 3, True),
    (0, 3, False), (1, 3, False), (2, 3, False), (3, 3, False), (4, 3, False),
    (2, -2, True), (2, 16, True), (2, 15, False),
    (3, 16, True), (3, Fraction(-32, 5), True),
    (5, Fraction(-5, 2), True), (5, -2, False),
])
def test_wps51_index_3_point_is_special_exactly_where_theta_q_vanishes(seed, theta, special):
    """The t1 point for tau = 0 reads 1/18(1,5) on the special locus
    theta q(theta) = 0 and the general 1/9(1,2) off it."""
    assert _special_theta(seed, theta) == special
    got = wps.s51_point_analysis("t1", theta, 0, seed, DEFAULT_ORDER)
    assert str(got) == ("1/18(1,5)" if special else "1/9(1,2)")


def _special_mu(seed, mu) -> bool:
    """B^2 - 4 A C = 0 for the quadratic part A x1^2 + B x1 u + C u^2 of f10
    at y = 1 after x0 = x1^3 + mu u: A = f[x1^2 y^4],
    B = f[x1 u y^3] + mu f[x0 x1 y^4] and
    C = f[u^2 y^2] + mu^2 f[x0^2 y^4] + mu f[x0 u y^3]."""
    f10 = wps.generic_f10(seed)

    def coeff(**powers):
        return f10.coefficient(wps.FAMILY_RING.exponents(powers))

    a = coeff(x1=2, y=4)
    b = coeff(x1=1, u=1, y=3) + mu * coeff(x0=1, x1=1, y=4)
    c = coeff(u=2, y=2) + mu * mu * coeff(x0=2, y=4) + mu * coeff(x0=1, u=1, y=3)
    return b * b - 4 * a * c == 0


@pytest.mark.parametrize("seed, mu, special", [
    (57, 1, True), (220, 1, True), (249, 0, True), (297, 0, True),
    (14, Fraction(-23, 4), True), (14, Fraction(-3, 4), True),
    (26, Fraction(-1, 3), True), (26, Fraction(7, 19), True),
    (48, -5, True), (48, -1, True),
    *((seed, mu, False) for seed in range(5) for mu in (0, 1)),
    (14, Fraction(-19, 4), False), (14, Fraction(1, 4), False),
    (26, Fraction(2, 3), False), (26, Fraction(26, 19), False),
    (48, -4, False), (48, 0, False),
])
def test_family_y_point_is_special_exactly_where_the_discriminant_vanishes(seed, mu, special):
    """The y point of the nu = 0 member reads 1/8(1,3) where B^2 - 4AC
    vanishes and the general 1/4(1,1) elsewhere."""
    assert _special_mu(seed, mu) == special
    got = wps.TwoSingularityFamily.of(mu, 0, seed).germ_at_y(10)
    assert str(got) == ("1/8(1,3)" if special else "1/4(1,1)")


def test_germ_cases_hold_at_order_12():
    """The scenarios' germ tables at the order where denominators are largest."""
    for seed in range(5):
        for desc, point, theta, tau, pred in scenarios.WPS51_GERMS:
            got = wps.s51_point_analysis(point, theta, tau, seed, 12)
            assert pred(got), (seed, desc, got)
        for desc, mu, nu, chart, pred in scenarios.FAMILY_GERMS:
            fam = wps.TwoSingularityFamily.of(mu, nu, seed)
            got = fam.germ_at_y(12) if chart == "y" else fam.germ_at_u(12)
            assert pred(got), (seed, desc, got)


def test_s51_equation_degree():
    eq = wps.s51_equation(3, 2, seed=0)
    assert eq.weighted_degree(toric.WPS_WEIGHTS) == 51
    p50 = wps.generic_p50(0)
    assert p50.weighted_degree(toric.WPS_WEIGHTS) == 50
    # the germ hypotheses: these monomials must be present
    R = wps.S51_RING
    for mono in ({"t1": 11, "s0": 1}, {"ze": 2}, {"e": 1, "t1": 8, "ze": 1},
                 {"e": 2, "t1": 16}):
        exps = [0] * 4
        for k, v in mono.items():
            exps[R.index(k)] = v
        assert p50.coefficient(tuple(exps)) != 0


def test_weighted_monomials_are_enumerated_once_per_key():
    enumerate_ = rings._weighted_monomials
    enumerate_.cache_clear()
    first, second = wps.generic_p50(3), wps.generic_p50(3)
    assert first == second and first is not second
    assert wps.generic_p50(4) != first  # the seeded coefficients are drawn afresh
    assert (enumerate_.cache_info().misses, enumerate_.cache_info().hits) == (1, 2)
    wps.generic_f10(0), wps.generic_f10(1)
    assert enumerate_.cache_info().misses == 2
    monos = rings.weighted_monomials(50, wps.S51_RING.variables, toric.WPS_WEIGHTS)
    assert len(monos) == len(first)
    with pytest.raises(TypeError):  # shared, so read-only
        monos[0]["e"] = 7


def test_family_two_singularities():
    fam00 = wps.TwoSingularityFamily.of(0, 0, 0)
    assert fam00.germ_at_y(DEFAULT_ORDER).same_singularity(TSingularity(1, 2, 1))
    assert fam00.germ_at_u(DEFAULT_ORDER).same_singularity(TSingularity(2, 3, 1))
    fam10 = wps.TwoSingularityFamily.of(1, 0, 0)
    assert fam10.germ_at_y(DEFAULT_ORDER).same_singularity(TSingularity(1, 2, 1))
    assert fam10.germ_at_u(DEFAULT_ORDER) == "absent"
    fam01 = wps.TwoSingularityFamily.of(0, 1, 0)
    assert fam01.germ_at_y(DEFAULT_ORDER) == "absent"
    assert fam01.germ_at_u(DEFAULT_ORDER).same_singularity(TSingularity(2, 3, 1))
    fam11 = wps.TwoSingularityFamily.of(1, 1, 0)
    assert fam11.germ_at_y(DEFAULT_ORDER) == "absent"
    assert fam11.germ_at_u(DEFAULT_ORDER) == "absent"


def test_family_equations_shape():
    fam = wps.TwoSingularityFamily.of(Fraction(1, 2), 3, 0)
    R = wps.FAMILY_RING
    assert fam.eq1 == R.parse("x0*y - x1^3 - 1/2*u")
    assert fam.eq2.coefficient(tuple(0 if v != "y" else 5 for v in R.variables)) == -3
    f10 = wps.generic_f10(0)
    assert f10.weighted_degree(wps.FAMILY_WEIGHTS) == 10
    y5 = tuple(5 if v == "y" else 0 for v in R.variables)
    assert f10.coefficient(y5) == 0
