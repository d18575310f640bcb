import random
from fractions import Fraction

import pytest

from isurf import rings, toric
from isurf.errors import InvalidInput, NotHomogeneous
from isurf.poly import PolyRing

from oracles import evaluate


def test_bundled_presentations_validate():
    assert toric.F_PRESENTATION.weights.rank() == 2
    assert toric.FTILDE_PRESENTATION.weights.rank() == 4


def test_multidegree_of_proper_transform():
    eq = rings.double_blowup_equation(seed=0)
    ring = PolyRing.of(*toric.FTILDE_VARS)
    core = eq.substitute({"theta": 1, "tau": 1}, ring=ring)
    assert toric.multidegree(core, toric.FTILDE_PRESENTATION.weights) == (0, 6, 2, 1)
    assert toric.multidegree(core, toric.SHIFTED_WEIGHTS) == (6, 18, 34, 51)
    ze = ring.var("ze")
    assert toric.multidegree(ze, toric.SHIFTED_WEIGHTS) == (3, 9, 17, 25)


def test_multidegree_error_reports_two_terms():
    ring = PolyRing.of(*toric.FTILDE_VARS)
    with pytest.raises(NotHomogeneous) as err:
        toric.multidegree(ring.parse("t0 + s0"), toric.FTILDE_PRESENTATION.weights)
    assert len(err.value.offending) == 2
    with pytest.raises(InvalidInput):
        toric.multidegree(ring.zero(), toric.FTILDE_PRESENTATION.weights)


def test_toric_blowup_chain_and_errors():
    inter = toric.toric_blowup(toric.F_PRESENTATION, "c", (2, 0, 0, 1, 1, -1))
    full = toric.toric_blowup(inter, "e", (1, 0, 0, 0, 1, 1, -1))
    assert full.weights.rows == toric.FTILDE_PRESENTATION.weights.rows
    assert full.ring.variables == toric.FTILDE_VARS
    with pytest.raises(InvalidInput, match="the new variable's entry must be -1"):
        toric.toric_blowup(toric.F_PRESENTATION, "c", (0, 0, 0, 0, 0, 0))
    with pytest.raises(InvalidInput, match="the new variable's entry must be -1"):
        toric.toric_blowup(toric.F_PRESENTATION, "c", (2, 0, 0, 1, 1, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: toric.CoxPresentation.of(("x", "y"), ((1, 1), (2, 2))),
     "weight matrix must have full row rank"),
    (lambda: toric.toric_blowup(toric.F_PRESENTATION, "c", (1, -1)),
     "row length must cover the old variables plus the new one"),
    (lambda: toric.toric_blowup(toric.F_PRESENTATION, "c", (0, 0, 0, 0, 0, -1)),
     "centre multiplicities must be nonnegative and not all zero"),
    (lambda: toric.toric_blowup(toric.F_PRESENTATION, "ze", (1, 0, 0, 0, 0, -1)),
     "duplicate variable names"),
], ids=["rank-deficient", "row-length", "centre", "existing-variable"])
def test_bad_input_raises_invalid_input(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


def test_blowup_transform_monomial_example():
    ring = PolyRing.of("x", "e")
    f = PolyRing.of("x").parse("x^2")
    out = toric.blowup_transform(f, {"x": ring.parse("e*x")}, ring.parse("e^2"))
    assert out == ring.parse("x^2")


def test_ray_equivalence_checker_is_not_vacuous():
    from isurf.lattice import unimodular_normal_form

    before = [(1, 0), (0, 1), (-1, -1)]
    assert unimodular_normal_form(before) == \
        unimodular_normal_form([(0, 1), (1, 0), (-1, -1)])
    # scaling one ray breaks lattice equivalence
    assert unimodular_normal_form(before) != \
        unimodular_normal_form([(2, 0), (0, 1), (-1, -1)])


def test_gale_ray_relations():
    rays = toric.gale_rays(toric.FTILDE_PRESENTATION)
    for row in toric.FTILDE_PRESENTATION.weights.rows:
        combo = [0] * len(rays["t0"])
        for name, coeff in zip(toric.FTILDE_VARS, row):
            combo = [a + coeff * b for a, b in zip(combo, rays[name])]
        assert not any(combo)


def test_collapse_commutes_with_fourth_row_degree():
    eq = rings.double_blowup_equation(seed=0)
    ring = PolyRing.of(*toric.FTILDE_VARS)
    core = eq.substitute({"theta": 1, "tau": 1}, ring=ring)
    row4 = toric.SHIFTED_WEIGHTS.rows[3]
    for exps, coeff in core.terms.items():
        mono = toric.ExactPolynomial(ring, {exps: coeff})
        image = toric.wps_collapse(mono)
        expect = sum(w * e for w, e in zip(row4, exps))
        assert image.weighted_degree(toric.WPS_WEIGHTS) == expect


def test_wps_collapse_shape():
    eq = rings.double_blowup_equation(seed=0)
    collapsed = toric.wps_collapse(eq)
    assert set(collapsed.ring.variables) == {"e", "t1", "s0", "ze", "theta", "tau"}
    W = collapsed.ring
    e, t1, s0, ze = (W.var(v) for v in ("e", "t1", "s0", "ze"))
    theta, tau = W.var("theta"), W.var("tau")
    rest = collapsed - tau * t1 ** 17 - theta * t1 ** 3 * s0 * ze - s0 ** 3
    p50 = rest.exact_divide(e)
    deg = {**toric.WPS_WEIGHTS, "theta": 0, "tau": 0}
    assert p50.weighted_degree(deg) == 50
    ze2 = tuple(2 if v == "ze" else 0 for v in W.variables)
    assert p50.coefficient(ze2) == -1


# -- the cover normal form ----------------------------------------------------

T = PolyRing.of("t0", "t1")
R5 = PolyRing.of(*toric.F_VARS)


def cubic_discriminant(j, k, l):
    """Discriminant of s0^3 + j s0^2 + k s0 + l, invariant under shifts of s0."""
    return 18 * j * k * l - 4 * j ** 3 * l + j ** 2 * k ** 2 - 4 * k ** 3 - 27 * l ** 2


def test_normalize_removes_quadratic_term_and_shapes():
    j = T.parse("3*t1^6")
    k = T.parse("3*t1^12 + t0*t1^11 + 5*t0^2*t1^10")
    l = T.parse("t1^18 + 7*t0*t1^17 + t0^2*t1^16")
    nm = toric.weierstrass_normalize(toric.WeierstrassModel(R5, j, k, l))
    assert nm.eps == 0
    assert nm.k1.weighted_degree({"t0": 1, "t1": 1}) == 11
    assert nm.l1.weighted_degree({"t0": 1, "t1": 1}) == 16


def test_normalize_formal_branch_and_verification():
    k2 = T.parse("-3*t1^12 + t0*t1^11")
    l2 = T.parse("2*t1^18 + 7*t0*t1^17 + t0^2*t1^16")
    nm = toric.weierstrass_normalize(toric.WeierstrassModel(R5, T.zero(), k2, l2))
    assert nm.eps == 1
    assert "theta" in nm.ring.variables


def test_normalize_rejects_smooth_fiber():
    k = T.parse("t1^12")
    l = T.parse("t0*t1^17")
    with pytest.raises(InvalidInput):
        toric.weierstrass_normalize(toric.WeierstrassModel(R5, T.zero(), k, l))


def test_normalize_rejects_a_pure_t1_l_without_a_pure_t1_k():
    # alpha = 0 and beta = 1: no eps has -3 eps^2 = 0 and 2 eps^3 = 1
    k = T.parse("t0*t1^11")
    l = T.parse("t1^18")
    with pytest.raises(InvalidInput, match="not singular"):
        toric.weierstrass_normalize(toric.WeierstrassModel(R5, T.zero(), k, l))


def test_normalize_rejects_a_coefficient_outside_the_base_ring():
    # j carries a parameter lam that the ring of k and l lacks
    j = PolyRing.of("t0", "t1", "lam").parse("lam*t1^6")
    k = T.parse("t0*t1^11")
    l = T.parse("t0*t1^17")
    model = toric.WeierstrassModel(PolyRing.of(*toric.F_VARS, "lam"), j, k, l)
    with pytest.raises(InvalidInput, match="unexpectedly involves lam"):
        toric.weierstrass_normalize(model)


def test_normalize_preserves_cubic_discriminant_at_random_points():
    # rational eps branch: alpha = -12, beta = 16 gives eps = 2, 12 eps = 24?
    # use eps = 3: alpha = -27, beta = 54, 12 eps = 36 = 6^2 rational
    alpha, beta = -27, 54
    k = T.parse(f"{alpha}*t1^12 + 2*t0*t1^11 - t0^2*t1^10")
    l = T.parse(f"{beta}*t1^18 + t0*t1^17 + 5*t0^2*t1^16")
    model = toric.WeierstrassModel(R5, T.zero(), k, l)
    nm = toric.weierstrass_normalize(model)
    assert nm.eps == 3 and nm.theta.constant_term() ** 2 == 36
    # the cubic discriminant in s0 is a shift invariant: compare before/after
    j_out = T.constant(3 * nm.eps)  # quadratic coefficient rebuilt by squaring
    t1 = T.var("t1")
    k_out = T.var("t0") * nm.k1
    l_out = T.var("t0") * (T.var("t0") * nm.l1 + t1 ** 17 * nm.tau)
    before = cubic_discriminant(T.zero(), k, l)
    after = cubic_discriminant(j_out * t1 ** 6, k_out, l_out)
    rng = random.Random(17)
    for _ in range(5):
        point = {"t0": Fraction(rng.randint(-9, 9)), "t1": Fraction(rng.randint(1, 9))}
        assert evaluate(before, point) == evaluate(after, point)


def test_fiber_type_table():
    assert toric.fiber_type(1, 1) == "I1"
    assert toric.fiber_type(0, 1) == "II"
    assert toric.fiber_type(1, 0) == "I2"
    assert toric.fiber_type(0, 0) == "III"


def test_discriminant_examples():
    assert toric.discriminant(T.zero(), T.parse("t1^18")) == T.parse("27*t1^36")
    d = toric.discriminant(T.parse("-3*t1^12"), T.parse("2*t1^18"))
    assert d.is_zero()
    k = T.parse("-3*t1^12 + t0*t1^11")
    l = T.parse("2*t1^18 + 7*t0*t1^17")
    restricted = toric.discriminant(k, l).substitute({"t0": T.zero()})
    assert restricted == T.constant(4 * (-3) ** 3 + 27 * 4) * T.var("t1") ** 36


def test_reduce_square_rule():
    ring = PolyRing.of("x", "theta")
    p = ring.parse("theta^3*x + theta^2 + theta + 1")
    reduced = toric.reduce_square(p, "theta", ring.constant(12))
    assert reduced == ring.parse("12*theta*x + theta + 13")
