from fractions import Fraction

import pytest

from isurf import poly, rings
from isurf.errors import CertificateFailed, InvalidInput, NotFactorable, NotHomogeneous
from isurf.tsing import DEFAULT_ORDER, TSingularity


def test_canonical_generators_match_expected():
    table = rings.canonical_generators()
    expect = rings.expected_generator_table()
    assert table.entries == expect.entries
    assert table.extras == ()
    assert [d for _, _, d in table.entries] == [1, 1, 2, 3, 4, 4, 5, 7, 17]


def test_canonical_generators_is_computed_once():
    assert rings.canonical_generators() is rings.canonical_generators()


def test_specialize_standard_never_multiplies_p_by_itself(monkeypatch):
    plain = rings.generator_ring(with_p=False)
    p = rings.generic_degree_10(0).substitute({}, plain)
    assert len(p) == 153
    squares = []
    kernel = poly.product_terms
    packed = {key for key, _ in p.packed_form()[0]}

    def counted(a, b, *rest):
        # every product, ** and substitution runs through this kernel, on packed
        # keys; b is graded
        if a.keys() == packed and {key for key, _ in b} == packed:
            squares.append(1)
        return kernel(a, b, *rest)

    monkeypatch.setattr(poly, "product_terms", counted)
    p_squared = rings.standard_relations().ring.parse("P^2")
    assert p ** 2 == p * p and len(squares) == 2
    assert p_squared.substitute({"P": p}, plain) == p * p
    assert len(squares) == 4
    squares.clear()
    rings.specialize_standard(3, 2, 0)
    assert squares == []


def test_generator_monomials():
    t = rings.expected_generator_table()
    assert t.vector("x0") == (3, 9, 17, 5, 0, 0, 0)
    assert t.vector("z") == (0, 0, 0, 0, 0, 0, 1)
    assert t.vector("g") == (1, 3, 14, 0, 0, 5, 0)
    assert rings.canonical_degree(t.vector("g")) == 17


def test_binomials_vanish_and_control():
    table = rings.expected_generator_table()
    report = rings.verify_binomials(table, rings.standard_relations())
    assert len(report) == 10 and all(r["ok"] for r in report)
    ring = rings.standard_relations().ring
    bad = rings.RelationSystem(ring, (("R1", ring.parse("x0*y - x1^2*y")),))
    control = rings.verify_binomials(table, bad)
    assert [r["relation"] for r in control] == ["R1"] and not control[0]["ok"]


def test_a_non_homogeneous_fixture_relation_is_rejected_at_load(monkeypatch):
    # x0 has degree 1 and y degree 2; the relations are checked once, as parsed
    monkeypatch.setitem(rings._REL, "broken", {"params": [], "relations": {
        "R1": "x0*y - x1^3", "R2": "x0*y - x1^2"}})
    with pytest.raises(NotHomogeneous):
        rings._load_system("broken")
    monkeypatch.setitem(rings._REL, "broken", {"params": [], "relations": {"R1": "x0*y - x1^3"}})
    assert rings._load_system("broken").names() == ("R1",)
    rings._load_system.cache_clear()


def test_factorisation_choices_match_displayed_monomials():
    # the ambiguous monomials must factor the displayed way, not via the
    # binomially-equivalent alternative
    factor = rings.factor_over_generators(rings.expected_generator_table())
    assert factor((8, 9, 17, 4, 3, 1, 1)) == \
        {"x1": 2, "u1": 1, "z": 1}
    assert factor((7, 6, 13, 2, 3, 2, 1)) == \
        {"x1": 1, "u1": 2, "z": 1}
    assert factor((33, 14, 17, 4, 17, 0, 0)) == \
        {"x1": 2, "w": 3}
    assert factor((3, 9, 22, 4, 0, 3, 0)) == \
        {"u0": 1, "t": 1}
    assert factor((1, 1, 1, 1, 1, 1, 1)) is None


@pytest.mark.parametrize("seed", range(4))
def test_one_factoriser_for_many_vectors_equals_a_fresh_one_per_vector(seed):
    """The memo derive_relation shares across the terms of one call gives
    each term's core, before and after the lead is taken off, the
    factorisation of a fresh memo."""
    table = rings.expected_generator_table()
    F = rings.ambient_surface_equation(seed)
    ring = F.ring
    core_idx = [ring.index(v) for v in rings.AMBIENT_VARS]
    shared = rings.factor_over_generators(table)
    for excess in rings.EXCESS_MONOMIALS.values():
        lead = rings._detect_lead(F, ring.exponents(excess), table, ring)
        for exps in (F * ring.monomial(excess)).terms:
            core = tuple(exps[i] for i in core_idx)
            cores = [core, tuple(a - b for a, b in zip(core, table.vector(lead)))]
            for vec in cores:
                if min(vec) >= 0:
                    assert shared(vec) == rings.factor_over_generators(table)(vec), vec


def test_derive_relation_shapes_and_roundtrip():
    table = rings.expected_generator_table()
    F = rings.ambient_surface_equation(seed=0)
    derived = {name: rings.derive_relation(F, excess, table)
               for name, excess in rings.EXCESS_MONOMIALS.items()}
    ring = derived["R11"].ring
    th, ta = ring.var("theta"), ring.var("tau")
    v = {n: ring.var(n) for n in rings.GENERATOR_ORDER}
    p11, rest11 = rings.split_by_lead(derived["R11"], "x0")
    assert rest11 == th * v["x1"] ** 2 * v["u1"] * v["z"] \
        + ta * v["x1"] ** 2 * v["w"] ** 3 + v["u0"] * v["t"]
    p15, rest15 = rings.split_by_lead(derived["R15"], "t")
    assert rest15 == th * v["u1"] ** 3 * v["z"] + ta * v["u1"] ** 2 * v["w"] ** 3 + v["g"]
    assert p11 == p15
    amb = rings.ambient_ring("theta", "tau")
    assign = {n: table.monomial(n, amb) for n in table.names()}
    for name, excess in rings.EXCESS_MONOMIALS.items():
        assert derived[name].substitute(assign, ring=amb) == amb.monomial(excess) * F


def test_fixture_relations_agree_with_derivation():
    """The frozen relation system, with its opaque degree-10 symbol replaced
    by the derived bundled element, reproduces the derived relations."""
    table = rings.expected_generator_table()
    F = rings.ambient_surface_equation(seed=0)
    derived = {name: rings.derive_relation(F, excess, table)
               for name, excess in rings.EXCESS_MONOMIALS.items()
               if name != "R15"}
    target_ring = derived["R11"].ring
    p_value, _ = rings.split_by_lead(derived["R11"], "x0")
    std = rings.standard_relations()
    for name, rel in derived.items():
        fixture = std.get(name).substitute({"P": p_value}, ring=target_ring)
        assert fixture == rel, name


def test_derive_relation_not_factorable():
    table = rings.expected_generator_table()
    F = rings.ambient_surface_equation(seed=0)
    with pytest.raises(NotFactorable):
        rings.derive_relation(F, {}, table)


def test_relations_are_homogeneous_with_documented_degrees():
    std = rings.standard_relations()
    weights = dict(rings.GENERATOR_DEGREES)
    expected_degrees = {"R1": 3, "R2": 4, "R3": 4, "R4": 5, "R5": 6, "R6": 7,
                        "R7": 8, "R8": 8, "R9": 9, "R10": 10, "R11": 11,
                        "R12": 11, "R13": 12, "R14": 14}
    for name in std.names():
        assert std.get(name).weighted_degree(weights) == expected_degrees[name]


def test_r14_equivalence_certificate():
    std = rings.standard_relations()
    ring = std.ring
    rewritten = rings.r14_rewritten(ring)
    diff = rewritten - std.get("R14") \
        + ring.parse("theta*x1*u1^2*z") + ring.parse("tau*u1*w^2") * std.get("R3")
    assert diff.is_zero()


def test_verify_format_all_fixtures():
    for label, (fmt, rels) in rings.load_formats().items():
        report = rings.verify_format(fmt, rels)
        assert all(c["ok"] for c in report["checks"]), label
    coro = rings.load_formats()["rank6"]
    covered = rings.verify_format(*coro)["covered"]
    assert sorted(covered, key=lambda s: int(s[1:])) == [f"R{i}" for i in range(1, 15)]


def test_verify_format_detects_corruption():
    fmt, rels = rings.load_formats()["rank6"]
    bad = rings.RelationSystem(
        rels.ring,
        tuple((n, r if n != "R1" else r + rels.ring.parse("x1^3"))
              for n, r in rels.relations))
    with pytest.raises(CertificateFailed):
        rings.verify_format(fmt, bad)


def test_family_coverage_union():
    formats = rings.load_formats()
    union = set()
    for label in ("family_m1", "family_m2"):
        union |= set(rings.verify_format(*formats[label])["covered"])
    assert sorted(union, key=lambda s: int(s[1:])) == [f"R{i}" for i in range(1, 15)]


def test_smoothing_elimination_identities_and_residual():
    fam = rings.family_relations()
    elim = rings.smoothing_eliminate(
        fam, ["lam", "tau"], [("R1", "w"), ("R2", "u0"), ("R3", "u1"), ("R6", "t")])
    assert {"R4", "R8", "R9"} <= set(elim.identities)
    res = {n: (c, p) for n, c, p in elim.residuals}
    clear10, poly10 = res["R10"]
    ring = poly10.ring
    assert str(clear10) == "lam^11*tau^3"
    q = ring.parse("x0*y - x1^3")
    lam, tau, P = ring.var("lam"), ring.var("tau"), ring.var("P")
    x0, x1, y = ring.var("x0"), ring.var("x1"), ring.var("y")
    display = x0 * q ** 3 + 3 * lam ** 3 * tau * x1 ** 2 * y * q ** 2 \
        + 3 * lam ** 6 * tau ** 2 * x1 * y ** 3 * q \
        + lam ** 9 * tau ** 3 * y ** 5 + lam ** 12 * tau ** 3 * P
    assert poly10 == display


def test_smoothing_elimination_lam_theta_pair():
    lt = rings.lam_theta_relations()
    lt0 = rings.RelationSystem(
        lt.ring, tuple((n, r.substitute({"theta": lt.ring.zero()}))
                       for n, r in lt.relations))
    elim = rings.smoothing_eliminate(lt0, ["lam"],
                                     [("R2", "u0"), ("R3", "u1"), ("R6", "t")])
    res = {n: p for n, _, p in elim.residuals}
    ring = res["R10"].ring
    assert res["R1"] == ring.parse("x0*y - x1^3")
    assert res["R10"] == ring.parse(
        "lam^3*P + y^5 - 3*x1*y^3*w + 3*x1^2*y*w^2 - x0*w^3")


def test_smoothing_elimination_plan_order_independence():
    fam = rings.family_relations()
    plan_a = [("R1", "w"), ("R2", "u0"), ("R3", "u1"), ("R6", "t")]
    plan_b = [("R2", "u0"), ("R1", "w"), ("R3", "u1"), ("R6", "t")]
    ra = rings.smoothing_eliminate(fam, ["lam", "tau"], plan_a)
    rb = rings.smoothing_eliminate(fam, ["lam", "tau"], plan_b)
    res_a = {n: p for n, _, p in ra.residuals}
    res_b = {n: p for n, _, p in rb.residuals}
    assert set(ra.identities) == set(rb.identities)
    assert res_a["R10"] == res_b["R10"]


def test_smoothing_elimination_errors():
    fam = rings.family_relations()
    with pytest.raises(InvalidInput, match="coefficient of w in R1 involves the non-invertible tau"):
        rings.smoothing_eliminate(fam, ["lam"], [("R1", "w")])
    with pytest.raises(InvalidInput, match="R13 is not linear in u1"):
        rings.smoothing_eliminate(fam, ["lam", "tau"], [("R13", "u1")])
    ring = poly.PolyRing.of("x", "y", "z")
    two_terms = rings.RelationSystem(ring, (("R", ring.parse("x*z + y*z + 1")),))
    with pytest.raises(InvalidInput, match="R has a non-monomial coefficient on z"):
        rings.smoothing_eliminate(two_terms, [], [("R", "z")])


def test_m1_pfaffians_are_signed_relations():
    fmt, rels = rings.load_formats()["family_m1"]
    ring = rels.ring
    targets = {}
    for cert in fmt.certificates:
        if cert.kind != "pfaffian":
            continue
        assert len(cert.combo) == 1
        mult, name = cert.combo[0]
        assert mult in (ring.one(), -ring.one())
        targets[name] = mult
    assert set(targets) == {"R6", "R8", "R10", "R12", "R14"}


def test_solving_r13_on_the_z_chart_for_y():
    from isurf.series import TruncatedSeries, solve_system

    specialized = rings.specialize_standard(Fraction(3), Fraction(2), seed=0)
    ring = specialized.ring
    r13 = specialized.get("R13").substitute({"z": ring.one()})
    g = solve_system([TruncatedSeries(r13, 8)], ["y"])["y"]
    # back-substitution vanishes and the cubic term of the solution is u1^3
    assert TruncatedSeries(r13, 8).substitute({"y": g}).is_zero()
    u1_cubed = tuple(3 if v == "u1" else 0 for v in ring.variables)
    assert g.coefficient(u1_cubed) == 1


def test_chart_uz_classifies_index_25():
    specialized = rings.specialize_standard(Fraction(3), Fraction(2), seed=0)
    cls = rings.chart_singularity(specialized, rings.CHARTS["Uz"], DEFAULT_ORDER)
    assert cls.same_singularity(TSingularity(1, 5, 3))


def test_chart_pw_classifies_index_9_and_18():
    spec1 = rings.specialize_standard(Fraction(3), Fraction(0), seed=0)
    cls1 = rings.chart_singularity(spec1, rings.CHARTS["Pw"], DEFAULT_ORDER)
    assert cls1.same_singularity(TSingularity(1, 3, 2))
    spec2 = rings.specialize_standard(Fraction(0), Fraction(0), seed=0)
    cls2 = rings.chart_singularity(spec2, rings.CHARTS["Pw"], DEFAULT_ORDER)
    assert cls2.same_singularity(TSingularity(2, 3, 1))


def _special_smoothing_theta(seed, theta) -> bool:
    """theta (C theta^2 - A B theta - A^2) = 0, with A = P[w^2 u1],
    B = P[y w z] and C = P[y^2 w^2] + P[x1 w^3] for P = generic_degree_10(seed).
    At w = 1 and tau = 0 the eliminations give x1 = y^2, x0 = y^5,
    u0 = y^3 u1 and t = y u1^2, so the germ's quadratic part is
    u1 (A y + theta z); as P[z^2] = -1, the cubic part along its kernel is
    theta (C theta^2 - A B theta - A^2)."""
    p = rings.generic_degree_10(seed)

    def coeff(**powers):
        return p.coefficient(p.ring.exponents(powers))

    a, b = coeff(w=2, u1=1), coeff(y=1, w=1, z=1)
    c = coeff(y=2, w=2) + coeff(x1=1, w=3)
    return theta * (c * theta ** 2 - a * b * theta - a * a) == 0


@pytest.mark.parametrize("seed, theta, special", [
    (234, 3, True), (252, 3, True), (275, 3, True),
    *((seed, 3, False) for seed in (0, 1, 2, *range(4, 13))),
    (3, 1, True), (3, Fraction(-1, 4), True), (13, -4, True), (13, -2, True),
    (18, 6, True), (18, Fraction(-6, 7), True),
    (3, 2, False), (13, -3, False), (18, 7, False),
    *((seed, 0, True) for seed in range(5)),
])
def test_smoothing_pw_point_is_special_exactly_where_the_cubic_vanishes(seed, theta, special):
    """The Pw point of the tau = 0 member reads 1/18(1,5) on the special
    locus and the general 1/9(1,2) off it; theta = 0 is the cusp member."""
    assert _special_smoothing_theta(seed, theta) == special
    member = rings.specialize_standard(theta, Fraction(0), seed)
    got = rings.chart_singularity(member, rings.CHARTS["Pw"], DEFAULT_ORDER)
    assert str(got) == ("1/18(1,5)" if special else "1/9(1,2)")


def test_smoothing_special_locus_at_theta_3_is_three_seeds():
    assert [seed for seed in range(300) if _special_smoothing_theta(seed, 3)] == [234, 252, 275]


def test_chart_pw_absent_when_the_surface_misses_the_point():
    spec = rings.specialize_standard(Fraction(3), Fraction(2), seed=0)
    assert rings.chart_singularity(spec, rings.CHARTS["Pw"], DEFAULT_ORDER) == "absent"


def test_fixed_part_shapes():
    rels = rings.standard_relations()
    ring = rels.ring
    fp = rings.fixed_part(rels)
    assert fp == ring.parse("w*(theta*u1*z + tau*w^3) + u1^3")
    triple = fp.substitute({"theta": ring.zero(), "tau": ring.zero()})
    assert triple == ring.parse("u1^3")


def test_generic_degree_10_is_homogeneous_and_seed_stable():
    p1 = rings.generic_degree_10(0)
    p2 = rings.generic_degree_10(0)
    p3 = rings.generic_degree_10(1)
    assert p1 == p2 and p1 != p3
    assert p1.weighted_degree(dict(rings.GENERATOR_DEGREES)) == 10
    z2 = tuple(2 if v == "z" else 0 for v in p1.ring.variables)
    assert p1.coefficient(z2) == -1
