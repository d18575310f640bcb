"""Named verification scenarios with machine-readable reports.

Each scenario runs a battery of exact checks and reports expected/actual
values in canonical text form.  Provenance of an expected value is one of
"reference" (a published value), "derived" (recomputed here by an
independent route) or "direct" (definitional).
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from . import curves as cv
from . import rings, toric, tsing, wps
from .errors import NotDivisible, NotFactorable, UnknownScenario
from .lattice import (IntegerMatrix, gale_rays as lattice_gale_rays, kernel_basis,
                      unimodular_normal_form)
from .poly import PolyRing


class Params(NamedTuple):
    seed: int
    order: int
    values: Mapping[str, Fraction]

    def get(self, name: str, default=None):
        return self.values.get(name, default)


def check(desc, expected, actual, provenance, anchor) -> dict:
    """One report entry; expected and actual compare in canonical text form."""
    expected, actual = str(expected), str(actual)
    return {"desc": desc, "expected": expected, "actual": actual,
            "provenance": provenance, "anchor": anchor, "ok": expected == actual}


class Scenario(NamedTuple):
    name: str
    tags: tuple[str, ...]
    anchor: str
    params: tuple[str, ...]  # the Params.values names the runner reads
    runner: Callable[[Params], list[dict]]


_REGISTRY: dict[str, Scenario] = {}


def scenario(name: str, tags: tuple[str, ...], anchor: str, params: tuple[str, ...] = ()):
    def wrap(fn):
        _REGISTRY[name] = Scenario(name, tags, anchor, params, fn)
        return fn
    return wrap


def find_scenario(name: str) -> Scenario:
    if name not in _REGISTRY:
        raise UnknownScenario(f"unknown scenario {name!r}")
    return _REGISTRY[name]


def list_scenarios(tag: str | None = None) -> list[Scenario]:
    out = [s for s in _REGISTRY.values() if tag is None or tag in s.tags]
    return sorted(out, key=lambda s: s.name)


_PACKAGE_DIR = Path(__file__).resolve().parent


def _raised_at(exc: BaseException) -> str:
    """``isurf/<module>.py:<function>`` of the innermost traceback frame in
    this package (``run`` itself is the outermost, so there is always one).
    It names no line, so an edit elsewhere in the module leaves the report
    of an unchanged computation as it was."""
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if Path(code.co_filename).resolve().is_relative_to(_PACKAGE_DIR):
            innermost = code
        tb = tb.tb_next
    path = Path(innermost.co_filename).resolve().relative_to(_PACKAGE_DIR.parent)
    return f"{path.as_posix()}:{innermost.co_name}"


def run(name: str, params: Params, timing: bool) -> dict:
    runner = find_scenario(name).runner
    start = time.monotonic()
    status = "pass"
    try:
        checks = runner(params)
        if not all(c["ok"] for c in checks):
            status = "fail"
    except Exception as exc:  # surfaced in the report, nonzero exit
        checks = [check("scenario execution", "no exception",
                        f"{type(exc).__name__}: {exc} (at {_raised_at(exc)})",
                        "direct", "runner")]
        status = "error"
    report = {
        "scenario": name,
        "status": status,
        "checks": checks,
        "seed": params.seed,
    }
    if timing:
        report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    return report


# ---------------------------------------------------------------------------
# section 2 / section 5 combinatorics


@scenario("table1", ("section2", "tsing"),
          "continued-fraction strings of the one-singularity table")
def _table1(params: Params) -> list[dict]:
    out = []
    rows = [((4, 1), [4], "index-2 row, d=1"),
            ((18, 5), [4, 3, 2], "index-3 row"),
            ((25, 14), [2, 5, 3], "index-5 row")]
    for (p, q), expect, anchor in rows:
        out.append(check(f"expansion of {p}/{q}", expect, tsing.hj_expand(p, q),
                         "reference", anchor))
    for d, expect in ((2, [3, 3]), (3, [3, 2, 3]), (5, [3, 2, 2, 2, 3])):
        got = tsing.hj_expand(4 * d, 2 * d - 1)
        out.append(check(f"index-2 string for d={d}", expect, got,
                         "reference", "index-2 row, general d"))
        out.append(check(f"index-2 chain family formula, d={d}",
                         got, tsing.index_two_chain(d), "derived",
                         "string family [3,2,...,2,3]"))
    for chain, expect in (([4], "1/4(1,1)"), ([2, 5, 3], "1/25(1,14)"),
                          ([4, 3, 2], "1/18(1,5)"), ([2, 2], "A_2"),
                          ([2, 6], "unrecognized(11/6 is not of the form dn^2/(dna-1))")):
        out.append(check(f"recognition of {chain}", expect,
                         tsing.recognize_tchain(chain), "reference",
                         "chain recognition"))
    out.append(check("index-2 catalogue row records the bound d <= 32", 32,
                     tsing.INDEX_TWO_D_MAX, "reference",
                     "catalogue metadata (not enforced arithmetically)"))
    return out


@scenario("table2", ("section5", "tsing"),
          "codiscrepancy coefficients of the three singularities")
def _table2(params: Params) -> list[dict]:
    out = []
    rows = [([4], ["1/2"]), ([4, 3, 2], ["2/3", "2/3", "1/3"]),
            ([3, 5, 2], ["3/5", "4/5", "2/5"])]
    for chain, expect in rows:
        got = [str(c) for c in tsing.codiscrepancy(chain).coefficients]
        out.append(check(f"codiscrepancy of {chain}", expect, got,
                         "reference", "codiscrepancy table"))
    sweep_ok = True
    count = 0
    for sing in _all_t_types(200):
        chain = tsing.hj_expand(sing.order, sing.weight)
        d2 = tsing.delta_squared(tsing.codiscrepancy(chain))
        if d2 != sing.d - len(chain) - 1:
            sweep_ok = False
        rev = chain[::-1]
        if not sing.same_singularity(tsing.recognize_tchain(rev)) or \
                tsing.delta_squared(tsing.codiscrepancy(rev)) != d2:
            sweep_ok = False
        count += 1
    out.append(check(f"delta^2 = d - r - 1 sweep over {count} chains (order <= 200), "
                     "with reversal conjugacy", True, sweep_ok, "derived",
                     "self-intersection of the codiscrepancy divisor"))
    for sings, expect in (([[3, 5, 2], [4]], "-3"), ([[2, 5, 3], [4, 3, 2]], "-4"),
                          ([[4]], "0")):
        out.append(check(f"resolution K^2 bookkeeping for {sings}", expect,
                         tsing.ktilde_squared(sings), "derived",
                         "1 + sum of codiscrepancy squares"))
    return out


def _all_t_types(bound: int):
    out = []
    n = 2
    while n * n <= bound:
        d = 1
        while d * n * n <= bound:
            for a in range(1, n):
                if gcd(a, n) == 1:
                    out.append(tsing.TSingularity(d, n, a))
            d += 1
        n += 1
    return out


# ---------------------------------------------------------------------------
# section 3: elliptic surface, toric layer


@scenario("weierstrass", ("section3", "toric"),
          "normal form of the relative sextic with a singular fiber over t0=0")
def _weierstrass(params: Params) -> list[dict]:
    out = []
    T = PolyRing.of("t0", "t1")
    R5 = PolyRing.of(*toric.F_VARS)
    j = T.parse("3*t1^6")
    k = T.parse("3*t1^12 + t0*t1^11 + 5*t0^2*t1^10")
    l = T.parse("t1^18 + 7*t0*t1^17 + t0^2*t1^16")
    nm = toric.weierstrass_normalize(toric.WeierstrassModel(R5, j, k, l))
    out.append(check("j-shift removes the quadratic fiber term (eps branch)",
                     "0", nm.eps, "derived", "coordinate shift on s0"))
    k2 = T.parse("-3*t1^12 + t0*t1^11")
    l2 = T.parse("2*t1^18 + 7*t0*t1^17 + t0^2*t1^16")
    nm2 = toric.weierstrass_normalize(toric.WeierstrassModel(R5, T.zero(), k2, l2))
    out.append(check("leading coefficients (-3, 2) give eps = 1", "1", nm2.eps,
                     "reference", "eps from the pure-t1 coefficients"))
    out.append(check("theta formal when 12*eps is not a rational square", True,
                     "theta" in nm2.ring.variables, "reference",
                     "square-root branch choice"))
    nm0 = toric.weierstrass_normalize(toric.WeierstrassModel(
        R5, T.zero(), T.parse("t0*t1^11"), T.parse("t0^2*t1^16 + 4*t0*t1^17")))
    out.append(check("vanishing leading coefficients give the cusp branch (eps=theta=0)",
                     "(0, 0)", f"({nm0.eps}, {nm0.theta.constant_term()})", "direct",
                     "cusp case"))
    table = [((1, 1), "I1"), ((0, 1), "II"), ((1, 0), "I2"), ((0, 0), "III")]
    for (th, ta), expect in table:
        out.append(check(f"fiber type at (theta, tau) = ({th}, {ta})", expect,
                         toric.fiber_type(th, ta), "reference",
                         "fiber type table"))
    disc = toric.discriminant(k2, l2)
    out.append(check("discriminant is homogeneous of degree 36", 36,
                     disc.weighted_degree({"t0": 1, "t1": 1}), "direct",
                     "4k^3 + 27l^2"))
    restricted = disc.substitute({"t0": T.zero()})
    out.append(check("discriminant restricted to t0=0 equals 4a^3+27b^2 (= 0 here)",
                     str(T.zero()), restricted, "reference",
                     "vanishing discriminant at the singular fiber"))
    out.append(check("trivial k: discriminant of (0, t1^18)", "27*t1^36",
                     toric.discriminant(T.zero(), T.parse("t1^18")), "direct",
                     "pure cusp discriminant"))
    return out


@scenario("gale-rays", ("section3", "toric", "lattice"),
          "ray relations dual to the grading rows")
def _gale(params: Params) -> list[dict]:
    out = []
    rays = toric.gale_rays(toric.FTILDE_PRESENTATION)
    vc = tuple(2 * a + b + c for a, b, c in zip(rays["t0"], rays["s0"], rays["ze"]))
    out.append(check("v_c = 2 v_t0 + v_s0 + v_ze", rays["c"], vc,
                     "reference", "first blowup ray relation"))
    ve = tuple(a + b + c for a, b, c in zip(rays["t0"], rays["ze"], rays["c"]))
    out.append(check("v_e = v_t0 + v_ze + v_c", rays["e"], ve,
                     "reference", "second blowup ray relation"))
    p2 = lattice_gale_rays(IntegerMatrix([[1, 1, 1]]))
    out.append(check("projective plane rays sum to zero", "(0, 0)",
                     tuple(sum(c) for c in zip(*p2)), "direct",
                     "rank-one grading"))
    inter = toric.toric_blowup(toric.F_PRESENTATION, "c", (2, 0, 0, 1, 1, -1))
    full = toric.toric_blowup(inter, "e", (1, 0, 0, 0, 1, 1, -1))
    out.append(check("two blowups rebuild the bundled grading",
                     toric.FTILDE_PRESENTATION.weights.rows, full.weights.rows,
                     "reference", "extended grading matrix"))
    before = toric.gale_rays(toric.F_PRESENTATION)
    after = toric.gale_rays(inter)
    same = unimodular_normal_form([before[v] for v in toric.F_VARS]) \
        == unimodular_normal_form([after[v] for v in toric.F_VARS])
    out.append(check("old rays change by one unimodular transform under blowup",
                     True, same, "derived", "ray lattice comparison"))
    out.append(check("kernel of [[1, 1]]", ((1, -1),),
                     kernel_basis(IntegerMatrix([[1, 1]])).rows, "direct",
                     "rank-one kernel"))
    out.append(check("kernel of the identity is empty", (),
                     kernel_basis(IntegerMatrix([[1, 0], [0, 1]])).rows,
                     "direct", "trivial kernel"))
    return out


@scenario("ytilde-blowup", ("section3", "toric"),
          "strict transforms, multidegrees and the weighted-space collapse")
def _ytilde(params: Params) -> list[dict]:
    out = []
    seed = params.seed
    parent = rings.parent_equation(seed)
    R6 = PolyRing.of("t0", "t1", "s1", "s0", "ze", "c", "theta", "tau")
    first = toric.blowup_transform(
        parent,
        {"t0": R6.var("c") ** 2 * R6.var("t0"), "s0": R6.var("c") * R6.var("s0"),
         "ze": R6.var("c") * R6.var("ze")},
        R6.var("c") ** 2)
    expected_first = rings.relative_sextic(R6, seed)
    out.append(check("first strict transform matches the displayed equation",
                     True, first == expected_first, "reference",
                     "pull back and divide by c^2"))
    R7 = PolyRing.of(*toric.FTILDE_VARS, "theta", "tau")
    second = toric.blowup_transform(
        first,
        {"t0": R7.var("e") * R7.var("t0"), "ze": R7.var("e") * R7.var("ze"),
         "c": R7.var("e") * R7.var("c")},
        R7.var("e"))
    bundled = rings.double_blowup_equation(seed)
    out.append(check("second strict transform matches the bundled equation",
                     True, second == bundled, "reference",
                     "pull back and divide by e"))
    core = _strip_params(bundled)
    out.append(check("multidegree of the proper transform", (0, 6, 2, 1),
                     toric.multidegree(core, toric.FTILDE_PRESENTATION.weights),
                     "reference", "hypersurface multidegree"))
    out.append(check("multidegree under the shifted grading", (6, 18, 34, 51),
                     toric.multidegree(core, toric.SHIFTED_WEIGHTS),
                     "reference", "shifted grading multidegree"))
    ze_col = toric.SHIFTED_WEIGHTS.column(toric.FTILDE_VARS.index("ze"))
    out.append(check("cover variable column of the shifted grading",
                     (3, 9, 17, 25), ze_col, "reference",
                     "weighted-space weights"))
    same = unimodular_normal_form(toric.FTILDE_PRESENTATION.weights.transpose().rows) \
        == unimodular_normal_form(toric.SHIFTED_WEIGHTS.transpose().rows)
    out.append(check("shifted grading is a unimodular change of the bundled one",
                     True, same, "derived", "integral change of degree coordinates"))
    # collapse
    collapsed = toric.wps_collapse(bundled)
    W = collapsed.ring
    wdeg = _strip_params(collapsed).weighted_degree(toric.WPS_WEIGHTS)
    out.append(check("collapse lands in weighted degree 51", 51, wdeg,
                     "reference", "degree of the collapsed form"))
    shape_ok = _collapse_shape_ok(collapsed, W)
    out.append(check("collapsed form is e*P50 + tau*t1^17 + theta*t1^3*s0*ze + s0^3",
                     True, shape_ok, "reference", "collapsed equation shape"))
    mono = PolyRing.of(*toric.FTILDE_VARS).parse("c*s0^3")
    out.append(check("collapse of c*s0^3", "s0^3",
                     toric.wps_collapse(mono), "direct", "monomial collapse"))
    return out


def _strip_params(p):
    ring = PolyRing.of(*(v for v in p.ring.variables if v not in ("theta", "tau")))
    return p.substitute({"theta": 1, "tau": 1}, ring=ring)


def _collapse_shape_ok(collapsed, W: PolyRing) -> bool:
    e, t1, s0, ze = (W.var(v) for v in ("e", "t1", "s0", "ze"))
    theta, tau = W.var("theta"), W.var("tau")
    rest = collapsed - tau * t1 ** 17 - theta * t1 ** 3 * s0 * ze - s0 ** 3
    try:
        p50 = rest.exact_divide(e)
    except NotDivisible:
        return False
    deg = {**toric.WPS_WEIGHTS, "theta": 0, "tau": 0}
    return p50.weighted_degree(deg) == 50 and \
        p50.coefficient(tuple(2 if v == "ze" else 0 for v in W.variables)) == -1


# ---------------------------------------------------------------------------
# section 3: generators and relations


@scenario("generators", ("section3", "rings", "lattice"),
          "minimal monoid generators of the graded cone")
def _generators(params: Params) -> list[dict]:
    out = []
    table = rings.canonical_generators()
    out.append(check("number of generators", 9, len(table.entries), "reference",
                     "nine ring generators"))
    out.append(check("unexpected basis elements", (), table.extras, "derived",
                     "minimality of the printed list"))
    out.append(check("canonical degrees", [1, 1, 2, 3, 4, 4, 5, 7, 17],
                     [d for _, _, d in table.entries], "reference",
                     "generator degree column"))
    expect = rings.expected_generator_table()
    for name in ("x0", "z", "g"):
        out.append(check(f"exponent vector of {name}", expect.vector(name),
                         table.vector(name), "reference",
                         f"monomial of {name}"))
    return out


@scenario("binomials", ("section3", "rings"),
          "the ten binomial relations vanish on the generator monomials")
def _binomials(params: Params) -> list[dict]:
    out = []
    table = rings.canonical_generators()
    report = rings.verify_binomials(table, rings.standard_relations())
    for entry in report:
        out.append(check(f"{entry['relation']} vanishes identically", "0",
                         entry["residual"], "reference", "binomial relations"))
    ring = rings.standard_relations().ring
    bad = rings.RelationSystem(ring, (("R1", ring.parse("x0*y - x1^2*y")),))
    control = rings.verify_binomials(table, bad)
    out.append(check("corrupted relation leaves a residual", False,
                     control[0]["ok"], "direct", "negative control"))
    return out


@scenario("derive-r11", ("section3", "rings"),
          "excess-monomial rewriting of the surface equation")
def _derive(params: Params) -> list[dict]:
    out = []
    table = rings.expected_generator_table()
    F = rings.ambient_surface_equation(params.seed)
    derived = {name: rings.derive_relation(F, excess, table)
               for name, excess in rings.EXCESS_MONOMIALS.items()}
    ring = derived["R11"].ring
    std = rings.standard_relations()
    # the standard relations display R11-R14 as lead*P plus these terms; they have no R15
    shapes = {name: (lead, std.get(name).substitute({"P": ring.zero()}, ring=ring))
              for name, lead in (("R11", "x0"), ("R12", "x1"), ("R13", "y"), ("R14", "u0"))}
    shapes["R15"] = ("t", ring.parse("theta*u1^3*z + tau*u1^2*w^3 + g"))
    p_parts = {}
    for name, (lead, expected_rest) in shapes.items():
        p_part, rest = rings.split_by_lead(derived[name], lead)
        p_parts[name] = p_part
        out.append(check(f"{name} displayed monomials outside {lead}*P", True,
                         rest == expected_rest, "reference",
                         f"shape of relation {name}"))
    same_p = all(p_parts[n] == p_parts["R11"] for n in p_parts)
    out.append(check("one general degree-10 element shared by all five", True,
                     same_p, "derived", "common bundled element"))
    out.append(check("degree of the first derived relation", 11,
                     derived["R11"].weighted_degree(rings.GENERATOR_DEGREES), "direct",
                     "degree bookkeeping"))
    amb = rings.ambient_ring("theta", "tau")
    assign = {n: table.monomial(n, amb) for n in table.names()}
    all_exact = True
    for name, excess in rings.EXCESS_MONOMIALS.items():
        back = derived[name].substitute(assign, ring=amb)
        if back != amb.monomial(excess) * F:
            all_exact = False
    out.append(check("back-substitution reproduces excess times the equation",
                     True, all_exact, "derived", "exact identity"))
    out.append(check("g enters the fifth relation linearly", 1,
                     derived["R15"].degree_in("g"), "reference",
                     "elimination of the degree-17 generator"))
    try:
        rings.derive_relation(F, {}, table)
        caught = False
    except NotFactorable:
        caught = True
    out.append(check("trivial excess is rejected as non-factorable", True,
                     caught, "direct", "negative control"))
    return out


@scenario("cor-pfaffian", ("section3", "rings"),
          "the rank-six skew format certifies all fourteen relations", ("theta", "tau"))
def _cor_pfaffian(params: Params) -> list[dict]:
    out = []
    fmt, rels = rings.load_formats()["rank6"]
    report = rings.verify_format(fmt, rels)
    out.append(check("certificates verified", True,
                     all(c["ok"] for c in report["checks"]), "reference",
                     "Pfaffians and products of the format"))
    out.append(check("coverage of the relation list",
                     [f"R{i}" for i in range(1, 15)],
                     sorted(report["covered"], key=lambda s: int(s[1:])),
                     "direct", "certificate coverage"))
    theta = params.get("theta", GENERAL_THETA)
    tau = params.get("tau", GENERAL_TAU)
    specialized = rings.specialize_standard(theta, tau, params.seed)
    cls = rings.chart_singularity(specialized, rings.CHARTS["Uz"], params.order)
    out.append(check("germ at the index-5 chart for general parameters",
                     True, _is_type(cls, 1, 5, 3), "reference",
                     "local normal form at the fifth coordinate point"))
    return out


def _is_type(cls, d, n, a) -> bool:
    return isinstance(cls, tsing.TSingularity) and \
        cls.same_singularity(tsing.TSingularity(d, n, a))


# the germ cases (description, ..., predicate) of wps51 and family-munu
GENERAL_THETA, GENERAL_TAU = Fraction(3), Fraction(2)
WPS51_GERMS = (
    ("index-5 point, general parameters", "ze", GENERAL_THETA, GENERAL_TAU,
     lambda c: _is_type(c, 1, 5, 3)),
    ("index-17 point avoided", "s0", GENERAL_THETA, GENERAL_TAU,
     lambda c: c == "absent"),
    ("index-3 point absent for nonzero tau", "t1", GENERAL_THETA, GENERAL_TAU,
     lambda c: c == "absent"),
    ("index-3 point for tau = 0", "t1", GENERAL_THETA, Fraction(0),
     lambda c: _is_type(c, 1, 3, 2)),
    ("index-3 point for tau = theta = 0", "t1", Fraction(0), Fraction(0),
     lambda c: _is_type(c, 2, 3, 1)),
)
FAMILY_GERMS = (
    ("mu, nu general: base point off the surface", 1, 1, "y",
     lambda c: c == "absent"),
    ("mu general, nu = 0: one index-2 point", 1, 0, "y",
     lambda c: _is_type(c, 1, 2, 1)),
    ("mu = 0: index-3 point at the u-chart", 0, 1, "u",
     lambda c: _is_type(c, 2, 3, 1)),
    ("mu = nu = 0: index-2 point persists", 0, 0, "y",
     lambda c: _is_type(c, 1, 2, 1)),
    ("mu = nu = 0: index-3 point persists", 0, 0, "u",
     lambda c: _is_type(c, 2, 3, 1)),
)


@scenario("fixed-part", ("section3", "rings"),
          "the base curve of the canonical system and its degenerations")
def _fixed_part(params: Params) -> list[dict]:
    out = []
    rels = rings.standard_relations()
    ring = rels.ring
    general = rings.fixed_part(rels)
    expect = ring.parse("w*(theta*u1*z + tau*w^3) + u1^3")
    out.append(check("general fixed curve", str(expect), general, "reference",
                     "restriction of the twelfth-degree relation"))
    at_theta0 = general.substitute({"theta": ring.zero()})
    out.append(check("theta = 0 degeneration is a cone (no z)", 0,
                     at_theta0.degree_in("z"), "reference",
                     "cone with vertex at the z-point"))
    at_tau0 = general.substitute({"tau": ring.zero()})
    factored = at_tau0.exact_divide(ring.var("u1"))
    out.append(check("tau = 0 degeneration splits off the u1 line",
                     ring.parse("theta*w*z + u1^2"), factored, "reference",
                     "two components through both vertices"))
    both = general.substitute({"theta": ring.zero(), "tau": ring.zero()})
    out.append(check("theta = tau = 0 degeneration is the triple line", "u1^3",
                     both, "reference", "triple line"))
    return out


@scenario("hilbert-series", ("section3", "rings"),
          "the resolution data reproduces the canonical Hilbert series")
def _hilbert(params: Params) -> list[dict]:
    out = []
    res = wps.bundled_resolution()
    out.append(check("Betti list sizes", (14, 35), (len(res.l1), len(res.l2)),
                     "reference", "rank bookkeeping"))
    hs = wps.hilbert_series_from_resolution(res)
    fs = wps.footnote_series()
    out.append(check("series equals (1-t^10)/((1-t)^2 (1-t^2)(1-t^5))", True,
                     hs.equals(fs), "reference", "closed form of the series"))
    coeffs = hs.coefficients(2)
    out.append(check("genus count at degree one", "2", coeffs[1], "reference",
                     "two canonical sections"))
    out.append(check("dimension at degree two", "4", coeffs[2], "reference",
                     "four bicanonical sections"))
    inv = wps.wps_hypersurface_invariants(10, (1, 1, 2, 5))
    out.append(check("degree-10 model in P(1,1,2,5) has the same series", True,
                     inv.series.equals(fs), "derived", "hypersurface series"))
    return out


@scenario("wps51", ("section3", "wps"),
          "the degree-51 model in P(1,3,17,25)", ("theta", "tau"))
def _wps51(params: Params) -> list[dict]:
    out = []
    inv = wps.wps_hypersurface_invariants(51, (1, 3, 17, 25))
    out.append(check("canonical degree by adjunction", 5, inv.canonical_degree,
                     "reference", "degree of the canonical class"))
    out.append(check("canonical self-intersection", "1", inv.k_squared,
                     "reference", "degree computation"))
    out.append(check("first section counts", ["1", "1", "1", "2"],
                     [str(c) for c in inv.series.coefficients(3)], "derived",
                     "weighted series expansion"))
    seed = params.seed
    for desc, point, th, ta, pred in WPS51_GERMS:
        got = wps.s51_point_analysis(point, th, ta, seed, params.order)
        out.append(check(f"{desc} [{got}]", True, pred(got), "reference",
                         "coordinate point analysis"))
    if params.get("theta") is not None or params.get("tau") is not None:
        th = params.get("theta", GENERAL_THETA)
        ta = params.get("tau", GENERAL_TAU)
        got = wps.s51_point_analysis("t1", th, ta, seed, params.order)
        out.append(check(f"index-3 point at the requested parameters [{got}]",
                         "reported", "reported", "direct",
                         "user-supplied parameter values"))
    return out


@scenario("lemma-smoothing", ("section4", "rings"),
          "the rank-five formats and the one-parameter smoothing", ("theta",))
def _smoothing(params: Params) -> list[dict]:
    out = []
    formats = rings.load_formats()
    reports = {label: rings.verify_format(*formats[label])
               for label in ("family_m1", "family_m2")}
    for label, report in reports.items():
        out.append(check(f"{label} certificates", True,
                         all(c["ok"] for c in report["checks"]), "reference",
                         "Pfaffians and products of the deformed format"))
    fmt, rels = formats["family_m1"]
    fifth = next(c for c in fmt.certificates
                 if c.kind == "product" and c.index == (4,))
    names = sorted(name for _, name in fifth.combo)
    out.append(check("fifth product entry combines R11 with a multiple of R3",
                     ["R11", "R3"], names, "reference",
                     "correction term in the matrix product"))
    union = set(reports["family_m1"]["covered"]) | set(reports["family_m2"]["covered"])
    out.append(check("the two formats cover all fourteen relations",
                     [f"R{i}" for i in range(1, 15)],
                     sorted(union, key=lambda s: int(s[1:])), "direct",
                     "certificate coverage"))
    std = rings.standard_relations()
    rw = rings.r14_rewritten(std.ring)
    equiv = rw - std.get("R14") + std.ring.parse("theta*x1*u1^2*z") \
        + std.ring.parse("tau*u1*w^2") * std.get("R3")
    out.append(check("the rewritten fourteenth relation differs from the "
                     "original by a multiple of R3 (plus the theta term)",
                     "0", equiv, "reference",
                     "relation rewriting used by the smoothing"))
    # elimination with lam, tau invertible
    fam = rings.family_relations()
    elim = rings.smoothing_eliminate(
        fam, ["lam", "tau"], [("R1", "w"), ("R2", "u0"), ("R3", "u1"), ("R6", "t")])
    for name in ("R4", "R8", "R9"):
        out.append(check(f"{name} reduces to an identity", True,
                         name in elim.identities, "reference",
                         "identities after elimination"))
    res = {n: (c, p) for n, c, p in elim.residuals}
    clear10, poly10 = res["R10"]
    ring = poly10.ring
    out.append(check("clearing factor of the remaining relation", "lam^11*tau^3",
                     clear10, "derived", "denominators of the elimination"))
    q = ring.parse("x0*y - x1^3")
    lam, tau, P = ring.var("lam"), ring.var("tau"), ring.var("P")
    x0, x1, y = ring.var("x0"), ring.var("x1"), ring.var("y")
    display = x0 * q ** 3 + 3 * lam ** 3 * tau * x1 ** 2 * y * q ** 2 \
        + 3 * lam ** 6 * tau ** 2 * x1 * y ** 3 * q + lam ** 9 * tau ** 3 * y ** 5 \
        + lam ** 12 * tau ** 3 * P
    out.append(check("cleared relation equals the hypersurface equation "
                     "term for term", True, poly10 == display, "reference",
                     "displayed degree-10 equation (tau powers restored)"))
    out.append(check("the hypersurface equation is homogeneous of degree 10",
                     10, poly10.weighted_degree(rings.GENERATOR_DEGREES), "direct",
                     "degree bookkeeping"))
    leftovers_ok = all(_in_principal_ideal(res[name][1], poly10)
                       for name in ("R11", "R12", "R13", "R14"))
    out.append(check("remaining relations lie in the hypersurface ideal", True,
                     leftovers_ok, "derived", "principal ideal membership"))
    # the lam*theta = 0 family at theta = 0, lam invertible
    lt = rings.lam_theta_relations()
    lt0 = lt.specialize({"theta": lt.ring.zero()}, lt.ring)
    elim2 = rings.smoothing_eliminate(
        lt0, ["lam"], [("R2", "u0"), ("R3", "u1"), ("R6", "t")])
    res2 = {n: (c, p) for n, c, p in elim2.residuals}
    out.append(check("first member of the residual pair", "-1*x1^3 + x0*y",
                     res2["R1"][1], "reference", "binomial member of the pair"))
    ring2 = res2["R10"][1].ring
    pair2 = ring2.parse("lam^3*P + y^5 - 3*x1*y^3*w + 3*x1^2*y*w^2 - x0*w^3")
    out.append(check("second member of the residual pair", True,
                     res2["R10"][1] == pair2, "reference",
                     "quintic member of the pair"))
    fmtlt, relslt = formats["lam_theta"]
    report = rings.verify_format(fmtlt, relslt)
    out.append(check("constrained-family certificates (modulo lam*theta)", True,
                     all(c["ok"] for c in report["checks"]), "reference",
                     "certificates of the constrained format"))
    # charts of the constrained family at lam = 0
    seed = params.seed
    nodal_member = rings.specialize_standard(GENERAL_THETA, Fraction(0), seed)
    cls1 = rings.chart_singularity(nodal_member, rings.CHARTS["Pw"], params.order)
    out.append(check("extra point for tau = 0, theta general", True,
                     _is_type(cls1, 1, 3, 2), "reference",
                     "index-3 chart for the nodal degeneration"))
    cusp_member = rings.specialize_standard(Fraction(0), Fraction(0), seed)
    cls2 = rings.chart_singularity(cusp_member, rings.CHARTS["Pw"], params.order)
    out.append(check("extra point for tau = theta = 0", True,
                     _is_type(cls2, 2, 3, 1), "reference",
                     "index-3 chart for the doubly degenerate member"))
    if params.get("theta") is not None:
        member = rings.specialize_standard(params.get("theta"), Fraction(0), seed)
        got = rings.chart_singularity(member, rings.CHARTS["Pw"], params.order)
        out.append(check(f"index-3 point for tau = 0 at the requested theta [{got}]",
                         "reported", "reported", "direct",
                         "user-supplied parameter values"))
    inv = wps.wps_hypersurface_invariants(10, (1, 1, 2, 5))
    out.append(check("smoothed fiber series matches the canonical series", True,
                     inv.series.equals(wps.footnote_series()), "derived",
                     "series of the general fiber"))
    return out


def _in_principal_ideal(value, generator) -> bool:
    try:
        value.exact_divide(generator)
    except NotDivisible:
        return False
    return True


@scenario("family-munu", ("section5", "wps"),
          "the two-parameter family interpolating the index-2 and index-3 points", ("mu", "nu"))
def _family(params: Params) -> list[dict]:
    out = []
    seed = params.seed
    mu = params.get("mu")
    nu = params.get("nu")
    for desc, m, n, chart, pred in FAMILY_GERMS:
        fam = wps.TwoSingularityFamily.of(m, n, seed)
        got = fam.germ_at_y(params.order) if chart == "y" else fam.germ_at_u(params.order)
        out.append(check(f"{desc} [{got}]", True, pred(got), "reference",
                         "orbifold chart of the family"))
    if mu is not None or nu is not None:
        fam = wps.TwoSingularityFamily.of(mu if mu is not None else 1,
                                          nu if nu is not None else 1, seed)
        got = fam.germ_at_y(params.order)
        out.append(check(f"y-chart germ at the requested parameters [{got}]",
                         "reported", "reported", "direct",
                         "user-supplied parameter values"))
    return out


@scenario("prop-no-5-2", ("section5", "curves"),
          "no surface carries both the index-5 and the index-2 point")
def _no52(params: Params) -> list[dict]:
    out = []
    profiles = cv.enumerate_gamma_profiles(
        [[3, 5, 2], [4]], (Fraction(1, 10), Fraction(3, 10)),
        {"A1": 1, "C1": 1})
    expected = [{"A1": 1, "A2": 1}, {"B1": 1, "C1": 1}, {"B1": 1, "A2": 1}]
    out.append(check("exactly the three incidence profiles", expected,
                     [p["incidence"] for p in profiles], "reference",
                     "case list of the contradiction argument"))
    out.append(check("canonical degrees of the profiles",
                     ["1/10", "1/5", "3/10"],
                     [str(p["kx_gamma"]) for p in profiles], "reference",
                     "canonical degree of the exceptional curve"))
    for key, entry in cv.load_profile_scripts().items():
        result = cv.replay_script(entry["configuration"], entry["script"])
        ok = result["verdict"] == "contradiction" \
            and entry["expected_rule"] in result["violations"]
        out.append(check(f"profile ({key}) script reaches its contradiction",
                         True, ok, "reference",
                         f"case ({key}) of the argument"))
    wide = cv.enumerate_gamma_profiles(
        [[3, 5, 2], [4]], (Fraction(1, 10), Fraction(1)), {"A1": 1, "C1": 1})
    superset = all(any(w["incidence"] == p["incidence"] for w in wide)
                   for p in profiles) and len(wide) > len(profiles)
    out.append(check("widening the bound strictly enlarges the profile list",
                     True, superset, "derived", "bound sensitivity"))
    empty = cv.enumerate_gamma_profiles([], (Fraction(1, 10), Fraction(3, 10)), {})
    out.append(check("empty menu gives no profiles", [], empty, "direct",
                     "degenerate input"))
    return out


@scenario("examples-figures", ("section5", "curves"),
          "the catalogued constructions carry the claimed strings")
def _examples(params: Params) -> list[dict]:
    out = []
    expects = {
        "III-fiber": {"index5": (1, 5, 3), "index3": (2, 3, 1), "blowups": 4,
                      "connectors": 1},
        "I3-fiber": {"index5": (1, 5, 3), "index3": (2, 3, 1), "blowups": 4,
                     "connectors": 2},
        "I2-fiber": {"index3": (2, 3, 1), "index2": (1, 2, 1), "blowups": 2,
                     "connectors": 2},
    }
    for name, expect in expects.items():
        ex = cv.build_example(name)
        for chain_name, triple in expect.items():
            if chain_name in ("blowups", "connectors"):
                continue
            d, n, a = triple
            got = ex["chains"][chain_name]["type"]
            out.append(check(f"{name}: chain {chain_name} type", True,
                             _is_type(got, d, n, a), "reference",
                             "strings of the construction"))
        out.append(check(f"{name}: connector count", expect["connectors"],
                         len(ex["connectors"]), "reference",
                         "number of joining curves"))
        result = cv.replay_script(ex["configuration"], ex["script"])
        final_ok = result["verdict"] == "survives" and \
            cv.final_state_matches(result["final"], ex["expected_final"])
        out.append(check(f"{name}: contraction replays to the fiber data", True,
                         final_ok, "reference", "blow-down verification"))
        k2 = tsing.ktilde_squared([v["entries"] for v in ex["chains"].values()])
        out.append(check(f"{name}: blowup count bookkeeping", -expect["blowups"],
                         k2, "derived", "resolution self-intersection count"))
        kx_ok = all(ex["configuration"].kx_pairing(c) > 0 for c in ex["connectors"])
        out.append(check(f"{name}: connectors have positive canonical degree",
                         True, kx_ok, "derived", "positivity on the joining curves"))
    return out
