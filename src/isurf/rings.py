"""Canonical-ring machinery for the index-5 surface.

Generators of the multigraded ring from the lattice cone, binomial
verification, derivation of the non-binomial relations by excess-monomial
rewriting, skew-format certificates, the one-parameter smoothing
elimination, and local chart germs.
"""

from __future__ import annotations

import functools
import random
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from . import load_fixture
from .errors import CertificateFailed, InvalidInput, NotDivisible, NotFactorable
from .lattice import IntegerMatrix, LatticeCone, hilbert_basis
from .poly import ExactPolynomial, PolyRing
from .skew import SkewMatrix
from .tsing import chart_germ
from . import toric

_GEN = load_fixture("generators.json")
_REL = load_fixture("relations.json")

AMBIENT_VARS = tuple(_GEN["ambient"])
AMBIENT_GRADING = IntegerMatrix(_GEN["grading"])
CANONICAL_RAY = tuple(_GEN["ray"])
GENERATOR_ORDER = tuple(entry[0] for entry in _GEN["generators"])
# the generators' canonical degrees, and P, the general degree-10 element of the relations
GENERATOR_DEGREES = {**{name: int(deg) for name, _, deg in _GEN["generators"]}, "P": 10}


def ambient_ring(*params: str) -> PolyRing:
    return PolyRing.of(*AMBIENT_VARS, *params)


def generator_ring(*params: str, with_p: bool = True) -> PolyRing:
    names = list(GENERATOR_ORDER)
    if with_p:
        names.append("P")
    return PolyRing.of(*names, *params)


def canonical_degree(vec: Sequence[int]) -> int:
    """Multiple of the canonical ray hit by the grading of an exponent vector."""
    image = AMBIENT_GRADING.mul_vec(vec)
    k, rem = divmod(image[-1], CANONICAL_RAY[-1])
    if rem or image != tuple(k * r for r in CANONICAL_RAY):
        raise InvalidInput(f"{vec} is not graded along the canonical ray")
    return k


class GeneratorTable(NamedTuple):
    """Named generators with exponent vectors and canonical degrees."""

    entries: tuple[tuple[str, tuple[int, ...], int], ...]
    extras: tuple[tuple[int, ...], ...] = ()

    def vector(self, name: str) -> tuple[int, ...]:
        for n, v, _ in self.entries:
            if n == name:
                return v
        raise KeyError(name)

    def monomial(self, name: str, ring: PolyRing) -> ExactPolynomial:
        return ring.monomial(dict(zip(AMBIENT_VARS, self.vector(name))))

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _, _ in self.entries)


def expected_generator_table() -> GeneratorTable:
    return GeneratorTable(tuple(
        (name, tuple(vec), int(deg)) for name, vec, deg in _GEN["generators"]))


@functools.cache
def canonical_generators() -> GeneratorTable:
    """Hilbert basis of the graded cone, matched against the expected table.

    Unexpected basis elements are reported in ``extras`` instead of being
    dropped silently.
    """
    cone = LatticeCone.ray_preimage(AMBIENT_GRADING, CANONICAL_RAY)
    basis = hilbert_basis(cone)
    known = {v: n for n, v, _ in expected_generator_table().entries}
    entries = []
    extras = []
    for vec in basis:
        if vec in known:
            entries.append((known[vec], vec, canonical_degree(vec)))
        else:
            extras.append(vec)
    order = {name: i for i, name in enumerate(GENERATOR_ORDER)}
    entries.sort(key=lambda e: order[e[0]])
    return GeneratorTable(tuple(entries), tuple(extras))


# ---------------------------------------------------------------------------
# the surface equation and its push-down to the root extension


def seeded_form(ring: PolyRing, monomials: Sequence[Mapping[str, int]],
                seed: int, tag: str) -> ExactPolynomial:
    """The given monomials with reproducible nonzero coefficients in [-9, 9],
    drawn in list order from the stream named by seed and tag: the one source
    of every 'general' polynomial."""
    rng = random.Random(f"{seed}:{tag}")
    return ring.from_terms({ring.exponents(m): rng.randint(1, 9) * rng.choice((1, -1))
                            for m in monomials})


def relative_sextic(ring: PolyRing, seed: int) -> ExactPolynomial:
    """The displayed relative sextic (``toric.displayed_sextic``) over ``ring``,
    with the parameters theta and tau of the ring and seeded general binary
    forms k1, l1 of degrees 11 and 16."""
    binary = PolyRing.of("t0", "t1")
    k1, l1 = (seeded_form(binary, [{"t0": i, "t1": degree - i} for i in range(degree + 1)],
                          seed, tag) for degree, tag in ((11, "k11"), (16, "l16")))
    return toric.displayed_sextic(ring, k1, l1, ring.var("theta"), ring.var("tau"))


def parent_equation(seed: int) -> ExactPolynomial:
    """The relative sextic before blowing up, five Cox variables."""
    return relative_sextic(PolyRing.of(*toric.F_VARS, "theta", "tau"), seed)


def double_blowup_equation(seed: int) -> ExactPolynomial:
    """The proper transform of the relative sextic after the two blowups."""
    return relative_sextic(PolyRing.of(*toric.FTILDE_VARS, "theta", "tau"), seed)


def ambient_surface_equation(seed: int) -> ExactPolynomial:
    """The double-blowup equation pushed into the fifth-root extension:
    s1 -> al^5, t0 -> be^5, c -> ga^5."""
    eq = double_blowup_equation(seed)
    R = ambient_ring("theta", "tau")
    return eq.substitute(
        {"s1": R.var("al") ** 5, "t0": R.var("be") ** 5, "c": R.var("ga") ** 5},
        ring=R,
    )


# ---------------------------------------------------------------------------
# monomial factorisation over the generator monoid


def factor_over_generators(table: GeneratorTable) -> Callable[[Sequence[int]], dict[str, int] | None]:
    """Deterministic factorisation of ambient exponent vectors as products of
    generator monomials: depth-first over generators in declared order, indices
    non-decreasing along a factorisation; one memo for all, results read-only."""
    gens = [(name, table.vector(name)) for name in table.names()]
    memo: dict[tuple[tuple[int, ...], int], dict[str, int] | None] = {}

    def go(rest: tuple[int, ...], start: int) -> dict[str, int] | None:
        if not any(rest):
            return {}
        key = (rest, start)
        if key in memo:
            return memo[key]
        result = None
        for idx in range(start, len(gens)):
            name, gvec = gens[idx]
            if all(r >= g for r, g in zip(rest, gvec)):
                sub = go(tuple(r - g for r, g in zip(rest, gvec)), idx)
                if sub is not None:
                    result = dict(sub)
                    result[name] = result.get(name, 0) + 1
                    break
        memo[key] = result
        return result

    return lambda vec: go(tuple(vec), 0)


def derive_relation(surface_eq: ExactPolynomial, excess: Mapping[str, int],
                    table: GeneratorTable) -> ExactPolynomial:
    """Multiply the surface equation by the excess monomial (variable ->
    power) and rewrite every term as a product of ring generators.

    Terms divisible by the lead generator (the one matching excess times the
    ze^2 term) are bundled through it, reproducing the convention that most
    terms are wrapped into the general degree-10 element.
    """
    ring = surface_eq.ring
    excess_vec = ring.exponents(excess)
    product = surface_eq * ring.monomial(excess)
    core_idx = [ring.index(v) for v in AMBIENT_VARS]
    param_idx = [i for i in range(ring.nvars) if i not in core_idx]
    lead = _detect_lead(surface_eq, excess_vec, table, ring)
    out_ring = generator_ring(*(ring.variables[i] for i in param_idx), with_p=False)
    factor = factor_over_generators(table)
    terms = {}
    lead_vec = table.vector(lead) if lead else None
    for exps, coeff in product.terms.items():
        core = tuple(exps[i] for i in core_idx)
        params = {ring.variables[i]: exps[i] for i in param_idx if exps[i]}
        pieces: dict[str, int] = {}
        if lead_vec is not None and all(a >= b for a, b in zip(core, lead_vec)):
            pieces[lead] = 1
            core = tuple(a - b for a, b in zip(core, lead_vec))
        factored = factor(core)
        if factored is None:
            raise NotFactorable(f"monomial {core} does not factor over the generators")
        for name, mult in factored.items():
            pieces[name] = pieces.get(name, 0) + mult
        pieces.update(params)
        key = out_ring.exponents(pieces)
        terms[key] = terms.get(key, 0) + coeff
    return out_ring.from_terms(terms)


def _detect_lead(surface_eq: ExactPolynomial, excess_vec: tuple[int, ...],
                 table: GeneratorTable, ring: PolyRing) -> str | None:
    ze_i = ring.index("ze")
    ze_monos = [e for e in surface_eq.terms if e[ze_i] == 2]
    if len(ze_monos) != 1:
        return None
    core_idx = [ring.index(v) for v in AMBIENT_VARS]
    combined = tuple(excess_vec[i] + ze_monos[0][i] for i in core_idx)
    ze_squared = ambient_ring().exponents({"ze": 2})
    target = tuple(a - b for a, b in zip(combined, ze_squared))
    for name in table.names():
        if table.vector(name) == target:
            return name
    return None


EXCESS_MONOMIALS = {
    "R11": {"al": 3, "be": 9, "ga": 17, "e": 4},
    "R12": {"al": 3, "be": 4, "ga": 7, "e": 1, "t1": 1},
    "R13": {"al": 6, "be": 3, "ga": 4, "t1": 3},
    "R14": {"al": 2, "be": 6, "ga": 13, "e": 2, "s0": 1},
    "R15": {"al": 1, "be": 3, "ga": 9, "s0": 2},
}


def split_by_lead(rel: ExactPolynomial, lead: str) -> tuple[ExactPolynomial, ExactPolynomial]:
    """(quotient of the lead-divisible part, the remaining terms)."""
    rest = rel.coefficients_in(lead).get(0, rel.ring.zero())
    return (rel - rest).exact_divide(rel.ring.var(lead)), rest


# ---------------------------------------------------------------------------
# relation systems


class RelationSystem:
    """Named homogeneous relations in the generator variables (checked where
    they enter, when a fixture is loaded)."""

    __slots__ = ("ring", "relations")

    def __init__(self, ring: PolyRing, relations: tuple[tuple[str, ExactPolynomial], ...]):
        self.ring, self.relations = ring, relations

    def get(self, name: str) -> ExactPolynomial:
        for n, rel in self.relations:
            if n == name:
                return rel
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.relations)

    def specialize(self, assignment: Mapping[str, object], ring: PolyRing) -> "RelationSystem":
        rels = tuple((n, rel.substitute(assignment, ring=ring))
                     for n, rel in self.relations)
        return RelationSystem(ring, rels)


@functools.cache
def _load_system(key: str) -> RelationSystem:
    """The relation system of a fixture key, parsed once per process, each
    relation checked weighted-homogeneous (NotHomogeneous otherwise).  The
    result is cached and shared, so callers must not change it."""
    data = _REL[key]
    ring = generator_ring(*data["params"])
    rels = tuple((name, ring.parse(text)) for name, text in data["relations"].items())
    for _, rel in rels:
        rel.weighted_degree(GENERATOR_DEGREES)
    return RelationSystem(ring, rels)


def standard_relations() -> RelationSystem:
    """The fourteen relations with parameters theta, tau and the opaque P."""
    return _load_system("standard")


def family_relations() -> RelationSystem:
    """The one-parameter deformation (parameters lam, tau; cover parameter
    theta set to zero, with the rewritten fourteenth relation)."""
    return _load_system("family")


def lam_theta_relations() -> RelationSystem:
    """The two-parameter family constrained by lam*theta = 0 (tau = 0)."""
    return _load_system("lam_theta")


def r14_rewritten(ring: PolyRing) -> ExactPolynomial:
    return ring.parse(_REL["standard"]["r14_rewritten"])


def verify_binomials(table: GeneratorTable, rels: RelationSystem) -> list[dict]:
    """Substitute the generator monomials into the binomial relations R1-R10
    and report the residual of each (all must vanish)."""
    binomials = {"R%d" % i for i in range(1, 11)}
    ring = ambient_ring(*(v for v in rels.ring.variables if v not in GENERATOR_ORDER + ("P",)))
    assignment = {gn: table.monomial(gn, ring) for gn in table.names()}
    residuals = [(name, rel.substitute(assignment, ring=ring))
                 for name, rel in rels.relations if name in binomials]
    return [{"relation": name, "residual": str(r), "ok": r.is_zero()} for name, r in residuals]


def generic_degree_10(seed: int) -> ExactPolynomial:
    """A seeded 'general' element of degree 10: every monomial in the eight
    generators appears with a nonzero integer coefficient, the z^2 one with
    coefficient -1 (the sign convention produced by derive_relation)."""
    ring = generator_ring(with_p=False)
    form = seeded_form(ring, weighted_monomials(10), seed, "P10")
    return form - ring.monomial({"z": 2}, form.coefficient(ring.exponents({"z": 2})) + 1)


def weighted_monomials(degree: int, names: Sequence[str] = GENERATOR_ORDER[:-1],
                       weights: Mapping[str, int] | None = None) -> tuple[Mapping[str, int], ...]:
    """All exponent mappings of the given weighted degree (g excluded by
    default), in a deterministic order.  They are enumerated once per degree,
    names and weights, and shared read-only."""
    weights = weights or GENERATOR_DEGREES
    names = tuple(names)
    return _weighted_monomials(degree, names, tuple(weights[name] for name in names))


@functools.lru_cache(maxsize=None)
def _weighted_monomials(degree: int, names: tuple[str, ...],
                        weights: tuple[int, ...]) -> tuple[Mapping[str, int], ...]:
    out: list[dict[str, int]] = []

    def go(i: int, remaining: int, acc: dict[str, int]):
        w = weights[i]
        if i == len(names) - 1:  # the last exponent is what remains, if w divides it
            e, r = divmod(remaining, w)
            if r == 0 and e >= 0:
                out.append({**acc, names[i]: e} if e else dict(acc))
            return
        for e in range(remaining // w + 1):
            if e:
                acc[names[i]] = e
            go(i + 1, remaining - w * e, acc)
            acc.pop(names[i], None)

    go(0, degree, {})
    return tuple(map(MappingProxyType, out))


# ---------------------------------------------------------------------------
# skew formats and certificates


class Certificate(NamedTuple):
    kind: str                     # "pfaffian" | "product"
    index: tuple[int, ...]        # row subset (pfaffian) or (row,) (product)
    combo: tuple[tuple[ExactPolynomial, str], ...]  # sum of multiplier * relation


class RelationFormat(NamedTuple):
    matrix: SkewMatrix
    vector: tuple[ExactPolynomial, ...]
    certificates: tuple[Certificate, ...]
    modulus: ExactPolynomial | None
    label: str


def verify_format(fmt: RelationFormat, rels: RelationSystem) -> dict:
    """Check every certificate as an exact identity and report coverage.

    With a modulus m, identities are required to hold up to an exact multiple
    of m (used by the family constrained to m = 0).
    """
    ring = fmt.matrix.ring
    checks = []
    covered: set[str] = set()
    values: dict[tuple[str, tuple[int, ...]], ExactPolynomial] = {}
    for rows, pf in fmt.matrix.sub_pfaffians(4):
        values[("pfaffian", rows)] = pf
    for i, entry in enumerate(fmt.matrix.multiply_vector(list(fmt.vector))):
        values[("product", (i,))] = entry
    seen = set()
    for cert in fmt.certificates:
        source = values[(cert.kind, cert.index)]
        seen.add((cert.kind, cert.index))
        target = ring.zero()
        for mult, name in cert.combo:
            target = target + mult * rels.get(name)
            covered.add(name)
        residual = source - target
        if not residual.is_zero() and fmt.modulus is not None:
            try:
                residual.exact_divide(fmt.modulus)
                residual = ring.zero()
            except NotDivisible:
                pass
        if not residual.is_zero():
            raise CertificateFailed(f"{fmt.label}: certificate {cert.kind}{cert.index} failed")
        checks.append({"source": f"{cert.kind}{cert.index}",
                       "targets": [name for _, name in cert.combo], "ok": True})
    # every pfaffian and product entry must be certified (zero ones trivially)
    for key, value in values.items():
        if key in seen:
            continue
        if not value.is_zero():
            raise CertificateFailed(f"{fmt.label}: uncertified nonzero entry {key}")
    return {"checks": checks, "covered": sorted(covered)}


@functools.cache
def load_formats() -> Mapping[str, tuple[RelationFormat, RelationSystem]]:
    """The bundled formats with their certificate tables and relation systems,
    parsed once per process.  The read-only mapping is cached and shared, so
    callers must not change what it holds."""
    data = load_fixture("formats.json")
    out = {}
    for label, entry in data.items():
        rels = _load_system(entry["system"])
        ring = rels.ring
        matrix = SkewMatrix.from_upper_rows(ring, entry["matrix"])
        vector = tuple(ring.parse(t) for t in entry["vector"])
        certs = []
        for c in entry["certificates"]:
            combo = tuple((ring.parse(m), name) for m, name in c["combo"])
            certs.append(Certificate(c["kind"], tuple(c["index"]), combo))
        modulus = ring.parse(entry["modulus"]) if entry.get("modulus") else None
        out[label] = (RelationFormat(matrix, vector, tuple(certs), modulus, label), rels)
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# smoothing elimination


class Elimination(NamedTuple):
    identities: tuple[str, ...]
    residuals: tuple[tuple[str, ExactPolynomial, ExactPolynomial], ...]
    # (name, clearing monomial, cleared residual polynomial)


def smoothing_eliminate(rels: RelationSystem, invertible: Sequence[str],
                        plan: Sequence[tuple[str, str]]) -> Elimination:
    """Rewrite the planned variables using the planned relations and classify
    what remains.

    Each planned relation must be linear in its variable with coefficient a
    nonzero constant times a monomial in the invertible parameters.  The
    residual report carries, per relation, the minimal monomial multiple that
    clears denominators, and the cleared polynomial.
    """
    ring = rels.ring.with_invertible(*invertible)
    subs: dict[str, ExactPolynomial] = {}
    for rel_name, var in plan:
        rel = rels.get(rel_name).substitute(subs, ring)
        by_var = rel.coefficients_in(var)
        if max(by_var) > 1:
            raise InvalidInput(f"{rel_name} is not linear in {var}")
        coeff = by_var.get(1)
        rest = by_var.get(0, ring.zero())
        if coeff is None or len(coeff) != 1:
            raise InvalidInput(f"{rel_name} has a non-monomial coefficient on {var}")
        for name in ring.variables:
            if name not in ring.invertible and coeff.degree_in(name):
                raise InvalidInput(
                    f"coefficient of {var} in {rel_name} involves the non-invertible {name}")
        solution = -rest * coeff.monomial_inverse()
        for known in subs:
            subs[known] = subs[known].substitute({var: solution})
        subs[var] = solution
    identities = []
    residuals = []
    for name in rels.names():
        value = rels.get(name).substitute(subs, ring)
        if value.is_zero():
            identities.append(name)
            continue
        clear = _clearing_monomial(value)
        residuals.append((name, clear, value * clear))
    return Elimination(tuple(identities), tuple(residuals))


def _clearing_monomial(p: ExactPolynomial) -> ExactPolynomial:
    """The least monomial in the invertible variables that clears p's denominators."""
    ring = p.ring
    return ring.monomial({name: -min(0, *p.coefficients_in(name)) for name in ring.invertible})


# ---------------------------------------------------------------------------
# chart germs


class ChartPlan(NamedTuple):
    chart_var: str
    eliminate: tuple[tuple[str, str], ...]   # (relation name, variable)
    germ_relation: str
    local_vars: tuple[str, ...]


CHARTS = {
    "Uz": ChartPlan(
        chart_var="z",
        eliminate=(("R11", "x0"), ("R12", "x1"), ("R13", "y"), ("R14", "u0")),
        germ_relation="R10",
        local_vars=("w", "u1", "t"),
    ),
    "Pw": ChartPlan(
        chart_var="w",
        eliminate=(("R2", "x0"), ("R3", "x1"), ("R6", "u0"), ("R10", "t")),
        germ_relation="R13",
        local_vars=("y", "u1", "z"),
    ),
}


def chart_singularity(rels: RelationSystem, chart: ChartPlan, order: int):
    """Classify the local germ of the surface at a coordinate point.

    The relations must already be fully specialized (numeric parameters, P
    expanded); the planned relations eliminate their variables as series on
    the chart, and the germ relation restricts to the local coordinates.
    """
    if set(rels.ring.variables) - set(GENERATOR_ORDER) - {"P"}:
        raise InvalidInput("chart analysis needs a fully specialized system")
    return chart_germ(dict(rels.relations), GENERATOR_DEGREES, *chart, order)


def specialize_standard(theta, tau, seed: int) -> RelationSystem:
    """The fourteen relations with numeric parameters and P expanded."""
    rels = standard_relations()
    plain = generator_ring(with_p=False)
    p = generic_degree_10(seed)
    assignment = {"theta": plain.constant(theta), "tau": plain.constant(tau), "P": p}
    return rels.specialize(assignment, plain)


def fixed_part(rels: RelationSystem) -> ExactPolynomial:
    """Restriction of the thirteenth relation to x0 = x1 = y = u0 = t = 0,
    the curve in the (w, u1, z) weighted plane swept by the base locus."""
    return rels.get("R13").substitute(dict.fromkeys(("x0", "x1", "y", "u0", "t", "g"), 0))
