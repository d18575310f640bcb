"""Dual-graph calculus for curve configurations on smooth surfaces.

Configurations carry self-intersections, arithmetic genera, role tags and
codiscrepancy coefficients; blow-downs rewrite them exactly.  One rule set,
for the minimal model, detects the numerical contradictions used in the
non-existence argument; a script is the list of curves to blow down, in
order, before those rules are checked once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import load_fixture
from .errors import InvalidInput, NotContractible
from .tsing import codiscrepancy, recognize_tchain


class Curve(NamedTuple):
    name: str
    self_int: int
    pa: int = 0
    roles: frozenset[str] = frozenset()
    codisc: Fraction | None = None

    def k_degree(self) -> int:
        return 2 * self.pa - 2 - self.self_int


class CurveConfiguration:
    __slots__ = ("curves", "incidence")

    def __init__(self, curves: tuple[Curve, ...], incidence: Iterable[tuple[str, str, int]]):
        names = [c.name for c in curves]
        if len(set(names)) != len(names):
            raise InvalidInput("duplicate curve names")
        known = set(names)
        norm = []
        seen = set()
        for a, b, m in incidence:
            if a not in known or b not in known or a == b:
                raise InvalidInput(f"bad incidence entry ({a}, {b})")
            if m < 0:
                raise InvalidInput("incidence multiplicities must be nonnegative")
            key = tuple(sorted((a, b)))
            if key in seen:
                raise InvalidInput(f"duplicate incidence entry {key}")
            seen.add(key)
            if m > 0:
                norm.append((key[0], key[1], int(m)))
        self.curves, self.incidence = curves, tuple(sorted(norm))

    # -- access ----------------------------------------------------------

    def curve(self, name: str) -> Curve:
        for c in self.curves:
            if c.name == name:
                return c
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.curves)

    def pairing(self, a: str, b: str) -> int:
        if a == b:
            return self.curve(a).self_int
        key = tuple(sorted((a, b)))
        for x, y, m in self.incidence:
            if (x, y) == key:
                return m
        return 0

    # -- numerics ---------------------------------------------------------

    def kx_pairing(self, name: str) -> Fraction:
        """(K of the resolution + codiscrepancy divisor) . curve."""
        c = self.curve(name)
        total = Fraction(c.k_degree())
        for other in self.curves:
            if other.codisc is None:
                if "f-exceptional" in other.roles:
                    raise InvalidInput(
                        f"{other.name} is f-exceptional but has no coefficient")
                continue
            total += other.codisc * self.pairing(name, other.name)
        return total

    def blow_down(self, name: str) -> "CurveConfiguration":
        """Contract a (-1)-curve of genus zero and rewrite the rest."""
        gamma = self.curve(name)
        if gamma.self_int != -1 or gamma.pa != 0:
            raise NotContractible(f"{name} is not a contractible (-1)-curve")
        mult = {c.name: self.pairing(name, c.name) for c in self.curves if c.name != name}
        new_curves = []
        for c in self.curves:
            if c.name == name:
                continue
            m = mult[c.name]
            new_curves.append(c._replace(
                self_int=c.self_int + m * m,
                pa=c.pa + m * (m - 1) // 2,
            ))
        new_inc = []
        for a in range(len(new_curves)):
            for b in range(a + 1, len(new_curves)):
                na, nb = new_curves[a].name, new_curves[b].name
                m = self.pairing(na, nb) + mult[na] * mult[nb]
                if m:
                    new_inc.append((na, nb, m))
        return CurveConfiguration(tuple(new_curves), new_inc)

    # -- rules -------------------------------------------------------------

    def check_rules(self) -> list[str]:
        """The names of the rules the configuration violates, read as the
        minimal model of a surface of Kodaira dimension one."""
        violated = []
        minus_one = [c.name for c in self.curves if c.self_int == -1 and c.pa == 0]
        # two (-1)-curves meet on a surface of nonnegative Kodaira dimension
        if any(self.pairing(a, b) > 0 for a, b in combinations(minus_one, 2)):
            violated.append("disjoint-(-1)-curves")
        # K.C < 0 for some curve C on a minimal model
        if any(c.k_degree() < 0 for c in self.curves):
            violated.append("nef-canonical")
        # a K-trivial genus-one curve is a whole fiber and cannot meet
        # another K-trivial curve
        fibers = [c.name for c in self.curves if c.k_degree() == 0 and c.pa == 1]
        if any(self.pairing(f, c.name) > 0 for f in fibers for c in self.curves
               if c.name != f and c.k_degree() == 0 and c.pa == 0):
            violated.append("full-fiber")
        return violated


def config_from_dict(data: Mapping) -> CurveConfiguration:
    curves = tuple(Curve(
        name=c["name"], self_int=int(c["self"]), pa=int(c.get("pa", 0)),
        roles=frozenset(c.get("roles", ())),
        codisc=None if c.get("codisc") in (None, "") else Fraction(c["codisc"]),
    ) for c in data["curves"])
    incidence = tuple((a, b, int(m)) for a, b, m in data["incidence"])
    return CurveConfiguration(curves, incidence)


# ---------------------------------------------------------------------------
# profile enumeration


def enumerate_gamma_profiles(chains: Sequence[Sequence[int]],
                             kx_bounds: tuple[Fraction, Fraction],
                             incidence_caps: Mapping[str, int]
                             ) -> list[dict[str, Fraction | dict]]:
    """Nonnegative incidence patterns of a (-1)-curve with the chain curves
    whose induced canonical degree lies within the bounds.

    Chain curves are named A1, B1, C1, ... along the first chain and A2, ...
    along the second; coefficients come from the codiscrepancy solver.  An
    uncapped curve's multiplicity stops where its coefficient alone passes the
    upper bound; an uncapped curve of coefficient 0 raises InvalidInput.
    """
    lo, hi = Fraction(kx_bounds[0]), Fraction(kx_bounds[1])
    caps = dict(incidence_caps)
    menu: list[tuple[str, Fraction]] = []
    for j, chain in enumerate(chains, start=1):
        coeffs = codiscrepancy(chain).coefficients
        for pos, coeff in enumerate(coeffs):
            name = f"{chr(ord('A') + pos)}{j}"
            if name not in caps:
                if coeff == 0:
                    raise InvalidInput(f"{name} has codiscrepancy 0, so its multiplicity "
                                       "is unbounded: give it an incidence cap")
                caps[name] = int((1 + hi) / coeff) + 1
            menu.append((name, coeff))
    out = []

    def go(i: int, acc: dict[str, int], total: Fraction):
        if total - 1 > hi:
            return
        if i == len(menu):
            k = total - 1
            if lo <= k <= hi:
                out.append({"incidence": dict(acc), "kx_gamma": k})
            return
        name, coeff = menu[i]
        for m in range(caps[name] + 1):
            if m:
                acc[name] = m
            go(i + 1, acc, total + m * coeff)
            acc.pop(name, None)

    go(0, {}, Fraction(0))
    out.sort(key=lambda p: (p["kx_gamma"], sorted(p["incidence"].items())))
    return out


# ---------------------------------------------------------------------------
# script replay


def replay_script(cfg: CurveConfiguration, curve_names: Sequence[str]) -> dict:
    """Blow the listed curves down in order, then check the minimal-model
    rules once on what remains.

    Returns {"verdict": "contradiction" | "survives", "violations": [rule
    names], "final": configuration}.  A curve that is absent or not a
    contractible (-1)-curve raises InvalidInput("blow_down <name>: ...").
    """
    current = cfg
    for name in curve_names:
        try:
            current = current.blow_down(name)
        except (NotContractible, KeyError) as exc:
            raise InvalidInput(f"blow_down {name}: {exc}") from exc
    violations = current.check_rules()
    return {"verdict": "contradiction" if violations else "survives",
            "violations": violations, "final": current}


# ---------------------------------------------------------------------------
# bundled fixtures: contradiction scripts and example recipes


def load_profile_scripts() -> dict[str, dict]:
    """The three contradiction scripts, keyed by profile name."""
    data = load_fixture("scripts.json")
    return {
        key: {
            "configuration": config_from_dict(entry["configuration"]),
            "script": entry["script"],
            "expected_rule": entry["expected_rule"],
        }
        for key, entry in data.items()
    }


def build_example(recipe: str) -> dict:
    """Instantiate a catalogued construction and verify its chain content.

    Returns the configuration together with the recognized chains and the
    blow-down script that contracts it back to the fiber data.
    """
    recipes = load_fixture("recipes.json")
    if recipe not in recipes:
        raise InvalidInput(f"unknown recipe {recipe!r}")
    entry = recipes[recipe]
    cfg = config_from_dict(entry["configuration"])
    chains = {}
    for chain_name, curve_names in entry["chains"].items():
        entries = [-cfg.curve(n).self_int for n in curve_names]
        for a, b in zip(curve_names, curve_names[1:]):
            if cfg.pairing(a, b) != 1:
                raise InvalidInput(f"chain {chain_name} is not a chain in the graph")
        chains[chain_name] = {"entries": entries, "type": recognize_tchain(entries)}
    return {
        "configuration": cfg,
        "chains": chains,
        "script": entry["script"],
        "expected_final": entry["expected_final"],
        "connectors": list(entry.get("connectors", ())),
    }


def final_state_matches(cfg: CurveConfiguration, expected: Mapping) -> bool:
    """Compare the surviving curves and pairings with the expected fiber data.

    The comparison is two-sided: listed pairings must hold and no unlisted
    incidence may remain.
    """
    for name, self_int in expected["curves"].items():
        if cfg.curve(name).self_int != int(self_int):
            return False
    if set(cfg.names()) != set(expected["curves"]):
        return False
    listed = {tuple(sorted((a, b))): int(m) for a, b, m in expected["incidence"]}
    actual = {(a, b): m for a, b, m in cfg.incidence}
    return listed == actual
