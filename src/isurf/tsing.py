"""T-singularity combinatorics.

Hirzebruch-Jung continued fractions, recognition of chains resolving cyclic
quotient singularities of type 1/(d n^2) (1, dna-1), codiscrepancy
coefficients, the self-intersection number of the codiscrepancy divisor,
classification of three-variable quotient germs through their index-one
covers x*y - z^(dn), and the coordinate-point germs of weighted complete
intersections (``chart_germ``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .errors import CertificateFailed, InvalidInput, TruncationTooShallow
from .poly import Coeff, ExactPolynomial, PolyRing
from .series import TruncatedSeries, solve_system


# ---------------------------------------------------------------------------
# singularity types


class TSingularity:
    """Cyclic quotient 1/(d n^2) (1, d n a - 1) with gcd(a, n) = 1."""

    __slots__ = ("d", "n", "a")

    def __init__(self, d: int, n: int, a: int):
        if d < 1 or n < 2 or not (0 < a < n) or gcd(a, n) != 1:
            raise InvalidInput(f"not an admissible type: d={d}, n={n}, a={a}")
        self.d, self.n, self.a = d, n, a

    def __eq__(self, other):
        return (isinstance(other, TSingularity)
                and (self.d, self.n, self.a) == (other.d, other.n, other.a))

    @property
    def order(self) -> int:
        return self.d * self.n * self.n

    @property
    def weight(self) -> int:
        return self.d * self.n * self.a - 1

    def conjugate(self) -> "TSingularity":
        """Reversing the resolving chain inverts the weight mod d n^2, which
        replaces a by n - a."""
        return TSingularity(self.d, self.n, self.n - self.a)

    def same_singularity(self, other: "TSingularity") -> bool:
        """Equality up to reversing the chain (a <-> a^{-1} mod n)."""
        return (self.d, self.n) == (other.d, other.n) and self.a in (other.a, other.conjugate().a)

    def __str__(self):
        return f"1/{self.order}(1,{self.weight})"


class RationalDoublePoint:
    """An A_r du Val point (comes from a chain of r (-2)-curves)."""

    __slots__ = ("r",)

    def __init__(self, r: int):
        self.r = r

    def __eq__(self, other):
        return isinstance(other, RationalDoublePoint) and self.r == other.r

    def __str__(self):
        return f"A_{self.r}"


class Unrecognized:
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __str__(self):
        return f"unrecognized({self.reason})"


# ---------------------------------------------------------------------------
# continued fractions and chains


def hj_expand(p: int, q: int) -> list[int]:
    """Expansion p/q = b1 - 1/(b2 - 1/(...)) with all b_i >= 2."""
    if not (p > q >= 1) or gcd(p, q) != 1:
        raise InvalidInput(f"need p > q >= 1 coprime, got {p}/{q}")
    out = []
    while q > 0:
        b = -((-p) // q)  # ceil(p / q)
        out.append(b)
        p, q = q, b * q - p
    return out


def _continuants(chain: Sequence[int]) -> list[int]:
    """[0, 1, K(b1), K(b1, b2), ..., K(b1..br)]: the Hirzebruch-Jung numerators
    of the chain's prefixes, K(b1..bi) = bi K(b1..b(i-1)) - K(b1..b(i-2))."""
    out = [0, 1]
    for b in chain:
        out.append(b * out[-1] - out[-2])
    return out


def recognize_tchain(chain: Sequence[int]):
    """Identify a chain of self-intersections [b1..br] (entries >= 2).

    Returns TSingularity(d, n, a) when the value p/q = [b1..br] is
    d n^2 / (d n a - 1), RationalDoublePoint(r) for the all-2 chain,
    Unrecognized otherwise.  p = K(b1..br) and q = K(b2..br), coprime.
    """
    chain = list(chain)
    if any(b < 2 for b in chain):
        raise InvalidInput("chain entries must be >= 2")
    if all(b == 2 for b in chain):
        return RationalDoublePoint(len(chain))
    q, p = _continuants(chain[::-1])[-2:]
    found = _admissible_type(p, q)
    return found if found is not None else Unrecognized(f"{p}/{q} is not of the form dn^2/(dna-1)")


def _admissible_type(order: int, weight: int) -> TSingularity | None:
    """The type 1/(d n^2)(1, d n a - 1) equal to 1/order(1, weight), if any.
    Such a type has gcd(order, weight + 1) = d n gcd(n, a) = d n, which fixes
    n = order / (d n), d and a."""
    dn = gcd(order, weight + 1)
    n, a = order // dn, (weight + 1) // dn
    if n < 2 or dn % n or not 0 < a < n or gcd(a, n) != 1:
        return None
    return TSingularity(dn // n, n, a)


def plane_quotient(n: int, wj: int, wk: int):
    """Identify the plane quotient 1/n(wj, wk), both weights units mod n, among
    the admissible types, after normalising the first weight to 1."""
    if gcd(wj * wk, n) != 1:
        return Unrecognized(f"1/{n}({wj},{wk}) is not isolated")
    q = wk * pow(wj, -1, n) % n
    found = _admissible_type(n, q)
    return found if found is not None else Unrecognized(f"1/{n}(1,{q}) is not admissible")


# ---------------------------------------------------------------------------
# codiscrepancies


class Codiscrepancy(NamedTuple):
    """The coefficients a_i = numerators[i] / n along the chain ``entries``."""

    entries: tuple[int, ...]
    numerators: tuple[int, ...]
    n: int

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, self.n) for s in self.numerators)


def codiscrepancy(chain: Sequence[int]) -> Codiscrepancy:
    """Coefficients a_i with (K + sum a_i E_i) . E_j = 0 along the chain.

    They solve b_i a_i - a_{i-1} - a_{i+1} = b_i - 2 (a_0 = a_{r+1} = 0), and
    a_i = (n - alpha_i - beta_i) / n, where alpha_i and beta_i are the
    Hirzebruch-Jung numerators of [b_1..b_{i-1}] and [b_{i+1}..b_r] (1 when
    empty) and n that of the whole chain.  The numerators n a_i are checked
    against the system in integers.
    """
    b = tuple(chain)
    if not b or any(x < 2 for x in b):
        raise InvalidInput("chain entries must be >= 2")
    alpha, beta = _continuants(b), _continuants(b[::-1])
    n = alpha[-1]
    s = [n - x - y for x, y in zip(alpha, reversed(beta))]  # n a_i, s_0 = s_{r+1} = 0
    for i, x in enumerate(b, 1):
        if x * s[i] - s[i - 1] - s[i + 1] != (x - 2) * n:
            raise CertificateFailed("codiscrepancy system residual must vanish")
    return Codiscrepancy(b, tuple(s[1:-1]), n)


def delta_squared(cd: Codiscrepancy) -> Fraction:
    """Self-intersection of the codiscrepancy divisor on the resolution,
    -sum b_i a_i^2 + 2 sum a_i a_{i+1}, summed as n^2 times itself in integers."""
    s = cd.numerators
    total = 2 * sum(map(mul, s, s[1:])) - sum(x * x * b for x, b in zip(s, cd.entries))
    return Fraction(total, cd.n * cd.n)


def ktilde_squared(sings: Sequence[Sequence[int]]) -> Fraction:
    """1 + sum of codiscrepancy self-intersections over the chains.

    Cross-checked against sum_j (d_j - r_j) - 1 for proper T-chains.
    """
    total = Fraction(1)
    for chain in sings:
        kind = recognize_tchain(chain)
        if not isinstance(kind, TSingularity):
            raise InvalidInput(f"{list(chain)} is not a proper T-chain")
        d2 = delta_squared(codiscrepancy(chain))
        if d2 != kind.d - len(chain) - 1:
            raise CertificateFailed("codiscrepancy square disagrees with d - r - 1")
        total += d2
    return total


# ---------------------------------------------------------------------------
# germ classification


class QuotientGerm:
    """A hypersurface germ in a three-variable cyclic quotient.

    ``order`` is the group order n >= 2, ``action`` the weights of the three
    variables mod n, ``equation`` a truncated series in those variables, and
    ``invariance_class`` the common weight of its terms mod n.
    """

    __slots__ = ("order", "action", "equation", "invariance_class")

    def __init__(self, order: int, action: tuple[int, int, int], equation: TruncatedSeries):
        if equation.ring.nvars != 3:
            raise InvalidInput("quotient germs live in three variables")
        if order < 2:
            raise InvalidInput("group order must be at least 2")
        classes = {sum(w * e for w, e in zip(action, exps)) % order
                   for exps in equation.poly.terms}
        if len(classes) > 1:
            raise InvalidInput(f"equation is not semi-invariant: classes {sorted(classes)}")
        self.order, self.action, self.equation = order, action, equation
        self.invariance_class = classes.pop() if classes else 0


def classify_germ(germ: QuotientGerm):
    """Match the germ against the index-one cover normal form x*y - z^(dn).

    A linear term makes the germ a smooth sheet over the plane of the other
    two variables, so the point is the plane quotient there.  Otherwise looks
    for a pair of variables whose degree-two part has an invertible
    two-by-two Hessian, solves the critical point as a series in the third
    variable (``solve_system`` on the Hessian-adjugate combinations of the
    two partial derivatives), and reads the multiplicity k of the residual
    there; the quotient type is then 1/(k n) n (1, k a - 1) with a the
    normalised weight of the residual variable.  Unrecognized results mean
    "not matched at this truncation order", never a proof of absence.  An
    order that drops the degree-two part, or a residual that vanishes to the
    order, raises TruncationTooShallow.
    """
    f = germ.equation
    n = germ.order
    if f.poly.constant_term() != 0:
        return Unrecognized("nonzero constant term: point not on the germ")
    for i in range(3):
        exps = tuple(1 if j == i else 0 for j in range(3))
        if f.poly.coefficient(exps) != 0:
            return plane_quotient(n, *(w for j, w in enumerate(germ.action) if j != i))
    if germ.invariance_class != 0:
        return Unrecognized("equation is not invariant")
    if f.order <= 2:
        raise TruncationTooShallow(f"order {f.order} drops the quadratic part of the germ")
    for i in range(3):
        for j in range(i + 1, 3):
            result = _classify_with_pair(germ, i, j)
            if result is not None:
                return result
    return Unrecognized("no hyperbolic variable pair found")


def _classify_with_pair(germ: QuotientGerm, i: int, j: int):
    f = germ.equation
    n = germ.order
    names = f.ring.variables
    k_index = next(k for k in range(3) if k not in (i, j))

    def e(a, b, c):
        v = [0, 0, 0]
        v[i], v[j], v[k_index] = a, b, c
        return tuple(v)

    hxx, hxy, hyy = (2 * f.poly.coefficient(e(2, 0, 0)), f.poly.coefficient(e(1, 1, 0)),
                     2 * f.poly.coefficient(e(0, 2, 0)))
    if hxx * hyy - hxy * hxy == 0:
        return None
    wi, wj, wk = (germ.action[v] % n for v in (i, j, k_index))
    if (wi + wj) % n != 0 or gcd(wi, n) != 1:
        return None
    residual = _critical_residual(f, names[i], names[j], hxx, hxy, hyy)
    if residual.is_zero():
        raise TruncationTooShallow(
            f"residual in {names[k_index]} vanishes to order {f.order}")
    k = min(exps[k_index] for exps in residual.terms)
    if k % n != 0:
        return Unrecognized(f"residual multiplicity {k} not divisible by the order {n}")
    d = k // n
    a = (pow(wi, -1, n) * wk) % n
    if gcd(a, n) != 1:
        return Unrecognized(f"normalised weight {a} not coprime to {n}")
    return TSingularity(d, n, a)


def _critical_residual(f: TruncatedSeries, x: str, y: str,
                       hxx: Coeff, hxy: Coeff, hyy: Coeff) -> ExactPolynomial:
    """f at its critical point in (x, y), a series in the remaining variable.

    (hxx, hxy, hyy) is the invertible constant Hessian of f in (x, y).  Its
    adjugate combines f_x = f_y = 0 into two relations that are det*x and
    det*y plus higher terms, which ``solve_system`` solves.
    """
    fx, fy = f.derivative(x), f.derivative(y)
    critical = solve_system([fx * hyy - fy * hxy, fy * hxx - fx * hxy], [x, y])
    return f.substitute(critical).poly


# the default cap on the order of ``chart_germ`` (the CLI's --order)
DEFAULT_ORDER = 10


def chart_germ(equations: Mapping[str, ExactPolynomial], weights: Mapping[str, int],
               chart: str, eliminate: Sequence[tuple[str, str]], germ: str,
               local: Sequence[str], order: int):
    """Classify a weighted complete intersection at the coordinate point of ``chart``.

    Sets ``chart`` = 1, solves each planned (equation, variable) pair as a
    series in the remaining variables, restricts the ``germ`` equation to the
    three ``local`` variables and classifies it in 1/n(weights mod n) with
    n = weights[chart].  Returns "absent" when a used equation does not vanish
    at the point.  ``order`` is a cap: the germ is computed at t = min(order, 4),
    then at t = min(order, 2t - 1) while that raises TruncationTooShallow, which
    the cap re-raises.  Truncation is by total degree and no image has a
    constant term, so order t agrees with the cap modulo degree t: the jets of
    degree below three and a residual nonzero below t, all that the
    classification reads, are those of the cap.
    """
    used = [name for name, _ in eliminate] + [germ]
    at = {name: equations[name].substitute({chart: 1}) for name in used}
    if any(f.constant_term() != 0 for f in at.values()):
        return "absent"
    local_ring = PolyRing.of(*local)
    n = weights[chart]
    action = tuple(weights[v] % n for v in local)
    t = min(order, 4)
    while True:
        try:
            solution = solve_system([TruncatedSeries(at[name], t) for name, _ in eliminate],
                                    [var for _, var in eliminate])
            value = TruncatedSeries(at[germ], t).substitute(solution)
            restricted = value.poly.substitute({}, local_ring)
            return classify_germ(QuotientGerm(n, action, TruncatedSeries(restricted, t)))
        except TruncationTooShallow:
            if t >= order:
                raise
            t = min(order, 2 * t - 1)


# ---------------------------------------------------------------------------
# the index-2 family of the one-singularity catalogue


def index_two_chain(d: int) -> list[int]:
    """The chain resolving 1/(4d)(1, 2d-1): [4], [3,3], [3,2,...,2,3]."""
    if d < 1:
        raise InvalidInput("d must be positive")
    if d == 1:
        return [4]
    return [3] + [2] * (d - 2) + [3]


# the catalogue's bound d <= 32 on the family 1/(4d)(1, 2d-1), recorded, not derived
INDEX_TWO_D_MAX = 32
