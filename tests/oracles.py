"""Reference computations that tests compare the package against."""

from fractions import Fraction
from math import gcd

from isurf.poly import PolyRing
from isurf.series import TruncatedSeries, solve_system
from isurf.tsing import QuotientGerm, classify_germ


def evaluate(p, assignment) -> Fraction:
    """The value of polynomial ``p`` at a point, one term at a time."""
    total = Fraction(0)  # Fraction values: an int ** -1 would be a float
    values = [Fraction(assignment[name]) for name in p.ring.variables]
    for exps, c in p.terms.items():
        v = c
        for x, e in zip(values, exps):
            v *= x ** e
        total += v
    return total


def hj_value(chain) -> Fraction:
    """Value of the continued fraction [b1, ..., br] = b1 - 1/(b2 - ...), in
    Fractions: the reference for the integer continuants of ``tsing``."""
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    return value


def admissible_type_search(order, weight):
    """(d, n, a) with order = d n^2 and weight = d n a - 1, 0 < a < n coprime,
    by trial over every n with n^2 dividing the order; None if there is none.
    The reference for ``tsing``, which reads the type off a gcd."""
    n = 2
    while n * n <= order:
        d = order // (n * n)
        if order % (n * n) == 0 and (weight + 1) % (d * n) == 0:
            a = (weight + 1) // (d * n)
            if 0 < a < n and gcd(a, n) == 1:
                return d, n, a
        n += 1
    return None


def schoolbook(a, b):
    """a * b from every pair of terms, exponent tuples added entry by entry:
    the reference for the packed pair loop of ``poly``."""
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            terms[key] = terms.get(key, 0) + ca * cb
    return a.ring.from_terms(terms)


def termwise_substitute(f, images):
    """f with variables replaced by ``images``, every term raised factor by
    factor with ``schoolbook``; an unnamed variable maps to itself and a
    negative exponent takes the monomial inverse."""
    total = f.ring.zero()
    for exps, c in f.terms.items():
        term = f.ring.constant(c)
        for name, e in zip(f.ring.variables, exps):
            image = images.get(name, f.ring.var(name))
            for _ in range(abs(e)):
                term = schoolbook(term, image if e > 0 else image.monomial_inverse())
        total = total + term
    return total


def single_solve_chart_germ(equations, weights, chart, eliminate, germ, local, order):
    """``tsing.chart_germ`` with one solve and one classification at ``order``
    itself: the reference for its precision ladder, which treats the order
    as a cap."""
    used = [name for name, _ in eliminate] + [germ]
    at = {name: equations[name].substitute({chart: 1}) for name in used}
    if any(f.constant_term() != 0 for f in at.values()):
        return "absent"
    solution = solve_system([TruncatedSeries(at[name], order) for name, _ in eliminate],
                            [var for _, var in eliminate])
    value = TruncatedSeries(at[germ], order).substitute(solution)
    restricted = value.poly.substitute({}, PolyRing.of(*local))
    n = weights[chart]
    return classify_germ(QuotientGerm(n, tuple(weights[v] % n for v in local),
                                      TruncatedSeries(restricted, order)))
