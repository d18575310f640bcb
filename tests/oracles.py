"""Reference computations that tests compare the package against."""

from fractions import Fraction


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
