"""Sparse multivariate polynomials over Q, exact throughout.

Coefficients are `int` until a division makes a proper fraction, then
`fractions.Fraction`.  Every coefficient division is ``exact_quotient``, since
``int / int`` is a float; it, ``PolyRing.from_terms`` and ``constant`` and
the kernel's products store integral values as `int`.  Terms are exponent tuples.  Variables listed in ``PolyRing.invertible``
may carry negative exponents; this is how rational-function coefficients in
distinguished parameters are represented (every denominator that occurs is a
monomial in those parameters).

Products, powers and substitutions run through one kernel that never forms
a term of total degree >= order (Brent & Kung, J. ACM 25, 1978).  Series
pass their order; exact operations pass order None, so nothing drops.  Its
pair loop sees only ints: each operand is cleared once to integer numerators
over the lcm of its denominators, and each output term is divided once, as in
FLINT's ``fmpq_poly`` (Hart, ICMS 2010).  An all-int operand is used as it is.

The pair loop's exponents are packed into int keys (Monagan & Pearce, CASC
2007): exponent i is the signed 16-bit digit at bit 16*i and the total degree
the digit above the last, so a pair's key is the sum of its two keys and the
order test compares a key with the least key of that degree.  A key decodes
to its exponents while each of its digits lies in [-2^15, 2^15), which holds
when the absolute exponent sum of every term is below ``EXPONENT_BOUND`` =
2^15.  That sum is at most the sum of the operands' largest sums, so it is
checked once per product, power or substituted term, and a term that could
pass it raises InvalidInput; nothing wraps.  A tuple is built only when a
term leaves the kernel.  A polynomial keeps its packed form (it is
immutable), so an image substituted many times is packed once.  A one-term
factor of a product, and a one-term image in a substitution (a monomial, a
Laurent inverse, an image with one term below the order), folds into the
other terms' exponents and coefficients, its denominator carried along, with
no pair loop; an unassigned variable folds as its key, and is never built.
``substitute_terms`` is the one reader of an assignment.

The canonical text form uses graded-lex term order (descending), "p/q"
coefficients, explicit "^" powers and "*" products, and is what
``PolyRing.parse`` accepts back.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import lru_cache
from math import inf, lcm
from operator import add, itemgetter, mul
from typing import Mapping, Union

from .errors import InvalidInput, NotDivisible, ParseError

Coeff = Union[Fraction, int]


def _coeff(c) -> Coeff:
    """A coefficient as an int when integral (a bool too), else the Fraction;
    only int and Fraction are exact inputs."""
    if isinstance(c, int):
        return int(c)
    if not isinstance(c, Fraction):
        raise InvalidInput(f"coefficient {c!r} is not an int or a Fraction")
    return c.numerator if c.denominator == 1 else c


def exact_quotient(a: Coeff, b: Coeff) -> Coeff:
    """a / b exactly: an int when integral, else a Fraction."""
    return _coeff(Fraction(a, b))


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")
_WS_RE = re.compile(r"\s*")


class PolyRing:
    """An ordered list of variable names, some of which may be invertible."""

    __slots__ = ("variables", "invertible")

    def __init__(self, variables: tuple[str, ...], invertible: frozenset[str]):
        if len(set(variables)) != len(variables):
            raise InvalidInput(f"duplicate variable names in {variables}")
        unknown = invertible - set(variables)
        if unknown:
            raise InvalidInput(f"invertible names not declared: {sorted(unknown)}")
        self.variables, self.invertible = variables, invertible

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and (self.variables, self.invertible) == (other.variables, other.invertible))

    @staticmethod
    def of(*names: str) -> "PolyRing":
        return PolyRing(tuple(names), frozenset())

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        return self.variables.index(name)

    def zero(self) -> "ExactPolynomial":
        return ExactPolynomial(self, {})

    def one(self) -> "ExactPolynomial":
        return self.constant(1)

    def constant(self, c: Coeff) -> "ExactPolynomial":
        c = _coeff(c)
        if c == 0:
            return self.zero()
        return ExactPolynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "ExactPolynomial":
        return self.monomial({name: 1})

    def exponents(self, powers: Mapping[str, int]) -> tuple[int, ...]:
        """The exponent tuple of the monomial with the given variable powers."""
        exps = [0] * self.nvars
        for name, e in powers.items():
            exps[self.index(name)] = e
        return tuple(exps)

    def monomial(self, powers: Mapping[str, int], coeff: Coeff = 1) -> "ExactPolynomial":
        return self.from_terms({self.exponents(powers): coeff})

    def extend(self, *names: str) -> "PolyRing":
        return PolyRing(self.variables + tuple(names), self.invertible)

    def with_invertible(self, *names: str) -> "PolyRing":
        return PolyRing(self.variables, self.invertible | frozenset(names))

    def parse(self, text: str) -> "ExactPolynomial":
        return _Parser(self, text).parse()

    def from_terms(self, terms: Mapping[tuple[int, ...], Coeff]) -> "ExactPolynomial":
        """The polynomial of raw terms: coefficients normalised, zeros
        dropped, and a negative exponent allowed on invertible variables only."""
        clean = {}
        for exps, c in terms.items():
            c = _coeff(c)
            if c != 0:
                exps = tuple(exps)
                for name, e in zip(self.variables, exps):
                    if e < 0 and name not in self.invertible:
                        raise InvalidInput(f"negative exponent on non-invertible variable {name}")
                clean[exps] = c
        return ExactPolynomial(self, clean)


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class ExactPolynomial:
    """Immutable sparse polynomial attached to a PolyRing.

    The constructor stores normalised, nonzero terms as given, for results of
    operations closed on valid terms (sums, products, derivatives,
    truncations); ``PolyRing.from_terms`` is the entry for raw terms."""

    __slots__ = ("ring", "terms", "_packed")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], Coeff]):
        self.ring = ring
        self.terms = terms
        self._packed = None

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def degree_in(self, name: str) -> int:
        i = self.ring.index(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def coefficient(self, exps: tuple[int, ...]) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.ring.nvars, 0)

    def leading(self) -> tuple[tuple[int, ...], Coeff]:
        """Leading (exponent, coefficient) in descending graded-lex order."""
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "ExactPolynomial":
        if isinstance(other, ExactPolynomial):
            if other.ring != self.ring:
                raise InvalidInput("ring mismatch")
            return other
        return self.ring.constant(other)

    def __add__(self, other) -> "ExactPolynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = _coeff(s)
            else:
                terms.pop(exps, None)
        return ExactPolynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "ExactPolynomial":
        return ExactPolynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ExactPolynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "ExactPolynomial":
        product = multiply_terms(self.terms, self._coerce(other).terms, None)
        return ExactPolynomial(self.ring, product)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExactPolynomial":
        """Halving power (``power_terms``); ``p ** 1`` is ``p`` itself."""
        if n < 0:
            return self.monomial_inverse() ** (-n)
        if n == 0:
            return self.ring.one()
        if n == 1:
            return self
        base, d, reach = self.packed_form()
        _check_reach(n * reach)
        keys = _keys(self.ring.nvars)
        power = power_terms(base, n, keys.limit(None), keys, {})
        return ExactPolynomial(self.ring, keys.decoded(dict(power), d ** n))

    def packed_form(self) -> tuple[list, int, int]:
        """(graded, d, reach) of the kernel: the terms cleared, packed and
        graded (``_Keys``).  Kept, since the polynomial is immutable: an image
        substituted many times is packed once."""
        if self._packed is None:
            keys = _keys(self.ring.nvars)
            numerators, d, reach = keys.packed(self.terms)
            self._packed = keys.graded(numerators), d, reach
        return self._packed

    def monomial_inverse(self) -> "ExactPolynomial":
        """Inverse of a single-term polynomial (invertible variables only)."""
        if len(self.terms) != 1:
            raise NotDivisible(f"not a monomial: {self}")
        (exps, c), = self.terms.items()
        return self.ring.from_terms({tuple(-e for e in exps): exact_quotient(1, c)})

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactPolynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.constant(other)
        return NotImplemented

    # -- calculus / division --------------------------------------------

    def derivative(self, name: str) -> "ExactPolynomial":
        i = self.ring.index(name)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                # distinct terms differentiate to distinct terms: nothing to collect
                terms[exps[:i] + (e - 1,) + exps[i + 1:]] = _coeff(c * e)
        return ExactPolynomial(self.ring, terms)

    def exact_divide(self, g: "ExactPolynomial") -> "ExactPolynomial":
        """Exact quotient q with q*g == self; raises NotDivisible otherwise.

        A monomial divisor may shift exponents of invertible variables below
        zero; for a multi-term divisor the quotient is required to be an
        ordinary polynomial (clear denominators first), which keeps the
        leading-term descent well founded.
        """
        g = self._coerce(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if len(g.terms) == 1:
            (ge, gc), = g.terms.items()
            terms = {}
            invertible_idx = {i for i, v in enumerate(self.ring.variables) if v in self.ring.invertible}
            for exps, c in self.terms.items():
                new = tuple(a - b for a, b in zip(exps, ge))
                for i, e in enumerate(new):
                    if e < 0 and i not in invertible_idx:
                        raise NotDivisible(f"{self} is not divisible by {g}")
                terms[new] = exact_quotient(c, gc)
            return ExactPolynomial(self.ring, terms)
        # long division by leading terms; exactness required at every step
        quotient = self.ring.zero()
        rem = self
        glead_e, glead_c = g.leading()
        while not rem.is_zero():
            re_, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re_, glead_e))
            if any(e < 0 for e in qe):
                raise NotDivisible(f"{self} is not divisible by {g}")
            qt = ExactPolynomial(self.ring, {qe: exact_quotient(rc, glead_c)})
            quotient = quotient + qt
            rem = rem - qt * g
            if not rem.is_zero() and _grlex_key(rem.leading()[0]) >= _grlex_key(re_):
                raise NotDivisible(f"{self} is not divisible by {g}")
        return quotient

    # -- substitution ----------------------------------------------------

    def substitute(self, assignment: Mapping[str, object], ring: PolyRing | None = None) -> "ExactPolynomial":
        """Replace variables by polynomials (or numbers) in ``ring``, by the
        image rules of ``substitute_terms``: an unassigned variable maps to the
        variable of that name in ``ring`` and folds as a key, so
        ``substitute({}, ring)`` moves the polynomial into ``ring``."""
        target = ring if ring is not None else self.ring
        terms = substitute_terms(self.terms, self.ring, assignment, target, None)
        return ExactPolynomial(target, terms)

    # -- grading ----------------------------------------------------------

    def weighted_degree(self, weights: Mapping[str, int]) -> int:
        """Common weighted degree of all terms; NotHomogeneous otherwise."""
        from .errors import NotHomogeneous

        w = [weights.get(name, 0) for name in self.ring.variables]
        degs = {sum(wi * e for wi, e in zip(w, exps)): exps for exps in self.terms}
        if len(degs) > 1:
            pair = sorted(degs.values())[:2]
            raise NotHomogeneous("polynomial is not weighted-homogeneous", tuple(pair))
        if not degs:
            return 0
        return next(iter(degs))

    def coefficients_in(self, name: str) -> dict[int, "ExactPolynomial"]:
        """View as a univariate polynomial in ``name``: degree -> coefficient."""
        i = self.ring.index(name)
        buckets: dict[int, dict] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            rest = list(exps)
            rest[i] = 0
            buckets.setdefault(e, {})[tuple(rest)] = c
        return {e: ExactPolynomial(self.ring, t) for e, t in buckets.items()}

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for n, (exps, c) in enumerate(self.sorted_terms()):
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.variables, exps)
                if e != 0
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if n == 0:
                if c < 0:
                    body = f"-1*{mono}" if (mono and mag == 1) else f"-{body}"
                parts.append(body)
            else:
                parts.append(f"{' - ' if c < 0 else ' + '}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<poly {self}>"


# -- kernel: products, powers and substitutions below a total-degree order ---

_FIELD = 16  # bits per packed exponent field
EXPONENT_BOUND = 1 << (_FIELD - 1)


def _check_reach(reach: int) -> None:
    """InvalidInput unless keys of absolute exponent sum ``reach`` decode."""
    if reach >= EXPONENT_BOUND:
        raise InvalidInput(f"exponents of absolute sum {reach} reach the bound "
                           f"{EXPONENT_BOUND} of the polynomial kernel")


class _Keys:
    """Packing of the exponent tuples of ``nvars`` variables into ints: e_i in
    the 16-bit field i, the total degree in field nvars, each a signed digit."""

    __slots__ = ("shift", "weights", "bias", "size", "fields")

    def __init__(self, nvars: int):
        self.shift = _FIELD * nvars  # of the degree field
        # e_i counts once in its own field and once in the degree field
        self.weights = tuple((1 << _FIELD * i) + (1 << self.shift) for i in range(nvars))
        self.bias = sum(EXPONENT_BOUND << _FIELD * i for i in range(nvars + 1))
        self.size = 2 * nvars + 2
        self.fields = struct.Struct(f"<{nvars}h")

    def packed(self, terms: Mapping[tuple[int, ...], Coeff]) -> tuple[dict, int, int]:
        """(numerators, d, reach): the terms cleared to int numerators over d,
        the lcm of their denominators, keyed by packed exponents in the terms'
        order; reach is the largest absolute exponent sum.  All-int terms keep
        their coefficients."""
        d = lcm(*(c.denominator for c in terms.values()))
        weights = self.weights
        numerators = {sum(map(mul, e, weights)): c.numerator * (d // c.denominator)
                      for e, c in terms.items()}
        reach = max((sum(map(abs, e)) for e in terms), default=0)
        _check_reach(reach)
        return numerators, d, reach

    def graded(self, numerators: dict) -> list:
        """The (key, numerator) pairs by ascending degree, in dict order within a
        degree."""
        shift, half = self.shift, (1 << self.shift) >> 1
        return sorted(numerators.items(), key=lambda t: (t[0] + half) >> shift)

    def limit(self, order: int | None) -> int:
        """The least key of total degree >= order; for order None, a key above
        every key within the bound."""
        if order is None:
            return 1 << (self.shift + _FIELD)
        return (order << self.shift) - ((1 << self.shift) >> 1)

    def decoded(self, numerators: dict, d: int) -> dict:
        """The exponent-tuple terms of numerators / d, one ``exact_quotient``
        each.  Adding the bias makes every field its digit plus 2^15, and the
        xor turns that into the digit's two's complement."""
        bias, size, unpack = self.bias, self.size, self.fields.unpack_from
        if d == 1:
            return {unpack(((k + bias) ^ bias).to_bytes(size, "little")): c
                    for k, c in numerators.items()}
        return {unpack(((k + bias) ^ bias).to_bytes(size, "little")): exact_quotient(c, d)
                for k, c in numerators.items()}


@lru_cache(maxsize=None)
def _keys(nvars: int) -> _Keys:
    return _Keys(nvars)


def multiply_terms(a: Mapping[tuple[int, ...], Coeff], b: Mapping[tuple[int, ...], Coeff],
                   order: int | None) -> dict:
    """The terms of a*b below the order.  A one-term factor folds into the
    other's exponents; otherwise the pair loop runs on the packed, cleared
    factors (the shorter one outside), and each term is decoded and divided
    once."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 1:
        if not a:
            return {}
        (ea, ca), = a.items()
        room = inf if order is None else order - sum(ea)
        # by degree, the order in which the pair loop would add the terms
        graded = sorted(((sum(eb), eb, cb) for eb, cb in b.items()), key=itemgetter(0))
        return {tuple(map(add, ea, eb)): _coeff(ca * cb) for db, eb, cb in graded if db < room}
    keys = _keys(len(next(iter(a))))
    (na, da, ra), (nb, db, rb) = keys.packed(a), keys.packed(b)
    _check_reach(ra + rb)
    return keys.decoded(product_terms(na, keys.graded(nb), keys.limit(order)), da * db)


def product_terms(a: Mapping[int, int], b: list, limit: int, out: dict | None = None) -> dict:
    """Add the terms of a*b with keys below ``limit`` (``_Keys.limit``) into
    ``out``.  Keys are packed, so a pair's key is the sum of its keys; ``b`` is
    graded, so the inner loop stops at the first pair reaching the limit.
    Callers pass int numerators (``_Keys.packed``)."""
    out = {} if out is None else out
    get = out.get
    for ka, ca in a.items():
        room = limit - ka
        for kb, cb in b:
            if kb >= room:
                break
            key = ka + kb
            s = get(key)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def power_terms(base: list, n: int, limit: int, keys: _Keys, powers: dict) -> list:
    """Graded terms of base**n below the limit, n >= 1, by halving:
    n.bit_length() - 1 squarings and one product by ``base`` per further set
    bit.  ``powers`` keeps every power of this base met on the way, so one
    base raised to several exponents shares its halvings."""
    if n == 1:
        return base
    if n not in powers:
        half = power_terms(base, n // 2, limit, keys, powers)
        p = product_terms(dict(half), half, limit)
        if n & 1:
            p = product_terms(p, base, limit)
        powers[n] = keys.graded(p)
    return powers[n]


def substitute_terms(terms: Mapping[tuple[int, ...], Coeff], source: PolyRing,
                     assignment: Mapping[str, object], target: PolyRing,
                     order: int | None) -> dict:
    """The terms, in ``target``, of the sum of c * prod image(x_i)**e_i below
    the order, x_i the variables of ``source``: the one reader of an
    assignment.  An unassigned x_i is the ``target`` variable of its name and
    folds as e_i times its key, no polynomial built; a number is that
    constant of ``target``; a negative exponent takes the monomial inverse.
    Only a variable that occurs is read, so only it raises: a name missing
    from ``target``, a polynomial of another ring or a negative power onto a
    non-invertible variable, and at a finite order an image with a constant
    term (it would bring dropped terms back below): InvalidInput each.
    With images cleared to N_i / d_i and L the lcm of the terms'
    D = c.denominator * prod d_i**|e_i|, one int dict sums c.numerator * L/D *
    prod N_i**e_i, and is divided by L at the end.  An image keeps only its
    terms below the order (every series factor has degree >= 0), and one
    left with a single term N_i = n * x^m folds into the term's seed
    (|e_i| * m into its key, n**|e_i| into its numerator), so only images of
    several terms form products; a seed already of degree >= order, or with a
    zero image, is dropped before any product.  A term whose product could
    pass the exponent bound raises InvalidInput."""
    keys = _keys(target.nvars)
    limit = keys.limit(order)
    bases: dict[tuple[str, bool], tuple] = {}
    powers_of: dict[tuple[int, int], tuple] = {}

    def power(i: int, e: int) -> tuple:
        """(key, numerator, None, d**|e|, reach) of image(x_i)**e when the image
        keeps at most one term, else (0, 1, its graded power, d**|e|, reach);
        reach bounds the absolute exponent sums of the power."""
        name, k = source.variables[i], abs(e)
        if name not in assignment:
            if name not in target.variables:
                raise InvalidInput(f"{name} is neither assigned nor a variable of the target")
            if e < 0 and name not in target.invertible:
                raise InvalidInput(f"negative exponent on non-invertible variable {name}")
            return e * keys.weights[target.index(name)], 1, None, 1, k
        which = (name, e < 0)
        if which not in bases:
            img = assignment[name]
            if not isinstance(img, ExactPolynomial):
                img = target.constant(img)
            elif img.ring != target:
                raise InvalidInput(f"image of {name} lies in the wrong ring")
            if order is not None and img.constant_term() != 0:
                raise InvalidInput(f"image of {name} has a constant term")
            graded, d, reach = (img.monomial_inverse() if e < 0 else img).packed_form()
            bases[which] = [t for t in graded if t[0] < limit], d, reach, {}
        base, d, reach, powers = bases[which]
        if not base:  # a zero image, or one wholly at the order: no term it enters stays
            return 0, 0, None, 1, 0
        if len(base) > 1:
            _check_reach(k * reach)
            return 0, 1, power_terms(base, k, limit, keys, powers), d ** k, k * reach
        (m, n), = base
        return m * k, n ** k, None, d ** k, k * reach

    plan = []
    for exps, c in terms.items():
        seed, num, den, reach, factors = 0, c.numerator, c.denominator, 0, []
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in powers_of:
                    powers_of[i, e] = power(i, e)
                m, n, factor, d, r = powers_of[i, e]
                seed += m
                num *= n
                den *= d
                reach += r
                if factor is not None:
                    factors.append(factor)
        _check_reach(reach)
        if num and seed < limit:
            plan.append((seed, num, den, factors))
    common = lcm(*(den for _, _, den, _ in plan))
    result: dict[int, int] = {}
    for seed, num, den, factors in plan:
        num *= common // den
        if not factors:
            s = result.get(seed, 0) + num
            if s:
                result[seed] = s
            else:
                del result[seed]
            continue
        term = {seed: num}
        for factor in factors[:-1]:
            term = product_terms(term, factor, limit)
        product_terms(term, factors[-1], limit, result)
    return keys.decoded(result, common)


class _Parser:
    """Recursive-descent parser for the canonical expression grammar.

    expr := ['-'] term (('+'|'-') term)* ; term := factor ('*' factor)* ;
    factor := coeff | ident ['^' int] | '(' expr ')' ; coeff := int ['/' uint].

    A term's numbers multiply into its coefficient and each ``ident^k`` adds
    into its exponents; only a parenthesised factor goes through the kernel.
    """

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.pos = 0

    def parse(self) -> ExactPolynomial:
        terms = self.expr()
        if self.peek():
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return ExactPolynomial(self.ring, terms)

    def peek(self) -> str:
        """The next character after whitespace, "" at the end."""
        self.pos = _WS_RE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def integer(self, what: str) -> tuple[int, int]:
        """(value, position) of the integer after whitespace, moved past."""
        self.peek()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError(f"expected {what}", self.pos)
        self.pos = m.end()
        return int(m.group(0)), m.start()

    def expr(self) -> dict:
        out: dict = {}
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        while True:
            for exps, c in self.term().items():
                s = out.get(exps, 0) + sign * c
                if s:
                    out[exps] = _coeff(s)
                else:
                    del out[exps]
            op = self.peek()
            if op not in ("+", "-"):
                return out
            self.pos += 1
            sign = 1 if op == "+" else -1

    def term(self) -> dict:
        exps = [0] * self.ring.nvars
        num = den = 1
        factors = []
        while True:
            ch = self.peek()
            if ch == "(":
                self.pos += 1
                factors.append(self.expr())
                if self.peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
            elif ch.isdigit() or ch == "-":
                num *= self.integer("integer")[0]
                if self.peek() == "/":
                    self.pos += 1
                    d, at = self.integer("positive denominator")
                    if d <= 0:
                        raise ParseError("expected positive denominator", at)
                    den *= d
            else:
                m = _IDENT_RE.match(self.text, self.pos)
                if not m:
                    raise ParseError(f"expected identifier or number, found {ch!r}", self.pos)
                name = m.group(0)
                if name not in self.ring.variables:
                    raise ParseError(f"undeclared identifier {name!r}", self.pos)
                self.pos = m.end()
                power = 1
                if self.peek() == "^":
                    self.pos += 1
                    power, at = self.integer("integer exponent")
                    if power < 0 and name not in self.ring.invertible:
                        raise ParseError(f"negative power on non-invertible {name!r}", at)
                exps[self.ring.index(name)] += power
            if self.peek() != "*":
                break
            self.pos += 1
        terms = {tuple(exps): exact_quotient(num, den)} if num else {}
        for factor in factors:
            terms = multiply_terms(terms, factor, None)
        return terms
