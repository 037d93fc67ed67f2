"""Dense univariate polynomials over Q, and rational functions over Q.

A coefficient that is not an ``int`` or a ``Fraction`` raises TypeError,
as does a RatFunc numerator or denominator that is not a polynomial.

A polynomial is a tuple of integer numerators, lowest degree first, over
one positive common denominator, kept canonical: the top numerator is
nonzero and the gcd of the denominator and all numerators is 1.  Products
are integer convolutions; a product with a constant scales the numerators,
and a square takes each cross term once and needs no gcd.  Sums rescale to
a common denominator, and division is pseudo-division by the primitive
divisor followed by one rescale.  Gcds of the integer forms come from a
heuristic gcd on plain ints, checked by exact division, which stops at the
first non-integral quotient coefficient (Gauss's lemma); its quotients are
the cofactors that reduce a ``RatFunc``.  A primitive PRS is the fallback;
no computer-algebra system is called.  The ``coeffs`` tuple of ``Fraction``
is built from this form on first access and cached; equality and hashing
read the integer form.

A ``RatFunc`` is a quotient of two such polynomials.  Neither names its
variable: ``str`` writes it as T, the variable of Q(T).

The degree of the zero polynomial is the sentinel -1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from cleanpair.exactmath.scalars import as_fraction, rational_to_str


class DegreeError(ValueError):
    """An operation received a polynomial of unsupported degree."""


# -- the integer kernel for rational coefficients -----------------------------


def qq_from_ints(num, den: int = 1) -> "UniPoly":
    """The polynomial sum(num[i] * T^i) / den, for integers num, den != 0."""
    num = list(num)
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den < 0:
        den = -den
        num = [-c for c in num]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [c // g for c in num]
    return _qq_wrap(tuple(num), den)


def qq_to_ints(p: "UniPoly") -> tuple[tuple[int, ...], int]:
    """The integer numerators (lowest degree first) and the denominator of
    a polynomial, in canonical form."""
    return p._num, p._den


def _qq_wrap(num: tuple, den: int) -> "UniPoly":
    """A polynomial from an integer form that is already canonical."""
    p = object.__new__(UniPoly)
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    object.__setattr__(p, "_coeffs", None)
    return p


def _qq_add(a, da: int, b, db: int) -> "UniPoly":
    if da != db:
        g = gcd(da, db)
        sa, sb = db // g, da // g
        a = [c * sa for c in a]
        b = [c * sb for c in b]
        da *= sa
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return qq_from_ints(out, da)


def _qq_mul(a, da: int, b, db: int) -> "UniPoly":
    if not a or not b:
        return _qq_wrap((), 1)
    if len(a) == 1 < len(b):
        a, da, b, db = b, db, a, da
    if len(b) == 1:
        # (a/da) * (c/db): with gcd(da, content a) = gcd(db, c) = 1, the
        # gcd of da*db and c*a is gcd(da, c) * gcd(db, content a)
        g, h = gcd(da, b[0]), gcd(db, *a)
        c = b[0] // g
        return _qq_wrap(tuple(x // h * c for x in a), da // g * (db // h))
    if a is b and da == db:
        # the square of a canonical form is canonical (Gauss's lemma)
        n = len(a)
        out = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                out[2 * i] += x * x
                x2 = x << 1
                for j in range(i + 1, n):
                    out[i + j] += x2 * a[j]
        return _qq_wrap(tuple(out), da * da)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return qq_from_ints(out, da * db)


def _qq_divmod(a, da: int, b, db: int):
    """Quotient and remainder of (a/da) by (b/db) over Q.

    With b = cb * b' for b' primitive with positive leading coefficient l,
    pseudo-division keeps scale * a == quot * b' + rem in integers; each
    step scales by l / gcd(l, top) only, so a unit l adds no growth.
    """
    cb = gcd(*b)
    if b[-1] < 0:
        cb = -cb
    if cb != 1:
        b = [c // cb for c in b]
    lb, n = b[-1], len(b) - 1
    rem = list(a)
    quot = [0] * max(0, len(a) - n)
    scale = 1
    while len(rem) > n:
        k = len(rem) - 1 - n
        top = rem[-1]
        g = gcd(top, lb)
        s, u = lb // g, top // g
        if s != 1:
            scale *= s
            rem = [c * s for c in rem]
            quot = [c * s for c in quot]
        quot[k] = u
        rem[k:-1] = [x - u * c for x, c in zip(rem[k:-1], b)]
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    # a/da == (quot * db / (scale * da * cb)) * (b/db) + rem / (scale * da)
    return (
        qq_from_ints([c * db for c in quot], scale * da * cb),
        qq_from_ints(rem, scale * da),
    )


# -- polynomials ----------------------------------------------------------------


class UniPoly:
    """Immutable dense polynomial over Q, lowest degree first.

    It keeps its integer form in ``_num``/``_den`` (see the module
    docstring); ``coeffs`` is the tuple of ``Fraction``.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs):
        coeffs = [as_fraction(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        coeffs = tuple(coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        object.__setattr__(self, "_num", tuple(c.numerator * (den // c.denominator) for c in coeffs))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def coeffs(self) -> tuple:
        c = self._coeffs
        if c is None:
            d = self._den
            c = tuple(Fraction(n, d) for n in self._num)
            object.__setattr__(self, "_coeffs", c)
        return c

    # -- basic structure -------------------------------------------------

    def degree(self) -> int:
        return len(self._num) - 1

    def lc(self):
        if not self:
            raise DegreeError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree())

    def coeff(self, i: int):
        if not 0 <= i <= self.degree():
            return Fraction(0)
        if self._coeffs is None:
            return Fraction(self._num[i], self._den)
        return self._coeffs[i]

    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == self._den

    def __bool__(self):
        return bool(self._num)

    def _coerce_operand(self, other):
        # None makes the operator return NotImplemented, so a RatFunc on the
        # other side gets its reflected operator
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return qq_from_ints([other.numerator], other.denominator)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return _qq_add(self._num, self._den, o._num, o._den)

    __radd__ = __add__

    def __neg__(self):
        return _qq_wrap(tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if o._num == (1,) and o._den == 1:  # a product by 1 is the other factor
            return self
        if self._num == (1,) and self._den == 1:
            return o
        return _qq_mul(self._num, self._den, o._num, o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return _qq_wrap((1,), 1) if out is None else out

    def __divmod__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        return _qq_divmod(self._num, self._den, o._num, o._den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "UniPoly":
        return qq_from_ints([i * c for i, c in enumerate(self._num)][1:], self._den)

    def evaluate(self, value) -> Fraction:
        """The value at an int or a Fraction: the first Taylor coefficient
        (integer Horner)."""
        scale = self._den * value.denominator ** max(self.degree(), 0)
        return Fraction(next(taylor_numerators(self, value), 0), scale)

    # -- normalization -----------------------------------------------------

    def monic(self) -> "UniPoly":
        if not self or self.is_monic():
            return self
        return qq_from_ints(self._num, self._num[-1])

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self._num == other._num and self._den == other._den
        if not self:
            return other == 0
        if self.degree() == 0:
            return self.coeff(0) == other
        return NotImplemented

    def __hash__(self):  # a constant hashes as the number it equals
        return hash((self._num, self._den) if len(self._num) > 1 else Fraction(sum(self._num), self._den))

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            cs = rational_to_str(c).removesuffix("/1")
            if i == 0:
                term = cs
            else:
                xs = "T" if i == 1 else f"T^{i}"
                term = xs if cs == "1" else (f"-{xs}" if cs == "-1" else f"{cs}*{xs}")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out


def taylor_numerators(p: UniPoly, root):
    """The Taylor coefficients of p = num/den of degree n at root = a/c,
    lowest first, each times den c^(n - j): the remainders of integer
    synthetic division (Horner's rule) of den c^n p(T/c) by T - a, so the
    first costs one evaluation."""
    a, c = root.numerator, root.denominator
    coeffs, power = [], 1  # den c^n p(T/c), highest degree first
    for x in reversed(p._num):
        coeffs.append(x * power)
        power *= c
    while coeffs:
        acc = 0
        for i, x in enumerate(coeffs):  # the quotient overwrites the dividend
            acc = coeffs[i] = acc * a + x
        yield coeffs.pop()


def taylor_coefficients(p: UniPoly, root):
    """The Taylor coefficients of p at the rational root, lowest first:
    p(root), p'(root), p''(root)/2, ..., from taylor_numerators."""
    root = Fraction(root)
    c, n = root.denominator, p.degree()
    return (Fraction(r, p._den * c ** (n - j)) for j, r in enumerate(taylor_numerators(p, root)))


# -- gcd -------------------------------------------------------------------


def _exact_quo(f, h):
    """f / h for integer coefficient lists, lowest degree first, with h
    primitive, or None when h does not divide f.  By Gauss's lemma a
    primitive h divides f only with integral quotient coefficients, so
    the first top coefficient that lc(h) does not divide settles it."""
    lh, n = h[-1], len(h) - 1
    rem, quot = list(f), []
    while len(rem) > n:
        u, r = divmod(rem.pop(), lh)
        if r:
            return None
        quot.append(u)
        if u:
            k = len(rem) - n
            rem[k:] = [x - u * c for x, c in zip(rem[k:], h)]
    return None if any(rem) else quot[::-1]


def _quotient(f: UniPoly, h: UniPoly) -> UniPoly:
    """f / h for a nonzero h that divides f: f's integer form by h's primitive part."""
    if h._den == 1 and h._num == (1,):
        return f
    c = gcd(*h._num)
    q = _exact_quo(f._num, [x // c for x in h._num] if c != 1 else h._num)
    if q is None:
        raise ArithmeticError("the divisor does not divide")
    return qq_from_ints([x * h._den for x in q], f._den * c)


def _primitive(f):
    c = gcd(*f)
    return [x // c for x in f] if c != 1 else f


def _heu_candidates(f, g):
    """Candidate gcds of the primitive f and g: GCDHEU (Char, Geddes and
    Gonnet 1989) at six points xi = 2^k >= 2 min(|f|, |g|) + 2, where |f| is
    the largest coefficient size, each candidate the primitive part of the
    symmetric xi-adic digits of gcd(f(xi), g(xi)).  At such a xi a
    candidate that divides f and g is their gcd, and a constant one is 1
    (Geddes, Czapor and Labahn, Thm 7.7)."""
    k = (2 * min(max(map(abs, f)), max(map(abs, g))) + 1).bit_length()
    for _ in range(6):
        xi = 1 << k
        v = gcd(*(reduce(lambda v, c: (v << k) + c, reversed(p), 0) for p in (f, g)))
        h = []
        while v:
            d = v & (xi - 1)
            if 2 * d > xi:
                d -= xi
            h.append(d)
            v = (v >> k) + (d < 0)
        yield _primitive(h)
        k += k // 4 + 2


def _prs_gcd(f, g):
    """The gcd of the primitive f and g, deg f >= deg g, from their
    primitive PRS."""
    while len(g) > 1:
        r = _qq_divmod(f, 1, g, 1)[1]._num
        if not r:
            return list(g) if g[-1] > 0 else [-c for c in g]
        f, g = g, _primitive(r)
    return [1]


def _int_gcd(f, g):
    """(h, f/h, g/h) for nonzero integer coefficient lists, lowest degree
    first, with h a gcd in Z[x].  A nonconstant h is accepted only when it
    divides f and g exactly, and the cofactors are those quotients."""
    cf, cg = gcd(*f), gcd(*g)
    c = gcd(cf, cg)
    fp = [x // cf for x in f] if cf != 1 else f
    gp = [x // cg for x in g] if cg != 1 else g
    h, cff, cfg = [1], fp, gp
    if len(f) > 1 and len(g) > 1:
        for h in _heu_candidates(fp, gp):
            if len(h) == 1:
                cff, cfg = fp, gp
                break
            cff = _exact_quo(fp, h)
            cfg = cff and _exact_quo(gp, h)
            if cfg:
                break
        else:
            h = _prs_gcd(fp, gp) if len(fp) >= len(gp) else _prs_gcd(gp, fp)
            cff, cfg = _exact_quo(fp, h), _exact_quo(gp, h)
            if cff is None or cfg is None:
                raise ArithmeticError("PRS gcd does not divide its inputs")
    sf, sg = cf // c, cg // c
    return [c * x for x in h], [x * sf for x in cff], [x * sg for x in cfg]


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd: the integer gcd of the numerator forms, made monic."""
    if not f:
        return g.monic()
    if not g:
        return f.monic()
    h, _, _ = _int_gcd(f._num, g._num)
    return qq_from_ints(h, h[-1])


def _cofactors(f: UniPoly, g: UniPoly):
    """(h, f/h, g/h) for a gcd h of the nonzero f and g.

    The cofactors are the quotients from the integer gcd's exact division
    check; h is the integer gcd, not made monic.
    """
    if f.degree() == 0 or g.degree() == 0:
        return _qq_wrap((1,), 1), f, g
    h, cff, cfg = _int_gcd(f._num, g._num)
    return (
        qq_from_ints(h),
        qq_from_ints(cff, f._den),
        qq_from_ints(cfg, g._den),
    )


# -- rational functions ------------------------------------------------------


def _reduced(num: UniPoly, den: UniPoly) -> "RatFunc":
    """The RatFunc num/den for coprime num and nonzero den, with den made
    monic; no gcd is taken."""
    if not num:
        den = _qq_wrap((1,), 1)
    elif not den.is_monic():
        num, den = num * (1 / den.lc()), den.monic()
    f = object.__new__(RatFunc)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _product(a: UniPoly, b: UniPoly, c: UniPoly, d: UniPoly) -> "RatFunc":
    """(a/b) * (c/d) for coprime pairs (a, b) and (c, d), with a, c nonzero:
    cancelling gcd(a, d) and gcd(c, b) leaves the product reduced."""
    _, a, d = _cofactors(a, d)
    _, c, b = _cofactors(c, b)
    return _reduced(a * c, b * d)


class RatFunc:
    """Reduced fraction of polynomials over Q with monic denominator.

    Sums and products of reduced operands cancel only the gcds that can
    occur (Henrici's algorithms), so they never take the gcd of the whole
    result.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly | None = None):
        if not isinstance(num, UniPoly) or not isinstance(den, (UniPoly, type(None))):
            raise TypeError("a RatFunc is a quotient of two UniPolys")
        if den is None:
            den = _qq_wrap((1,), 1)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            _, num, den = _cofactors(num, den)
        f = _reduced(num, den)
        object.__setattr__(self, "num", f.num)
        object.__setattr__(self, "den", f.den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __bool__(self):
        return bool(self.num)

    def _coerce_operand(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UniPoly):
            return RatFunc(other)
        try:
            return RatFunc(UniPoly([other]))
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        # With g = gcd(b, d): a/b + c/d = (a*d' + c*b') / (g*b'*d'), and only
        # a factor of g can divide the new numerator.
        g, b, d = _cofactors(self.den, o.den)
        num = self.num * d + o.num * b
        if num and g.degree() > 0:
            _, num, g = _cofactors(num, g)
        return _reduced(num, g * b * d)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return _reduced(self.num * o.num, self.den)
        return _product(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero function")
        if not self.num:
            return self
        return _product(self.num, self.den, o.den, o.num)

    def __pow__(self, n: int):
        return _reduced(self.num**n, self.den**n)

    def evaluate(self, value):
        dv = self.den.evaluate(value)
        if not dv:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.evaluate(value) / dv

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if self.den.degree() == 0:
            return self.num == other
        return NotImplemented

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"
