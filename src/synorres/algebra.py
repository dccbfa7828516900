"""Exact coefficient fields and monomials.

All homology in this package is computed over an exact field: the rationals
(the default) or a prime field GF(p).  Floating point never appears.  Field
elements are plain Python numbers: ints, plus fractions.Fraction for a
non-integer rational.  GF(p) elements are ints in [0, p); the arithmetic
loops that add or multiply them reduce mod field.modulus (0 for QQ, so
skipped), and field.of(n) is the field element of an integer or rational
n.  No element promises `/`: the one division goes through field.inverse,
and zero is falsy.

Monomials are immutable exponent vectors over a fixed variable list.  The
variable names themselves are carried by whatever owns the ambient ring (an
ideal spec or an lcm lattice); a Monomial only knows its exponents.  The text
grammar is `var` or `var^k` joined by `*`, with the bare token `1` denoting
the unit monomial.
"""

from __future__ import annotations

from fractions import Fraction


class DimensionError(ValueError):
    """Operands live in different dimensions (variable counts, chain dims)."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ValidationError(ValueError):
    """Input fails a structural precondition."""


# --- coefficient fields ---


class RationalField:
    """The field of rational numbers.  Elements are ints, with a
    fractions.Fraction only for a non-integer value; division goes through
    inverse, which returns a unit (1 or -1) unchanged."""

    name = "QQ"
    characteristic = 0
    modulus = 0
    zero = 0
    one = 1

    def of(self, n):
        if type(n) is int:
            return n
        q = Fraction(n)
        return q.numerator if q.denominator == 1 else q

    def parse(self, text: str):
        return self.of(Fraction(text))

    def inverse(self, x):
        if x == 1 or x == -1:
            return x
        return self.of(Fraction(1, x))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < 2**64 with these bases."""
    if p < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p; elements are ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= 2 ** 64:
            raise DomainError(f"modulus {p} is too large; need p < 2**64")
        if not _is_prime(p):
            raise DomainError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.characteristic = p
        self.modulus = p

    def of(self, n) -> int:
        return int(n) % self.p

    def parse(self, text: str) -> int:
        return self.of(int(text))

    def inverse(self, x: int) -> int:
        if not x % self.p:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(x, self.p - 2, self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("GF", self.p))


def field_from_flag(flag: str):
    """Map the CLI --field value to a field: 'q' -> rationals, '<p>' -> GF(p)."""
    flag = flag.strip().lower()
    if flag in ("q", "qq", "0"):
        return RationalField()
    try:
        p = int(flag)
    except ValueError:
        raise DomainError(f"unrecognized field flag {flag!r}") from None
    return PrimeField(p)


# --- monomials ---


class Monomial:
    """An immutable exponent vector; ordering is lexicographic."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise DomainError(f"negative exponent in {exps}")
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, *a):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def one(cls, nvars: int) -> "Monomial":
        return cls((0,) * nvars)

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def degree(self) -> int:
        return sum(self.exps)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    def _match(self, other: "Monomial"):
        if not isinstance(other, Monomial):
            raise TypeError(f"expected Monomial, got {type(other).__name__}")
        if len(self.exps) != len(other.exps):
            raise DimensionError("monomials over different variable counts")

    def lcm(self, other: "Monomial") -> "Monomial":
        self._match(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def divides(self, other: "Monomial") -> bool:
        self._match(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; other must divide self."""
        self._match(other)
        if not other.divides(self):
            raise DomainError("quotient of non-divisible monomials")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._match(other)
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __lt__(self, other):
        self._match(other)
        return self.exps < other.exps

    def __le__(self, other):
        self._match(other)
        return self.exps <= other.exps

    def format(self, variables) -> str:
        if len(variables) != len(self.exps):
            raise DimensionError("variable list does not match exponent vector")
        parts = []
        for name, e in zip(variables, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"Monomial{self.exps}"


def parse_monomial(text: str, variables) -> Monomial:
    """Parse `var`, `var^k` joined by `*`; bare `1` is the unit monomial."""
    text = text.strip()
    index = {name: i for i, name in enumerate(variables)}
    exps = [0] * len(variables)
    if text == "1":
        return Monomial(exps)
    if not text:
        raise ValidationError("empty monomial text")
    for token in text.split("*"):
        token = token.strip()
        if "^" in token:
            base, _, power = token.partition("^")
            base = base.strip()
            try:
                k = int(power.strip())
            except ValueError:
                raise ValidationError(f"bad exponent in token {token!r}") from None
            if k < 1:
                raise ValidationError(f"exponent must be positive in {token!r}")
        else:
            base, k = token, 1
        if base not in index:
            raise ValidationError(f"unknown variable {base!r}")
        exps[index[base]] += k
    return Monomial(exps)
