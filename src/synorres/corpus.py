"""Ideal families and deterministic random instances for tests and sweeps.

Three structured families: pure variable powers (whose maximal shifts
grow linearly), the glued-hollow-simplices ideals indexed by p > q >= 2
(two homology maxima, one per hole), and the six-generator example in
variables a..f that the golden Betti table belongs to.  Random ideals
and posets come from a fixed 64-bit linear congruential generator
(Knuth's MMIX multiplier), so snapshots are portable across platforms
and implementations.
"""

from __future__ import annotations

from operator import le
from typing import NamedTuple

import numpy as np

from .algebra import DomainError, Monomial, ValidationError, parse_monomial
from . import poset
from .poset import Poset


# Exponent draws random_ideal makes at most (n per generator): 2^20 take
# a few seconds, and all of them are held until the antichain is pruned.
RANDOM_DRAW_CAP = 2**20


class IdealSpec(NamedTuple):
    """A named monomial ideal plus optional expected invariants."""

    name: str
    variables: tuple
    generators: tuple
    expected: dict

    def format(self) -> str:
        lines = ["vars: " + " ".join(self.variables)]
        lines.extend(m.format(self.variables) for m in self.generators)
        return "\n".join(lines) + "\n"


def ideal_powers(n: int, a: int) -> IdealSpec:
    """The ideal of a-th powers of n variables; t_k = a*k for all k."""
    if n < 1 or a < 1:
        raise DomainError("need n >= 1 and a >= 1")
    cap = poset.LCM_LATTICE_CAP  # vs. the 2^n elements of B_n
    if n >= cap.bit_length():
        raise DomainError(f"powers({n},{a}): refusing to build an lcm lattice "
                          f"with more than {cap} elements (2^{n})")
    variables = tuple(f"x{i + 1}" for i in range(n))
    gens = tuple(
        Monomial(tuple(a if j == i else 0 for j in range(n)))
        for i in range(n)
    )
    return IdealSpec(
        f"powers({n},{a})", variables, gens,
        {"t": tuple(a * k for k in range(n + 1))},
    )


def ideal_kpq(p: int, q: int) -> IdealSpec:
    """Ideal whose lcm lattice is the face lattice of two hollow simplices
    glued at a vertex: a hollow p-simplex and a hollow q-simplex, p > q >= 2.

    Variables x0..xp, y0..yq; generators x0*y0, Y*xi (1 <= i <= p) and
    X*yj (1 <= j <= q), where X and Y are the full products.  The expected
    t-sequence follows the two-ramp pattern with maxima p+q+2 at columns
    q+1 and p+1; it is recorded for comparison, not asserted blindly.
    """
    if not p > q >= 2:
        raise DomainError("need p > q >= 2")
    cap = poset.LCM_LATTICE_CAP  # vs. 2^(p+1) + 2^(q+1) - 3 lcm elements
    if p >= cap.bit_length() or 2**(p + 1) + 2**(q + 1) - 3 > cap:
        raise DomainError(f"kpq({p},{q}): refusing to build an lcm lattice "
                          f"with more than {cap} elements")
    nx, ny = p + 1, q + 1
    variables = tuple(f"x{i}" for i in range(nx)) + \
        tuple(f"y{j}" for j in range(ny))

    def mono(xexps, yexps):
        return Monomial(tuple(xexps) + tuple(yexps))

    zeros_x, zeros_y = [0] * nx, [0] * ny
    ones_x, ones_y = [1] * nx, [1] * ny
    gens = [mono([1] + zeros_x[1:], [1] + zeros_y[1:])]
    for i in range(1, nx):
        xe = list(zeros_x)
        xe[i] = 1
        gens.append(mono(xe, ones_y))
    for j in range(1, ny):
        ye = list(zeros_y)
        ye[j] = 1
        gens.append(mono(ones_x, ye))
    t = [0]
    for k in range(1, q + 2):
        t.append(p + 1 + k)
    for k in range(q + 2, p + 2):
        t.append(q + 1 + k)
    return IdealSpec(
        f"kpq({p},{q})", variables, tuple(gens),
        {"t_claimed": tuple(t)},
    )


def ideal_example62() -> IdealSpec:
    """Six generators in a..f: five sharing f, one avoiding it."""
    variables = ("a", "b", "c", "d", "e", "f")
    texts = ["a*f", "b*f", "c*f", "d*f", "e*f", "a*b*c*d*e"]
    gens = tuple(parse_monomial(t, variables) for t in texts)
    return IdealSpec(
        "example62", variables, gens,
        {"totals": (1, 6, 11, 10, 5, 1), "t": (0, 5, 6, 4, 5, 6)},
    )


class MmixRandom:
    """64-bit LCG with Knuth's MMIX constants; high bits feed the draws."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_word(self) -> int:
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return self.state

    def below(self, n: int) -> int:
        if n <= 0:
            raise DomainError("range must be positive")
        return (self.next_word() >> 32) % n

    def chance(self) -> bool:
        return bool(self.next_word() >> 63)


def _prune_to_antichain(monomials) -> tuple:
    """The minimal monomials under divisibility, lex-sorted.

    Exponent tuples are visited by degree, so a proper divisor comes
    before its multiples and each tuple is tested only against the minimal
    ones kept so far.  Once LCM_LATTICE_CAP are kept the ideal is refused:
    its lcm lattice would have more elements than the cap allows."""
    cap = poset.LCM_LATTICE_CAP
    kept: list[tuple] = []
    for exps in sorted({m.exps for m in monomials}, key=sum):
        if not any(all(map(le, k, exps)) for k in kept):
            kept.append(exps)
            if len(kept) >= cap:
                raise DomainError(
                    f"refusing an ideal with at least {cap} minimal "
                    f"generators: its lcm lattice would have more than "
                    f"{cap} elements")
    return tuple(sorted(Monomial(exps) for exps in kept))


def random_ideal(seed: int, n: int, g: int, emax: int) -> IdealSpec:
    """g random monomials in n variables, exponents <= emax, pruned to the
    minimal antichain; fully determined by the seed.  More than
    RANDOM_DRAW_CAP exponent draws (n * g) are refused before any, and a
    minimal antichain that reaches LCM_LATTICE_CAP generators while
    pruning."""
    if n < 1 or g < 1 or emax < 1:
        raise DomainError("need n, g, emax >= 1")
    if n * g > RANDOM_DRAW_CAP:
        raise DomainError(
            f"random({seed},{n},{g},{emax}): refusing {n * g} exponent "
            f"draws, more than {RANDOM_DRAW_CAP}")
    rng = MmixRandom(seed)
    variables = tuple(f"x{i + 1}" for i in range(n))
    monos = []
    for _ in range(g):
        while True:
            exps = tuple(rng.below(emax + 1) for _ in range(n))
            if any(exps):
                break
        monos.append(Monomial(exps))
    gens = _prune_to_antichain(monos)
    return IdealSpec(f"random({seed},{n},{g},{emax})", variables, gens, {})


def random_poset(seed: int, n: int) -> Poset:
    """Random poset on n elements whose ids form a linear extension:
    each candidate relation i < j (as integers) is tossed in, then the
    transitive closure is taken."""
    if n < 0:
        raise DomainError("size must be nonnegative")
    rng = MmixRandom(seed)
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.chance():
                leq[i, j] = True
    for k in range(n):
        for i in range(n):
            if leq[i, k]:
                leq[i] |= leq[k]
    return Poset(leq)


def random_chain(P: Poset, dim: int, rng: MmixRandom, field):
    """A random formal chain: up to three random strictly decreasing
    basis chains with small nonzero coefficients; may come out zero."""
    from .chains import FormalChain

    summands = []
    for _ in range(1 + rng.below(3)):
        key = []
        candidates = list(range(P.n))
        for _pos in range(dim + 1):
            candidates = [c for c in candidates
                          if not key or P.lt(c, key[-1])]
            if not candidates:
                break
            key.append(candidates[rng.below(len(candidates))])
        if len(key) != dim + 1:
            continue
        summands.append((field.of(1 + rng.below(5)),
                         FormalChain.single(tuple(key), field)))
    return FormalChain.combination(dim, field, summands, "order")


def parse_ideal_text(text: str) -> tuple:
    """Ideal file: `vars: ...` header, one monomial per line, # comments.

    Returns (variables, generators); raises on malformed input.
    """
    variables = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if variables is None:
            if not line.startswith("vars:"):
                raise ValidationError(
                    f"line {lineno}: expected a `vars:` header first")
            variables = tuple(line[len("vars:"):].split())
            if not variables:
                raise ValidationError(f"line {lineno}: empty variable list")
            if len(set(variables)) != len(variables):
                raise ValidationError(f"line {lineno}: duplicate variable")
            continue
        gens.append(parse_monomial(line, variables))
    if variables is None:
        raise ValidationError("no `vars:` header found")
    if not gens:
        raise ValidationError("no generators found")
    return variables, tuple(gens)


def corpus_ideals() -> list[IdealSpec]:
    """The acceptance corpus: the golden example, power ideals with
    n <= 4 and a <= 3, the three glued-simplices instances, and a fixed
    batch of 50 seeded random ideals (n <= 5, g <= 7, emax <= 3)."""
    out = [ideal_example62()]
    for n in range(1, 5):
        for a in range(1, 4):
            out.append(ideal_powers(n, a))
    for p, q in [(3, 2), (4, 2), (4, 3)]:
        out.append(ideal_kpq(p, q))
    for seed in range(1, 51):
        picker = MmixRandom(seed * 7919)
        n = 1 + picker.below(5)
        g = 1 + picker.below(7)
        emax = 1 + picker.below(3)
        out.append(random_ideal(seed, n, g, emax))
    return out
