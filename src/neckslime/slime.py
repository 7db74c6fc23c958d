"""Slime decomposition and migration moves on cyclic codes.

For a code f of length n, look at the n cyclic adjacent-pair sums
f[j] + f[j+1 mod n] and let m be their maximum.  A *slime* is a maximal run
of consecutive positions whose pair sums all equal m; its entries alternate
between two values a, b with a + b = m.  A run covering r pairs occupies
r + 1 positions, so every slime has size at least 2.

A code is *valid* when at least one pair sum falls below m, i.e. the hot
pairs do not wrap all the way around.  For valid codes the slimes are
disjoint and the *weight*

    w(f) = sum over slimes of floor(size / 2)

satisfies 1 <= w(f) <= floor(n / 2).

A *migration* moves every slime one step simultaneously: a slime of size
ln starting at s moves one unit from each of its positions s + (ln & 1) + 2j
to the next position (forward) or from each s + 2j + 1 to s + 2j (backward),
for 0 <= j < ln // 2.  An even slime a,b,...,a,b thus turns into
a-1,b+1,...,a-1,b+1; an odd slime keeps its left endpoint going forward and
its right endpoint going backward.

Migration shifts the weighted sum by +w(f) (forward) or -w(f) (backward),
preserves m, the number of slimes, the weight and validity, and the two
directions invert each other.  Iterating the forward move

    pow(w(f), -1, n)

times shifts the weighted sum by exactly +1 while commuting with rotation;
that unit move is the engine behind the slime-based orbit bijection.  It
needs gcd(w(f), n) = 1, which always holds when n is prime.

The unit move can often stop early.  A left rotation by s lowers the
weighted sum by s * k, so when gcd(k, n) = 1 the t-th image can equal only
one rotation of f, and :func:`unit_step` compares it with that one.  At the
first match the rest of the orbit is known: since one migration commutes
with rotation, pow(w, -1, n) mod t more migrations and one rotation give the
answer, never more migrations than the plain iteration.
``check_migration_laws`` certifies that commutation on every valid code of
every cell it covers.

The kernel is :func:`runs`, :func:`step` and :func:`unit_step` on plain entry
tuples; the functions on :class:`Code` wrap it, and only :func:`decompose`
builds :class:`Slime` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .codes import Code


class InvalidCodeError(ValueError):
    """Raised when a slime operation is applied to a code with no valid decomposition."""


class NonCoprimeWeightError(ValueError):
    """Raised when the unit move needs w(f) invertible mod n and it is not."""


class Slime(NamedTuple):
    """One maximal hot run: ``length`` entries starting at position ``start``."""

    start: int
    length: int


@dataclass(frozen=True, slots=True)
class SlimeDecomposition:
    code: Code
    m: int
    slimes: tuple[Slime, ...]

    @property
    def valid(self) -> bool:
        """Whether the code has a slime, i.e. some pair sum falls below ``m``."""
        return bool(self.slimes)

    @property
    def weight(self) -> int:
        return _weight(self.code.entries, self.slimes)

    def to_json_dict(self) -> dict:
        out: dict = {"m": self.m, "valid": self.valid}
        if self.valid:
            out["weight"] = self.weight
        out["slimes"] = [{"start": s.start, "len": s.length} for s in self.slimes]
        return out

    def __str__(self) -> str:
        if not self.valid:
            return f"m={self.m} invalid"
        spans = " ".join(f"{s.start}:{s.length}" for s in self.slimes)
        return f"m={self.m} weight={self.weight} slimes={spans}"


def runs(entries: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...] | None]:
    """``(m, runs)``: the hot runs as ``(start, length)`` pairs sorted by start,
    or None in place of the runs when the code is invalid."""
    n = len(entries)
    sums = [a + b for a, b in zip(entries, entries[1:] + entries[:1])]
    m = max(sums)
    hot = [s == m for s in sums]
    if all(hot):
        return m, None
    hot += hot  # a run may wrap past position n - 1 but ends at a cold pair before 2n
    return m, tuple([(j, hot.index(False, j) - j + 1) for j in range(n) if hot[j] and not hot[j - 1]])


def step(entries: tuple[int, ...], runs: tuple[tuple[int, int], ...], forward: bool) -> tuple[int, ...]:
    """One migration, by the rule in the module docstring, of ``entries`` whose hot runs are ``runs``."""
    n = len(entries)
    out = list(entries)
    dst = 1 if forward else -1
    for s, ln in runs:
        src = s + (ln & 1) if forward else s + 1
        for p in range(src, src + ln - (ln & 1), 2):
            out[p % n] -= 1
            out[(p + dst) % n] += 1
    if min(out) < 0:
        raise InvalidCodeError(f"migration produced a negative entry: {runs} are not the slimes of {entries}")
    return tuple(out)


def decompose(code: Code) -> SlimeDecomposition:
    """Locate all slimes of ``code``.

    Returned slimes are sorted by start position.  An invalid code (every
    pair sum equal, which is always the case for n <= 2) carries no slimes.
    """
    m, rs = runs(code.entries)
    return SlimeDecomposition(code=code, m=m, slimes=tuple(map(Slime._make, rs or ())))


def weight(code: Code) -> int:
    return _weight(code.entries, runs(code.entries)[1])


def _weight(entries: tuple[int, ...], rs: tuple[tuple[int, int], ...] | None) -> int:
    if not rs:
        raise InvalidCodeError(f"code {Code._trusted(entries)} has no weight: all pair sums equal")
    return sum(ln // 2 for _, ln in rs)


def _migrate(code: Code, forward: bool) -> Code:
    rs = runs(code.entries)[1]
    if rs is None:
        raise InvalidCodeError(f"cannot migrate invalid code {code}")
    return Code._trusted(step(code.entries, rs, forward))


def migrate_forward(code: Code) -> Code:
    """One simultaneous forward step of every slime; shifts ws by +w(f) mod n."""
    return _migrate(code, forward=True)


def migrate_backward(code: Code) -> Code:
    """Inverse of :func:`migrate_forward`; shifts ws by -w(f) mod n."""
    return _migrate(code, forward=False)


def unit_migration(code: Code) -> Code:
    """Forward-migrate ``pow(w, -1, n)`` times, shifting the weighted sum by exactly +1.

    Commutes with rotation and preserves everything migration preserves.
    """
    return Code._trusted(unit_step(code.entries, forward=True))


def unit_migration_inverse(code: Code) -> Code:
    """Inverse of :func:`unit_migration`: shifts the weighted sum by -1."""
    return Code._trusted(unit_step(code.entries, forward=False))


def unit_step(entries: tuple[int, ...], forward: bool) -> tuple[int, ...]:
    """:func:`unit_migration` (or, backward, its inverse) on a plain entry tuple.

    Writes a = pow(w, -1, n) and, when gcd(k, n) = 1, d = -w * pow(k, -1, n)
    mod n (forward; +w * pow(k, -1, n) backward).  After t migrations the
    weighted sum has moved by +-t * w, and the left rotation by s lowers it by
    s * k, so f_t = F^t(f) can only be the rotation of f by s = t * d mod n.
    At the first t where it is, a = q * t + r and, F commuting with the left
    rotation R, F^a(f) = R^((q - 1) * s)(F^r(f_t)): r more migrations and one
    rotation finish the step, t + r <= a migrations in all.  When
    gcd(k, n) > 1 nothing is compared and all a migrations are made.
    """
    n = len(entries)
    rs = runs(entries)[1]
    w = _weight(entries, rs)  # raises InvalidCodeError on invalid codes
    if gcd(w, n) != 1:
        raise NonCoprimeWeightError(
            f"weight {w} of {Code._trusted(entries)} is not invertible mod {n} (gcd {gcd(w, n)})")
    a = pow(w, -1, n)
    k = sum(entries)
    d = (-w if forward else w) * pow(k, -1, n) % n if gcd(k, n) == 1 else 0  # d = 0: never compare
    twice = entries + entries
    e = step(entries, rs, forward)
    for t in range(1, a):  # migration preserves validity, so every image has runs
        s = t * d % n
        if d and e == twice[s:s + n]:
            q, r = divmod(a, t)
            for _ in range(r):
                e = step(e, runs(e)[1], forward)
            s = (q - 1) * s % n
            return e[s:] + e[:s]
        e = step(e, runs(e)[1], forward)
    return e
