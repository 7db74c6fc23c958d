"""Cyclic integer codes, the carrier type for everything else in this package.

A code of length ``n`` is a cyclic sequence of ``n`` nonnegative integers;
its content ``k`` is the sum of the entries.  Entries are stored 0-based and
every position computation is modulo ``n``.  The *weighted sum*

    ws(f) = sum_j j * f[j]   (mod n)

splits the codes of fixed ``(n, k)`` into ``n`` residue classes.  One left
rotation lowers the weighted sum by ``k`` mod ``n``; that single fact drives
all the orbit constructions built on top of this module.

A code's least period d divides n, and the code is n/d copies of its first d
entries, so n/d divides k as well.  A code therefore falls short of full
period exactly when it repeats after n/p steps for some prime p dividing
gcd(n, k): :meth:`Code.period` divides n by those primes alone, and
``enumerate_codes(full_period_only=True)`` tests those shifts alone, so
coprime cells test none.

Codes hash and compare by their entry tuples, so they can be collected in
sets and sorted lexicographically, and every enumeration here is emitted in
lexicographic order to keep downstream tables reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterator


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending."""
    if n < 1:
        raise ValueError(f"divisors: need a positive integer, got {n}")
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing ``n``, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2 to 41.

    Those bases decide every n below psi_13 = 3,317,044,064,679,887,385,961,981,
    the least composite that passes all of them (Sorenson and Webster, Math.
    Comp. 2017).  At or above it the answer would not be exact, so it raises
    ``ValueError``.
    """
    if n >= _PSI_13:
        raise ValueError(f"primality is decided only below {_PSI_13}, got a {n.bit_length()}-bit number")
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def weighted_sum(entries: tuple[int, ...]) -> int:
    """sum_j j * entries[j] modulo len(entries), on a plain entry tuple."""
    return sum(map(mul, range(len(entries)), entries)) % len(entries)


@dataclass(frozen=True, slots=True)
class Code:
    """A cyclic sequence of nonnegative integers.

    Immutable and hashable; all derived quantities are recomputed on demand,
    which is fine at the desk scales this package targets.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("a code needs at least one entry")
        for v in entries:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"code entries must be integers, got {v!r}")
            if v < 0:
                raise ValueError(f"code entries must be nonnegative, got {v}")
        _set_entries(self, entries)

    @classmethod
    def _trusted(cls, entries: tuple[int, ...]) -> "Code":
        """A code over a tuple the package built itself, skipping validation.

        Only for entries already known to be a nonempty tuple of
        nonnegative ints; outside input goes through ``Code(...)`` or
        :meth:`parse`.
        """
        code = object.__new__(cls)
        _set_entries(code, entries)
        return code

    @property
    def n(self) -> int:
        """Length of the code."""
        return len(self.entries)

    @property
    def k(self) -> int:
        """Content of the code: the sum of its entries."""
        return sum(self.entries)

    def rotate(self, steps: int = 1) -> "Code":
        """Shift entries ``steps`` places to the left, cyclically.

        ``rotate(1)`` maps (f0, f1, ..., f_{n-1}) to (f1, ..., f_{n-1}, f0);
        negative steps rotate the other way.
        """
        s = steps % self.n
        if s == 0:
            return self
        return Code._trusted(self.entries[s:] + self.entries[:s])

    def weighted_sum(self) -> int:
        """sum_j j * entries[j] modulo n, the residue class of the code."""
        return weighted_sum(self.entries)

    def period(self) -> int:
        """Smallest divisor ``d`` of ``n`` such that the code repeats every ``d`` steps."""
        e = self.entries
        d = len(e)
        for p in _prime_factors(gcd(d, sum(e))):
            # the periods of a code are closed under gcd, so one prime at a time
            while d % p == 0 and e == e[d // p:] + e[:d // p]:
                d //= p
        return d

    @classmethod
    def parse(cls, literal: str) -> "Code":
        """Parse a literal of comma-separated ASCII decimal entries such as ``"3,0,0"``.

        Nothing else is read as a number: no sign, space, underscore or
        non-ASCII digit, all of which ``int()`` would accept.
        """
        if not re.fullmatch(r"[0-9]+(,[0-9]+)*", literal):
            raise ValueError(f"malformed code literal {literal!r}")
        return cls(tuple(map(int, literal.split(","))))

    def __str__(self) -> str:
        return _comma_literal(self.entries)

    def to_json_dict(self) -> dict:
        return {"entries": list(self.entries), "n": self.n, "k": self.k}


# the slot's own setter, which the frozen dataclass's __setattr__ would refuse
_set_entries = Code.entries.__set__


def _comma_literal(entries: tuple[int, ...]) -> str:
    """The literal ``0,0,3`` of an entry tuple: its entries in decimal, joined by commas."""
    return ("%d," * len(entries))[:-1] % entries


def enumerate_codes(
    n: int,
    k: int,
    t: int | None = None,
    full_period_only: bool = False,
) -> Iterator[Code]:
    """Yield the codes of length ``n`` and content ``k`` in lexicographic order.

    The walk starts at (0, ..., 0, k).  Each step takes the last nonzero
    part j >= 1, moves one unit of it to part j - 1 and the rest to the last
    part; the walk ends when only part 0 is nonzero.  The next step's j is
    the last part if that rest is nonzero, else j - 1, so nothing is scanned.

    With ``t`` given, only codes whose weighted sum is ``t`` mod ``n`` are
    emitted; with ``full_period_only`` set, only codes of period ``n``.  The
    stream is duplicate-free and sorted, so consumers can freeze its order
    into reproducible artifacts.
    """
    if n < 1:
        raise ValueError(f"enumerate_codes: need n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"enumerate_codes: need k >= 0, got {k}")
    if t is not None:
        t %= n
    shifts = [n // p for p in _prime_factors(gcd(n, k))] if full_period_only else []
    c = [0] * n
    c[-1] = k
    j = n - 1 if k else 0
    while True:
        entries = tuple(c)
        if (t is None or weighted_sum(entries) == t) and not (
                shifts and any(entries == entries[d:] + entries[:d] for d in shifts)):
            yield Code._trusted(entries)
        if not j:
            return
        v = c[j]
        c[j] = 0
        c[j - 1] += 1
        c[-1] = v - 1
        j = n - 1 if v > 1 else j - 1
