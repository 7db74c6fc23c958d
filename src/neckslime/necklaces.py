"""Binary necklaces with n black and k white beads, stored as gap codes.

A necklace is an equivalence class of bead strings under rotation.  We record
one by the cyclic sequence of white-run lengths after each black bead (its
*gap code*, a code of length n and content k) and canonicalize by taking the
lexicographically smallest rotation.  :func:`canonicalize` compares only the
rotations that start a maximal run of the least entry, so a code with r such
runs costs r rotations, not n.  The bead word is recovered gap by gap:

    word = "B" + "W"*e[0] + "B" + "W"*e[1] + ...

The number of such necklaces is

    (1 / (n+k)) * sum over d | gcd(n, k) of phi(d) * C((n+k)/d, n/d)

which this module evaluates exactly (the division is checked to be exact).
At every n that count also equals the number of codes in the zero residue
class.  A roots-of-unity filter counts the codes of residue r as

    (1 / n) * sum over d | gcd(n, k) of c_d(r) * C((n+k)/d - 1, k/d)

with c_d Ramanujan's sum.  At r = 0, c_d(0) = phi(d), and
C((n+k)/d - 1, k/d) / n = C((n+k)/d, n/d) / (n+k), so the two sums agree
term by term, and the ``count-identity`` certificate judges the match at
every n.

:func:`enumerate_necklaces` generates the necklaces themselves with the
Fredricksen-Kessler-Maiorana prenecklace walk restricted to fixed content
(Ruskey and Sawada treat the fixed-density case).  Its reference is a filter
over all C(n+k-1, n-1) codes, ``filter_necklaces`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterator

from .codes import Code, _comma_literal, _prime_factors, divisors


class NecklaceCountError(ValueError):
    """Raised when the divisor sum is not a multiple of n + k, which means a bug upstream."""


def euler_phi(n: int) -> int:
    """Count of integers in 1..n coprime to n: n times (1 - 1/p) over the primes p dividing n."""
    if n < 1:
        raise ValueError(f"euler_phi: need n >= 1, got {n}")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


@dataclass(frozen=True, slots=True)
class Necklace:
    """A rotation class of bead strings, keyed by its canonical gap code.

    Built by :func:`canonicalize` or :func:`enumerate_necklaces`; the
    constructor trusts its input to already be the lex-min rotation.
    """

    canonical: tuple[int, ...]

    @property
    def word(self) -> str:
        return _bead_word(self.canonical)

    def to_json_dict(self) -> dict:
        return {"canonical": list(self.canonical), "word": self.word}

    def __str__(self) -> str:
        return _comma_literal(self.canonical)


def canonicalize(code: Code) -> Necklace:
    """The necklace of a gap code: its lex-min rotation, taken over the run starts of its least entry.

    Let v be the least entry.  The least rotation starts with v, and it
    starts where a maximal cyclic run of v begins, at some s with
    e[s] == v != e[s - 1].  Suppose it started at s with e[s - 1] == v, and
    the code is not constant: the rotation at s - 1 has one more leading v
    before the first entry above v, so it is smaller.  Only those starts
    are compared; a constant code has none and is its own canonical form.
    """
    return Necklace(_least_rotation(code.entries))


def _least_rotation(e: tuple[int, ...]) -> tuple[int, ...]:
    """The lex-min rotation of an entry tuple, the kernel of :func:`canonicalize`."""
    n = len(e)
    v = min(e)
    twice = e + e
    return min([twice[s:s + n] for s in range(n) if e[s] == v and e[s - 1] != v], default=e)


def code_to_word(code: Code) -> str:
    return _bead_word(code.entries)


def _bead_word(entries: tuple[int, ...]) -> str:
    """The bead word of an entry tuple: a black bead before each gap's run of white beads."""
    return "B" + "B".join(["W" * v for v in entries])


def word_to_code(word: str) -> Code:
    """Gap code of a bead word, read cyclically from its first black bead."""
    if set(word) - {"B", "W"}:
        raise ValueError(f"bead word may only contain 'B' and 'W', got {word!r}")
    if "B" not in word:
        raise ValueError(f"bead word needs at least one black bead, got {word!r}")
    start = word.index("B")
    # the word holds only B and W, so the gaps after its first B are a nonempty tuple of nonnegative ints
    return Code._trusted(tuple(map(len, (word[start + 1:] + word[:start]).split("B"))))


def count_necklaces(n: int, k: int) -> int:
    """Exact necklace count for n black and k white beads."""
    if n < 1 or k < 0:
        raise ValueError(f"count_necklaces: need n >= 1 and k >= 0, got ({n}, {k})")
    total = 0
    for d in divisors(gcd(n, k)):  # gcd(n, 0) == n covers the k == 0 case
        total += euler_phi(d) * comb((n + k) // d, n // d)
    q, r = divmod(total, n + k)
    if r:
        raise NecklaceCountError(f"necklace count for ({n}, {k}) did not divide evenly")
    return q


def enumerate_necklaces(n: int, k: int, full_period_only: bool = False) -> list[Necklace]:
    """All necklaces with n black and k white beads, sorted by canonical gap code.

    Generated directly, not filtered: an iterative Fredricksen-Kessler-Maiorana
    walk over the prenecklace gap codes of content k, in lexicographic order.
    Each entry satisfies a[t] >= a[t - p], p being the period of the prefix so
    far; the content left caps each entry and the last entry takes all of it.
    A prenecklace is a necklace exactly when p divides n, and has full period
    when p == n.  Tests hold it to a filter over every code of the cell,
    ``filter_necklaces`` in ``tests/oracles.py``.

    Prefixes that cannot reach a necklace are cut early: every entry of a
    non-constant necklace is at least z = a[0] and its last entry exceeds z,
    so the content left must cover z for each entry still to place, plus
    one.  The constant necklace, the lexicographically largest, is appended
    on its own.
    """
    if n < 1 or k < 0:
        raise ValueError(f"enumerate_necklaces: need n >= 1 and k >= 0, got ({n}, {k})")
    out = [Necklace(e) for e in _generate(n, k, full_period_only)]
    if k % n == 0 and (n == 1 or not full_period_only):
        out.append(Necklace((k // n,) * n))
    return out


def _generate(n: int, k: int, full_period_only: bool) -> Iterator[tuple[int, ...]]:
    """The canonical entry tuples of the non-constant necklaces of length n and content k, in order.

    Depth t holds the prefix a[0..t] and two counters: ``p``, the period of
    the prefix, and ``left``, the content not yet placed.  The walk reaches
    depth t only by descending, which keeps p, or by raising a[t], which
    makes p = t + 1, so no older period is ever needed.  ``left`` drops by
    the entry placed on descent, by 1 on a raise, and gets a[t] back when the
    walk climbs from depth t.  The walk stops at depth n - 2, where the last
    entry is forced to take all the content left.  There p <= n - 1: a last
    entry above a[n - 1 - p] gives full period, and one equal to it keeps
    period p, a necklace when p divides n.  Length 1 and content 0 have no
    non-constant necklace, so they yield nothing.
    """
    if n < 2 or k < 1:
        return
    a = [0] * n
    p = 1
    left = k
    last = n - 1
    t = 0
    while True:
        if t < last - 1:
            v = a[t + 1 - p]
            if left - v > (last - t - 1) * a[0]:
                t += 1
                a[t] = v
                left -= v
                continue
            # the least child is out of reach, so every child is: move on from depth t
        else:
            u = a[last - p]
            if left > u or (left == u and not full_period_only and n % p == 0):
                a[last] = left
                yield tuple(a)
        # next prefix in lexicographic order: raise the deepest entry that can rise
        while True:
            a[t] += 1
            left -= 1
            if left > (last - t) * a[0]:
                p = t + 1
                break
            if t == 0:
                return
            left += a[t]
            t -= 1
