"""Independent brute-force reference implementations, used only by tests.

Everything here is written the dumbest possible way, sharing no code with
the package: codes come from a product grid or from bar positions,
necklaces from canonical rotations of literal bead strings or of every
composition, slimes from scanning every start and migrations from each
slime's value pattern.  Slow is fine; the enumerating ones cap out around
n + k of a dozen (n + k of twenty for the bar positions).
"""

from __future__ import annotations

import itertools
import math


def grid_codes(n: int, k: int) -> list[tuple[int, ...]]:
    """All length-n tuples of nonnegative ints summing to k, by grid filtering."""
    return [c for c in itertools.product(range(k + 1), repeat=n) if sum(c) == k]


def stars_and_bars(n: int, k: int) -> list[tuple[int, ...]]:
    """All length-n tuples of nonnegative ints summing to k, one per choice of
    n - 1 bar positions among n + k - 1 slots; unlike the grid this reaches n = 11."""
    out = []
    for bars in itertools.combinations(range(n + k - 1), n - 1):
        edges = (-1,) + bars + (n + k - 1,)
        out.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(n)))
    return out


def filter_necklaces(n: int, k: int, full_period_only: bool = False) -> list[tuple[int, ...]]:
    """Canonical gap codes of the (n, k) necklaces, sorted: every composition
    that is its own least rotation, of period n only when asked."""
    return sorted(
        c for c in stars_and_bars(n, k)
        if c == min_rotation(c) and (not full_period_only or tuple_period(c) == n)
    )


def comma_literal(entries: tuple[int, ...]) -> str:
    """``0,0,3``: each entry through ``str``, joined by commas."""
    return ",".join(map(str, entries))


def bead_word(entries: tuple[int, ...]) -> str:
    """``BBBWWW``: one black bead and its run of white beads per entry, concatenated."""
    return "".join("B" + "W" * v for v in entries)


def weighted_sum(entries: tuple[int, ...]) -> int:
    return sum(i * v for i, v in enumerate(entries)) % len(entries)


def min_rotation(seq):
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def bead_classes(n: int, k: int) -> set[str]:
    """Canonical (lex-min rotation) bead strings with n B's and k W's."""
    classes = set()
    for blacks in itertools.combinations(range(n + k), n):
        marks = set(blacks)
        word = "".join("B" if i in marks else "W" for i in range(n + k))
        classes.add(min_rotation(word))
    return classes


def necklace_count(n: int, k: int) -> int:
    return len(bead_classes(n, k))


def string_period(s: str) -> int:
    for p in range(1, len(s) + 1):
        if len(s) % p == 0 and s == s[:p] * (len(s) // p):
            return p
    raise AssertionError("unreachable")


def tuple_period(entries: tuple[int, ...]) -> int:
    n = len(entries)
    for d in range(1, n + 1):
        if n % d == 0 and entries == entries[d:] + entries[:d]:
            return d
    raise AssertionError("unreachable")


def pair_sums(entries: tuple[int, ...]) -> list[int]:
    """Every cyclic adjacent-pair sum, pair j covering positions j and j + 1."""
    n = len(entries)
    return [entries[j] + entries[(j + 1) % n] for j in range(n)]


def slime_runs(entries: tuple[int, ...]):
    """(m, runs): the maximal runs of pairs summing to the top sum m, as sorted
    (start, size) pairs with size counted in positions, or (m, None) when every
    pair sum is m.  Found by trying every position as a start."""
    n = len(entries)
    sums = pair_sums(entries)
    m = max(sums)
    if all(s == m for s in sums):
        return m, None
    runs = []
    for start in range(n):
        if sums[start] != m or sums[start - 1] == m:
            continue
        pairs = 0
        while sums[(start + pairs) % n] == m:
            pairs += 1
        runs.append((start, pairs + 1))
    return m, runs


def slime_migrate(entries: tuple[int, ...], forward: bool) -> tuple[int, ...]:
    """One migration, rewriting each slime by its value pattern:

    * even a,b,...,a,b: forward a-1,b+1,...,a-1,b+1; backward a+1,b-1,...,a+1,b-1;
    * odd a,b,...,b,a: forward a,b-1,a+1,...,b-1,a+1; backward a+1,b-1,...,a+1,b-1,a.
    """
    n = len(entries)
    out = list(entries)
    for start, size in slime_runs(entries)[1]:
        pos = [(start + i) % n for i in range(size)]
        a, b = entries[pos[0]], entries[pos[1]]
        if size % 2 == 0:
            values = ([a - 1, b + 1] if forward else [a + 1, b - 1]) * (size // 2)
        elif forward:
            values = [a] + [b - 1, a + 1] * (size // 2)
        else:
            values = [a + 1, b - 1] * (size // 2) + [a]
        for p, v in zip(pos, values):
            out[p] = v
    return tuple(out)


def slime_phi(entries: tuple[int, ...], forward: bool = True):
    """The unit step (its inverse with ``forward`` false), or None where the
    code is invalid or its weight is not invertible mod n."""
    n = len(entries)
    runs = slime_runs(entries)[1]
    if runs is None:
        return None
    w = sum(size // 2 for _, size in runs)
    if math.gcd(w, n) != 1:
        return None
    for _ in range(pow(w, -1, n)):
        entries = slime_migrate(entries, forward)
    return entries
