"""Explicit bijections between zero-residue codes and necklaces.

The n rotations of a full-period code f land in the n residue classes of the
weighted sum, hitting each one exactly once per stride q = n / gcd(n, k).
The members of one residue class that are rotations of f form its
*neck-class*: the codes c^(iq)(f) for 0 <= i < gcd(n, k).

A *riwi map* is an invertible transformation chi on full-period codes that
commutes with rotation and raises the weighted sum by exactly 1 mod n
(rotation invariant, weighted-sum increasing).  Given one, the *sigma
construction* pairs the i-th stride rotation of a neck-class representative
with the necklace of chi^i applied to that representative:

    c^(iq)(rep)  |->  necklace(chi^i(rep))      for 0 <= i < n/q

Running this over every neck-class of the zero residue class yields a
bijection between the full-period zero-residue codes and the full-period
necklaces.  At prime n the only other code is the constant one (present
when n | k); it pairs with the constant necklace, so the table covers all of
F_{n,k,0}.  The ordered table :data:`CONSTRUCTIONS` holds the rule that
picks the built-in construction of a cell, and :func:`sigma_table` reads it.

Representatives default to the lexicographically smallest orbit member so
emitted tables are reproducible; the chooser is recorded in the table
metadata and changing it must never break bijectivity.

Riwi maps act on plain entry tuples, and so does their verification: a
:class:`Code` is built only for a table pair or a counterexample message.
Map files are validated through ``Code(...)`` when they are loaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable, Iterable

from .codes import Code, _walk, is_prime, weighted_sum
from .necklaces import Necklace, canonicalize, enumerate_necklaces
from .slime import unit_step

# counterexample strings kept per verification; failure counts stay exact
DETAIL_CAP = 10


@dataclass(frozen=True, slots=True)
class RiwiMap:
    """An invertible, rotation-invariant, weighted-sum-increasing transform.

    ``apply`` and ``invert`` take and return entry tuples, such as
    ``code.entries``, and raise ``ValueError`` where the map is undefined.
    ``descriptor`` names the construction ("rotation", "slime", "none" or
    "custom:<name>") and is stamped into emitted tables.
    """

    descriptor: str
    apply: Callable[[tuple[int, ...]], tuple[int, ...]]
    invert: Callable[[tuple[int, ...]], tuple[int, ...]]


def riwi_rotation(n: int, k: int) -> RiwiMap:
    """Rotation power raising the weighted sum by 1; needs gcd(n, k) = 1.

    One left rotation lowers the weighted sum by k, so rotating
    (-k^(-1)) mod n times raises it by exactly 1.  The constructor runs the
    maps it hands out on a sample code, checking the +1 shift and the round
    trip, and refuses to hand out a broken map.
    """
    if n < 1:
        raise ValueError(f"riwi_rotation: need n >= 1, got {n}")
    g = gcd(n, k)
    if g != 1:
        raise ValueError(f"riwi_rotation needs gcd(n, k) = 1, got gcd({n}, {k}) = {g}")
    j = (-pow(k, -1, n)) % n
    back = (n - j) % n

    def apply(e: tuple[int, ...]) -> tuple[int, ...]:
        return e[j:] + e[:j]

    def invert(e: tuple[int, ...]) -> tuple[int, ...]:
        return e[back:] + e[:back]

    sample = (k,) + (0,) * (n - 1)
    image = apply(sample)
    if weighted_sum(image) != (weighted_sum(sample) + 1) % n or invert(image) != sample:
        raise AssertionError(f"rotation power {j} failed its self-check for ({n}, {k})")
    return RiwiMap(descriptor="rotation", apply=apply, invert=invert)


def riwi_slime(n: int, k: int) -> RiwiMap:
    """The unit-migration map as a riwi map; needs odd prime n.

    Primality keeps every weight invertible mod n (weights never exceed
    n/2), and oddness keeps every non-constant code valid, so the map is
    total on full-period codes.
    """
    if n == 2 or not is_prime(n):
        raise ValueError(f"riwi_slime needs an odd prime length, got n = {n}")
    return RiwiMap(descriptor="slime", apply=partial(unit_step, forward=True),
                   invert=partial(unit_step, forward=False))


def riwi_from_pairs(
    pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]], name: str = "pairs"
) -> RiwiMap:
    """Wrap an explicit list of (source, image) entry-tuple pairs as a riwi-map candidate.

    The tuples are taken as given; :func:`load_riwi_map` validates a map
    file's entries first.  No properties are checked here; feed the result
    to :func:`verify_riwi`.  Sources must be distinct; a repeated image
    surfaces later as a failed round trip rather than a load error.
    """
    forward: dict[tuple[int, ...], tuple[int, ...]] = {}
    backward: dict[tuple[int, ...], tuple[int, ...]] = {}
    for src, dst in pairs:
        if src in forward:
            raise ValueError(f"custom map lists source {Code._trusted(src)} twice")
        forward[src] = dst
        backward.setdefault(dst, src)

    def apply(e: tuple[int, ...]) -> tuple[int, ...]:
        try:
            return forward[e]
        except KeyError:
            raise ValueError(f"custom map does not cover {Code._trusted(e)}") from None

    def invert(e: tuple[int, ...]) -> tuple[int, ...]:
        try:
            return backward[e]
        except KeyError:
            raise ValueError(f"custom map image does not cover {Code._trusted(e)}") from None

    return RiwiMap(descriptor=f"custom:{name}", apply=apply, invert=invert)


def load_riwi_map(path: str | Path) -> RiwiMap:
    """Load a custom map from a JSON array of {"from": [...], "to": [...]} objects."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"map file {path}: not readable: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError from a file that is not UTF-8,
        # or RecursionError from arrays nested past the decoder's depth limit
        raise ValueError(f"map file {path}: not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"map file {path} must hold a JSON array of from/to objects")
    pairs = []
    for item in data:
        try:
            pairs.append((Code(tuple(item["from"])).entries, Code(tuple(item["to"])).entries))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"map file {path}: bad entry {item!r}") from exc
    try:
        return riwi_from_pairs(pairs, name=path.stem)
    except ValueError as exc:
        raise ValueError(f"map file {path}: {exc}") from None


@dataclass(frozen=True, slots=True)
class BijectionTable:
    """An emitted code -> necklace table with its construction metadata."""

    n: int
    k: int
    riwi: str
    chooser: str
    pairs: tuple[tuple[Code, Necklace], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "riwi": self.riwi,
            "chooser": self.chooser,
            "pairs": [
                {"code": list(c.entries), "necklace": list(m.canonical), "word": m.word}
                for c, m in self.pairs
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        return [["code", "necklace", "word"]] + [[str(c), str(m), m.word] for c, m in self.pairs]


CHOOSERS: dict[str, Callable] = {"lexmin": min, "lexmax": max}


def _pick(chooser: str) -> Callable:
    """The representative chooser named ``chooser``."""
    try:
        return CHOOSERS[chooser]
    except KeyError:
        raise ValueError(f"unknown representative chooser {chooser!r}") from None


def build_sigma(n: int, k: int, chi: RiwiMap, chooser: str = "lexmin") -> BijectionTable:
    """The sigma construction over the full-period zero-residue codes, plus the constant code.

    Walks the full-period necklaces whose weighted sum ws is 0 mod
    g = gcd(n, k): exactly those have zero-residue rotations.  A left
    rotation by s lowers ws by s * k, so those rotations start at
    s0 = (ws / g) * (k / g)^(-1) mod q and step by q = n / g, and together
    they are the necklace's neck-class.  Each class is anchored at the
    member picked by ``chooser``, and stride rotations of the anchor pair
    with necklaces of iterated chi images; the anchor's own image is the
    necklace itself.  The constant code, which exists when n > 1 divides k
    and has period 1, pairs with its own necklace when it is zero-residue:
    always for odd n, and for even n only when k / n is even.  Pairs come
    out sorted by code, so equal inputs give byte-equal tables.
    Bijectivity is certified downstream, not here.
    """
    if n < 1 or k < 0:
        raise ValueError(f"build_sigma: need n >= 1 and k >= 0, got ({n}, {k})")
    pick = _pick(chooser)
    g = gcd(n, k)
    q = n // g
    step = pow(k // g, -1, q)
    pairs: list[tuple[Code, Necklace]] = []
    for neck in enumerate_necklaces(n, k, full_period_only=True):
        e = neck.canonical
        ws = weighted_sum(e)
        if ws % g:
            continue
        rep = pick([e[s:] + e[:s] for s in range(ws // g * step % q, n, q)])
        pairs.append((Code._trusted(rep), neck))
        image = rep
        for s in range(q, n, q):
            image = chi.apply(image)
            pairs.append((Code._trusted(rep[s:] + rep[:s]), canonicalize(Code._trusted(image))))
    if n > 1 and k % n == 0:
        const = (k // n,) * n
        if weighted_sum(const) == 0:
            pairs.append((Code._trusted(const), Necklace(const)))
    pairs.sort(key=lambda p: p[0].entries)
    return BijectionTable(n, k, chi.descriptor, chooser, tuple(pairs))


def _no_image(e: tuple[int, ...]) -> tuple[int, ...]:
    raise ValueError(f"no riwi map at content 0, so {Code._trusted(e)} has no image")


_N2_PARITY = RiwiMap(descriptor="custom:n2-parity", apply=lambda e: (e[0] - 1, e[1] + 1),
                     invert=lambda e: (e[0] + 1, e[1] - 1))
_NONE = RiwiMap(descriptor="none", apply=_no_image, invert=_no_image)
CONSTRUCTIONS: dict[str, tuple[Callable[[int, int], bool], Callable[[int, int], RiwiMap], str | None]] = {
    "n2-parity": (lambda n, k: n == 2 and k % 2 == 0, lambda n, k: _N2_PARITY, "lexmax"),
    "slime": (lambda n, k: n > 2 and is_prime(n), riwi_slime, None),
    "rotation": (lambda n, k: gcd(n, k) == 1, riwi_rotation, None),
    "none": (lambda n, k: k == 0, lambda n, k: _NONE, None),
}


def sigma_table(n: int, k: int, chooser: str = "lexmin") -> BijectionTable:
    """The sigma table at (n, k) by the first row of :data:`CONSTRUCTIONS` that applies.

    * ``n2-parity``, n = 2, even k: every length-2 code is invalid and
      rotation preserves the residue, so no riwi map exists.  The parity rule
      is the sigma construction under chi(a, b) = (a - 1, b + 1), which raises
      ws by 1 but is not rotation invariant, so the anchor is fixed at the
      larger rotation, where chi stays nonnegative; the chooser is only
      checked and recorded.  It pairs (x, y) with the necklace of (x, y) when
      x >= y and of (y-1, x+1) otherwise.
    * ``slime``, odd prime n: the slime riwi map.
    * ``rotation``, gcd(n, k) = 1: the rotation riwi map.
    * ``none``, k = 0: the constant code is the only code and
      :func:`build_sigma` pairs it by itself, so the map is never applied.
    * a cell no row applies to has no built-in construction: ``ValueError``.
    """
    if n < 1 or k < 0:
        raise ValueError(f"sigma_table: need n >= 1 and k >= 0, got ({n}, {k})")
    for applies, chi, anchor in CONSTRUCTIONS.values():
        if applies(n, k):
            _pick(chooser)  # an anchored row ignores the chooser but still refuses an unknown one
            return replace(build_sigma(n, k, chi(n, k), anchor or chooser), chooser=chooser)
    raise ValueError(f"no built-in construction for ({n}, {k}); supply a riwi map with --map FILE")


def prime_bijection(n: int, k: int, chooser: str = "lexmin") -> BijectionTable:
    """The total bijection F_{n,k,0} -> necklaces for prime n, by :func:`sigma_table`."""
    if not is_prime(n):
        raise ValueError(f"prime_bijection needs prime n, got {n}")
    return sigma_table(n, k, chooser)


@dataclass(slots=True)
class Tally:
    """Failures of one verification: an exact count and the first ``DETAIL_CAP`` messages."""

    checked: int = 0
    failure_count: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def fail(self, msg: str) -> None:
        self.failure_count += 1
        if len(self.failures) < DETAIL_CAP:
            self.failures.append(msg)


def _is_entries(value: object, n: int) -> bool:
    """Whether ``value`` is what a riwi map must return: a tuple of ``n`` nonnegative ints."""
    return (type(value) is tuple and len(value) == n
            and all(type(v) is int and v >= 0 for v in value))


def verify_riwi(chi: RiwiMap, n: int, k: int) -> Tally:
    """Exhaustively check ``chi`` on every full-period (n, k)-code.

    Confirms the apply/invert round trip, image coverage of the full-period
    set, the +1 weighted-sum shift, and commutation with rotation.  Runs on
    entry tuples, reading each code's weighted sum from the enumeration walk;
    only an image outside the full-period set is summed.  Codes are rendered
    only in counterexamples.  Failures become tally content, never exceptions,
    and so do any exception raised by the map and a returned value that is
    not an entry tuple of length n.  The tally's ``checked`` is the number
    of full-period codes.
    """
    ws = dict(_walk(n, k, full_period_only=True))
    tally = Tally(checked=len(ws))
    show = Code._trusted
    image: dict[tuple[int, ...], tuple[int, ...]] = {}
    for f, wf in ws.items():
        try:
            g = chi.apply(f)
        except Exception as exc:
            tally.fail(f"apply failed on {show(f)}: {exc}")
            continue
        try:
            wg = ws[g]
        except (KeyError, TypeError):  # a foreign image, or no entry tuple at all
            if not _is_entries(g, n):
                tally.fail(f"apply returned {g!r} on {show(f)}, not an entry tuple of length {n}")
                continue
            wg = weighted_sum(g)
        image[f] = g
        if wg != (wf + 1) % n:
            tally.fail(f"weighted sum not raised by 1: {show(f)} (ws {wf}) -> {show(g)} (ws {wg})")
        try:
            back = chi.invert(g)
        except Exception as exc:
            tally.fail(f"invert failed on {show(g)}: {exc}")
            continue
        if back != f:
            if not _is_entries(back, n):
                tally.fail(f"invert returned {back!r} on {show(g)}, not an entry tuple of length {n}")
            else:
                tally.fail(f"round trip broken: {show(f)} -> {show(g)} -> {show(back)}")
    for f, g in image.items():
        rg = image.get(f[1:] + f[:1])
        if rg is not None and rg != g[1:] + g[:1]:
            tally.fail(f"not rotation invariant at {show(f)}: rotation maps to {show(rg)}, "
                       f"expected {show(g[1:] + g[:1])}")
    images = set(image.values())
    if images != ws.keys():
        missing = sorted(ws.keys() - images)[:3]
        extra = sorted(images - ws.keys())[:3]
        tally.fail(
            "image does not cover the full-period codes: missing "
            f"{[str(show(e)) for e in missing]}, foreign {[str(show(e)) for e in extra]}"
        )
    return tally
