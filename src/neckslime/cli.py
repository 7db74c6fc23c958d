"""Batch command-line surface over the whole library.

Everything is print-and-exit: no interactivity, byte-deterministic output
given the arguments (certificates carry wall-time in a metadata field, data
payloads never do).  Output defaults to JSON; ``--format text`` switches to
terse human-readable lines, and bijection tables additionally offer CSV.

Each subcommand names the library call that makes its result, and one of
three printers prints it.  ``_cmd_show`` prints a single result (``slimes``,
``migrate``, ``phi``, ``ws``, ``rotate``, ``period``, ``canon``, ``word``,
``unword``): in JSON its ``to_json_dict()``, or a plain number or word keyed
by the command name; in text its ``str()``.  ``_cmd_enum`` prints the lists
of ``enum codes`` and ``enum necklaces``, one item a line: in JSON its
``to_json_dict()``, in text the line the subcommand declares (a code's
``str()``; a necklace's ``str()`` and bead word).  ``_print_certificates``
prints the certificates of ``verify``, ``sweep`` and ``verify-riwi``: in
JSON one line per certificate, flushed as soon as its check has finished;
in text the summary table, then each counterexample of a failed
certificate.  ``count`` and ``bijection`` print their own shapes;
``bijection`` takes a ``--map`` file that passes ``check_riwi``, else runs
``sigma_table`` at (n, k).

Exit codes: 0 success / verified; 1 verification failure, a violated
mathematical precondition (no built-in construction, an invalid code to
migrate, ...) or a map file that cannot be read, parsed, holds a bad entry,
lists a source twice or is no riwi map; 2 a usage error (a malformed code
literal, bead word or integer operand among them, and a ``--primes`` value
too large for an exact primality test), whose message names its reason and
quotes a long operand by its first 20 characters and its length.  Integer
operands are read as strictly as code literals: ASCII digits, with an
optional ``-``, and nothing else ``int()`` accepts.
A reader that closes the pipe early (``neckslime sweep | head -1``) ends the
command quietly with status 1: stdout is pointed at the null device so the
shutdown flush cannot fail again, and nothing is printed on stderr (the
idiom the Python ``signal`` documentation gives for SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from typing import Callable, Iterator

from .bijection import CHOOSERS, build_sigma, load_riwi_map, sigma_table
from .certify import CHECKS, Certificate, Envelope, check_riwi, run_cell, run_sweep, summarize
from .codes import Code, enumerate_codes, is_prime
from .necklaces import canonicalize, code_to_word, count_necklaces, enumerate_necklaces, word_to_code
from .slime import decompose, migrate_backward, migrate_forward, unit_migration, unit_migration_inverse


def _shown(text: str, show: Callable[[str], str] = str) -> str:
    """``show(text)`` for a refusal to quote: whole when short, else its first 20 characters and its length."""
    return show(text) if len(text) <= 24 else f"{show(text[:20])}... ({len(text)} characters)"


def _int(text: str) -> int:
    """An optional ``-`` and ASCII digits, the grammar of a code literal's entries."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"malformed integer {_shown(text, repr)}")
    try:
        return int(text)
    except ValueError:  # more digits than Python's int-string limit; echoing them would flood stderr
        raise argparse.ArgumentTypeError(
            f"has {len(text.lstrip('-'))} digits, over the limit of {sys.get_int_max_str_digits()}") from None


def _positive(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {_shown(text)}")
    return value


def _nonneg(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {_shown(text)}")
    return value


def _prime(text: str) -> int:
    value = _int(text)
    try:
        prime = is_prime(value)
    except ValueError as exc:  # too large for an exact answer
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not prime:
        raise argparse.ArgumentTypeError(f"must be prime, got {_shown(text)}")
    return value


def _code(text: str) -> Code:
    try:
        return Code.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _word(text: str) -> Code:
    try:
        return word_to_code(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_show(args: argparse.Namespace) -> int:
    """Print ``args.result(args)``: its JSON record (a plain value keyed by the command name), or its text."""
    result = args.result(args)
    if args.format == "text":
        print(result)
    else:
        print(json.dumps({args.command: result} if isinstance(result, (int, str)) else result.to_json_dict()))
    return 0


def _migrated(args: argparse.Namespace) -> Code:
    step = migrate_backward if args.backward else migrate_forward
    code = args.code
    for _ in range(args.steps):
        code = step(code)
    return code


def _cmd_enum(args: argparse.Namespace) -> int:
    """Write each of ``args.items(args)`` on a line as it comes: its JSON record, or ``args.text(item)``."""
    line = (lambda item: json.dumps(item.to_json_dict())) if args.format == "json" else args.text
    sys.stdout.writelines(f"{line(item)}\n" for item in args.items(args))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    formula = count_necklaces(args.n, args.k)
    enumerated = len(enumerate_necklaces(args.n, args.k))
    match = formula == enumerated
    record = {"n": args.n, "k": args.k, "formula": formula, "enumerated": enumerated, "match": match}
    print(json.dumps(record) if args.format == "json" else f"formula={formula} enumerated={enumerated}")
    return 0 if match else 1


def _cmd_bijection(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    if args.map is None:
        table = sigma_table(n, k, args.chooser)
    else:
        chi = load_riwi_map(args.map)
        cert = check_riwi("riwi-map", chi, n, k)
        if not cert.passed:
            raise ValueError(f"map file {args.map}: not a riwi map at ({n}, {k}): {cert.counterexamples[0]}")
        table = build_sigma(n, k, chi, args.chooser)
    if args.format == "json":
        print(json.dumps(table.to_json_dict()))
    elif args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(table.to_csv_rows())
    else:
        sys.stdout.writelines(f"{code} -> {neck} {neck.word}\n" for code, neck in table.pairs)
    return 0


def _print_certificates(args: argparse.Namespace) -> int:
    """``args.certificates(args)`` as JSON lines flushed as each arrives, or as the summary table at the end."""
    done = []
    for cert in args.certificates(args):
        done.append(cert)
        if args.format == "json":
            print(json.dumps(cert.to_json_dict()), flush=True)
    if args.format == "text":
        print(summarize(done))
    return 0 if all(c.passed for c in done) else 1


def _swept(args: argparse.Namespace) -> Iterator[Certificate]:
    envelope = Envelope(n_max=args.n_max, k_max=args.k_max, prime_extra=tuple(args.primes),
                        max_codes=args.max_codes)
    return run_sweep(envelope, args.check)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neckslime",
        description="Cyclic integer codes, slime migration, and necklace bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json", help="output format")
    code = argparse.ArgumentParser(add_help=False)
    code.add_argument("code", type=_code)
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("n", type=_positive)
    cell.add_argument("k", type=_nonneg)

    p = sub.add_parser("slimes", parents=[code, fmt], help="decompose a code into slimes")
    p.set_defaults(func=_cmd_show, result=lambda a: decompose(a.code))

    p = sub.add_parser("migrate", parents=[code, fmt], help="apply forward or backward migrations")
    p.add_argument("--backward", action="store_true")
    p.add_argument("--steps", type=_nonneg, default=1)
    p.set_defaults(func=_cmd_show, result=_migrated)

    p = sub.add_parser("phi", parents=[code, fmt], help="unit migration: shift the weighted sum by +1")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=_cmd_show,
                   result=lambda a: (unit_migration_inverse if a.inverse else unit_migration)(a.code))

    p = sub.add_parser("ws", parents=[code, fmt], help="weighted-sum residue of a code")
    p.set_defaults(func=_cmd_show, result=lambda a: a.code.weighted_sum())

    p = sub.add_parser("rotate", parents=[code, fmt], help="rotate a code left by a step count")
    p.add_argument("--steps", type=_int, default=1)
    p.set_defaults(func=_cmd_show, result=lambda a: a.code.rotate(a.steps))

    p = sub.add_parser("period", parents=[code, fmt], help="smallest repetition period of a code")
    p.set_defaults(func=_cmd_show, result=lambda a: a.code.period())

    p = sub.add_parser("canon", parents=[code, fmt], help="canonical necklace of a code")
    p.set_defaults(func=_cmd_show, result=lambda a: canonicalize(a.code))

    p = sub.add_parser("word", parents=[code, fmt], help="bead word of a code")
    p.set_defaults(func=_cmd_show, result=lambda a: code_to_word(a.code))

    p = sub.add_parser("unword", parents=[fmt], help="gap code of a bead word")
    p.add_argument("word", type=_word)
    p.set_defaults(func=_cmd_show, result=lambda a: a.word)

    p = sub.add_parser("enum", help="enumerate codes or necklaces")
    enum_sub = p.add_subparsers(dest="what", required=True)

    q = enum_sub.add_parser("codes", parents=[cell, fmt], help="codes of given length and content")
    q.add_argument("--t", type=_int, default=None, help="restrict to one weighted-sum residue")
    q.add_argument("--full-period", action="store_true")
    q.set_defaults(func=_cmd_enum, text=str,
                   items=lambda a: enumerate_codes(a.n, a.k, t=a.t, full_period_only=a.full_period))

    q = enum_sub.add_parser("necklaces", parents=[cell, fmt], help="necklaces of given bead counts")
    q.add_argument("--full-period", action="store_true")
    q.set_defaults(func=_cmd_enum, text=lambda m: f"{m} {m.word}",
                   items=lambda a: enumerate_necklaces(a.n, a.k, full_period_only=a.full_period))

    p = sub.add_parser("count", parents=[cell, fmt], help="necklace count: closed formula vs enumeration")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bijection", parents=[cell], help="emit a code-to-necklace table")
    p.add_argument("--map", default=None, metavar="FILE", help="custom riwi map (JSON pairs)")
    p.add_argument("--chooser", choices=tuple(CHOOSERS), default="lexmin")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json", help="output format")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("verify", parents=[cell, fmt], help="run certification checks at one (n, k) cell")
    p.add_argument("--check", choices=("all", *CHECKS), default="all")
    p.set_defaults(func=_print_certificates, certificates=lambda a: run_cell(a.n, a.k, a.check))

    p = sub.add_parser("sweep", parents=[fmt], help="run the certification checks over an envelope of cells")
    envelope = Envelope()
    p.add_argument("--n-max", type=_nonneg, default=envelope.n_max)
    p.add_argument("--k-max", type=_nonneg, default=envelope.k_max)
    p.add_argument("--primes", type=_prime, nargs="*", default=list(envelope.prime_extra),
                   help="extra prime lengths to sweep beyond n-max")
    p.add_argument("--max-codes", type=_positive, default=envelope.max_codes,
                   help="skip any cell whose enumeration would exceed this")
    p.add_argument("--check", action="append", choices=tuple(CHECKS), default=None, metavar="NAME",
                   help="restrict to one check (repeatable)")
    p.set_defaults(func=_print_certificates, certificates=_swept)

    p = sub.add_parser("verify-riwi", parents=[cell, fmt],
                       help="test a user-supplied map for the riwi properties")
    p.add_argument("--map", required=True, metavar="FILE")
    p.set_defaults(func=_print_certificates,
                   certificates=lambda a: [check_riwi("riwi-map", load_riwi_map(a.map), a.n, a.k)])

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
