from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
import threading
from math import gcd
from pathlib import Path

import pytest

import neckslime
import neckslime.cli
from neckslime import Code, Envelope, load_riwi_map, run_sweep
from neckslime.certify import check_riwi
from neckslime.cli import build_parser, main


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "neckslime", *args],
        capture_output=True,
        text=True,
    )


def write_map(path: Path, image, n: int, k: int) -> Path:
    rows = [{"from": list(f.entries), "to": list(image(f.entries))}
            for f in neckslime.enumerate_codes(n, k, full_period_only=True)]
    path.write_text(json.dumps(rows))
    return path


class TestCodeCommands:
    def test_ws(self):
        p = run("ws", "4,2,1")
        assert p.returncode == 0 and json.loads(p.stdout) == {"ws": 1}
        assert run("ws", "4,2,1", "--format", "text").stdout.strip() == "1"

    def test_rotate(self):
        p = run("rotate", "--steps", "1", "4,2,1", "--format", "text")
        assert p.stdout.strip() == "2,1,4"
        p = run("rotate", "--steps", "-1", "2,1,4", "--format", "text")
        assert p.stdout.strip() == "4,2,1"

    def test_period(self):
        assert json.loads(run("period", "2,0,2,0").stdout) == {"period": 2}

    def test_canon(self):
        assert json.loads(run("canon", "1,0,2").stdout) == {"canonical": [0, 2, 1], "word": "BBWWBW"}

    def test_word_unword_round_trip(self):
        word = run("word", "4,2,1", "--format", "text").stdout.strip()
        assert word == "BWWWWBWWBW"
        back = run("unword", word, "--format", "text").stdout.strip()
        canon1 = run("canon", back, "--format", "text").stdout.strip()
        canon2 = run("canon", "4,2,1", "--format", "text").stdout.strip()
        assert canon1 == canon2

    def test_unword_wraparound(self):
        assert run("unword", "WWB", "--format", "text").stdout.strip() == "2"


class TestSlimeCommands:
    def test_slimes_json(self):
        got = json.loads(run("slimes", "1,1,2,1,0,1,0,3,0,0,2").stdout)
        assert got == {
            "m": 3,
            "valid": True,
            "weight": 3,
            "slimes": [{"start": 1, "len": 3}, {"start": 6, "len": 3}, {"start": 10, "len": 2}],
        }

    def test_slimes_invalid(self):
        got = json.loads(run("slimes", "1,1,1").stdout)
        assert got == {"m": 2, "valid": False, "slimes": []}

    def test_migrate_golden_chain(self):
        p = run("migrate", "1,1,2,1,0,1,0,3,0,0,2", "--format", "text")
        assert p.stdout.strip() == "2,1,1,2,0,1,0,2,1,0,1"
        p = run("migrate", "--steps", "2", "1,1,2,1,0,1,0,3,0,0,2", "--format", "text")
        assert p.stdout.strip() == "1,2,0,3,0,1,0,1,2,0,1"
        p = run("migrate", "--backward", "2,1,1,2,0,1,0,2,1,0,1", "--format", "text")
        assert p.stdout.strip() == "1,1,2,1,0,1,0,3,0,0,2"

    def test_phi_golden_chain(self):
        assert run("phi", "3,0,0", "--format", "text").stdout.strip() == "2,1,0"
        assert run("phi", "--inverse", "2,1,0", "--format", "text").stdout.strip() == "3,0,0"


class TestEnumCount:
    def test_enum_codes_residue(self):
        p = run("enum", "codes", "3", "3", "--t", "0", "--format", "text")
        assert p.stdout.split() == ["0,0,3", "0,3,0", "1,1,1", "3,0,0"]

    def test_enum_codes_jsonl(self):
        lines = run("enum", "codes", "2", "2").stdout.splitlines()
        assert [json.loads(b)["entries"] for b in lines] == [[0, 2], [1, 1], [2, 0]]

    def test_enum_necklaces(self):
        lines = run("enum", "necklaces", "3", "3").stdout.splitlines()
        assert [json.loads(b)["canonical"] for b in lines] == [[0, 0, 3], [0, 1, 2], [0, 2, 1], [1, 1, 1]]

    def test_enum_full_period(self):
        p = run("enum", "codes", "3", "3", "--full-period", "--format", "text")
        assert "1,1,1" not in p.stdout.split()

    # sha256 over (argv, stdout, stderr, exit code) of every call below, in loop order
    ENUM_SHA256 = "c8ab962dfd79ada65a6d6ba7a96100c05470686af4ffa07f8273ec5b1a80da45"

    def test_every_small_enum(self, capsys):
        argvs = [["enum", "codes", str(n), str(k), "--format", fmt, *flags]
                 for n in range(1, 7) for k in range(7) for fmt in ("json", "text")
                 for flags in ([], ["--t", "0"], ["--t", "-1"], ["--full-period"])]
        argvs += [["enum", "necklaces", str(n), str(k), "--format", "json"] for n in range(1, 7) for k in range(7)]
        digest = hashlib.sha256()
        for argv in argvs:
            status = main(argv)
            captured = capsys.readouterr()
            digest.update(json.dumps([argv, captured.out, captured.err, status]).encode())
        assert len(argvs) == 42 * 8 + 42 and digest.hexdigest() == self.ENUM_SHA256

    def test_count_text(self):
        p = run("count", "3", "3", "--format", "text")
        assert p.returncode == 0 and p.stdout.strip() == "formula=4 enumerated=4"

    def test_count_json(self):
        got = json.loads(run("count", "5", "10").stdout)
        assert got == {"n": 5, "k": 10, "formula": 201, "enumerated": 201, "match": True}


class TestSingleResultDigest:
    # sha256 over (argv, stdout, stderr, exit code) of every call below, in loop order
    SHA256 = "a8aba7471bf6bedf76938916529f14682b726160d3fe320cba419376b11ce475"
    CODE_COMMANDS = (("slimes",), ("migrate",), ("migrate", "--backward"), ("phi",), ("phi", "--inverse"),
                     ("ws",), ("rotate",), ("period",), ("canon",), ("word",))

    def test_every_small_code_and_count(self, monkeypatch):
        # one parser serves every call, as building it dominates a call's time
        parser = build_parser()
        monkeypatch.setattr(neckslime.cli, "build_parser", lambda: parser)
        argvs = []
        for n in range(1, 6):
            for k in range(6):
                for f in neckslime.enumerate_codes(n, k):
                    argvs += [[*command, str(f)] for command in self.CODE_COMMANDS]
                    argvs.append(["unword", neckslime.code_to_word(f)])
        argvs += [["count", str(n), str(k)] for n in range(1, 8) for k in range(8)]
        digest = hashlib.sha256()
        for argv in argvs:
            for fmt in ("json", "text"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = main([*argv, "--format", fmt])
                digest.update(json.dumps([argv, fmt, out.getvalue(), err.getvalue(), status]).encode())
        assert len(argvs) == 461 * 11 + 56 and digest.hexdigest() == self.SHA256


class TestCertificateAndStepDigest:
    # sha256 over (argv, stdout, stderr, exit code) of every call below, in loop order,
    # with each certificate's elapsed time masked
    SHA256 = "c60c1d5031bdf6450863ae81465a12569fa55cfdfa7428aeb1e155d5c82a2302"
    STEP_OPTIONS = (("migrate", "--steps", "0"), ("migrate", "--steps", "3"),
                    ("migrate", "--backward", "--steps", "2"), ("rotate", "--steps", "-1"),
                    ("rotate", "--steps", "5"))
    SWEEPS = (("sweep", "--n-max", "3", "--k-max", "3", "--primes", "--max-codes", "1000"),
              ("sweep", "--n-max", "2", "--k-max", "4", "--primes", "5", "--check", "count-identity",
               "--check", "riwi-slime"))

    @staticmethod
    def without_time(out: str) -> str:
        """``out`` with each JSON ``elapsed_s`` set to 0 and each text summary row's seconds column masked."""
        out = re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', out)
        return re.sub(r"  [0-9]+\.[0-9]{3}$", "  S", out, flags=re.MULTILINE)

    def test_every_cell_certificate_and_step_count(self, monkeypatch, tmp_path):
        parser = build_parser()
        monkeypatch.setattr(neckslime.cli, "build_parser", lambda: parser)
        monkeypatch.chdir(tmp_path)
        write_map(tmp_path / "slime.json", neckslime.riwi_slime(3, 3).apply, 3, 3)
        write_map(tmp_path / "identity.json", lambda f: f, 3, 3)
        argvs = [["verify", str(n), str(k), "--check", check]
                 for n in range(1, 6) for k in range(5) for check in ("all", *neckslime.CHECKS)]
        argvs += [list(sweep) for sweep in self.SWEEPS]
        for n in range(1, 5):
            for k in range(5):
                for f in neckslime.enumerate_codes(n, k):
                    argvs += [[*options, str(f)] for options in self.STEP_OPTIONS]
        argvs += [["verify-riwi", "--map", name, "3", "3"] for name in ("slime.json", "identity.json")]
        digest = hashlib.sha256()
        for argv in argvs:
            for fmt in ("json", "text"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = main([*argv, "--format", fmt])
                digest.update(json.dumps([argv, fmt, self.without_time(out.getvalue()), err.getvalue(),
                                          status]).encode())
        assert len(argvs) == 175 + 2 + 125 * 5 + 2 and digest.hexdigest() == self.SHA256


class TestBijectionCommand:
    def test_worked_table_json(self):
        got = json.loads(run("bijection", "3", "3").stdout)
        assert got["n"] == 3 and got["k"] == 3
        assert got["riwi"] == "slime" and got["chooser"] == "lexmin"
        assert got["pairs"] == [
            {"code": [0, 0, 3], "necklace": [0, 0, 3], "word": "BBBWWW"},
            {"code": [0, 3, 0], "necklace": [0, 2, 1], "word": "BBWWBW"},
            {"code": [1, 1, 1], "necklace": [1, 1, 1], "word": "BWBWBW"},
            {"code": [3, 0, 0], "necklace": [0, 1, 2], "word": "BBWBWW"},
        ]

    def test_byte_determinism(self):
        first = run("bijection", "3", "3")
        second = run("bijection", "3", "3")
        assert first.stdout == second.stdout and first.returncode == second.returncode == 0

    def test_csv(self):
        lines = run("bijection", "3", "3", "--format", "csv").stdout.splitlines()
        assert lines[0] == "code,necklace,word"
        assert lines[1] == '"0,0,3","0,0,3",BBBWWW'
        assert len(lines) == 5

    def test_n2_default(self):
        got = json.loads(run("bijection", "2", "4").stdout)
        assert got["riwi"] == "custom:n2-parity"
        assert {tuple(p["code"]) for p in got["pairs"]} == {(0, 4), (2, 2), (4, 0)}

    def test_custom_map(self, tmp_path):
        import neckslime

        chi = neckslime.riwi_rotation(4, 3)
        rows = [
            {"from": list(f.entries), "to": list(chi.apply(f.entries))}
            for f in neckslime.enumerate_codes(4, 3, full_period_only=True)
        ]
        path = tmp_path / "rot.json"
        path.write_text(json.dumps(rows))
        p = run("bijection", "4", "3", "--map", str(path))
        got = json.loads(p.stdout)
        assert p.returncode == 0 and got["riwi"] == "custom:rot" and len(got["pairs"]) == 5

    def test_rotation_at_non_prime_length(self):
        p = run("bijection", "4", "3")
        got = json.loads(p.stdout)
        assert p.returncode == 0 and got["riwi"] == "rotation"
        necklaces = [list(m.canonical) for m in neckslime.enumerate_necklaces(4, 3)]
        assert sorted(pair["necklace"] for pair in got["pairs"]) == necklaces

    def test_map_that_is_not_riwi_is_refused(self, tmp_path):
        path = write_map(tmp_path / "identity.json", lambda f: f, 4, 6)
        first = neckslime.verify_riwi(load_riwi_map(path), 4, 6).failures[0]
        p = run("bijection", "4", "6", "--map", str(path))
        assert p.returncode == 1 and p.stdout == ""
        assert p.stderr == f"error: map file {path}: not a riwi map at (4, 6): {first}\n"

    # sha256 of the JSON tables of every prime-n or coprime cell below, in loop order
    SMALL_CELLS_SHA256 = "f0db7bd1007b859cfb0fb7e0d738602fd7e0c84b362e97ba77e2e999fe49a388"

    def test_every_small_cell(self, capsys):
        digest = hashlib.sha256()
        for n in range(1, 10):
            for k in range(10):
                for chooser in ("lexmin", "lexmax"):
                    status = main(["bijection", str(n), str(k), "--chooser", chooser, "--format", "json"])
                    out, err = capsys.readouterr()
                    pinned = neckslime.is_prime(n) or gcd(n, k) == 1
                    if pinned or k == 0:
                        assert status == 0 and err == "", (n, k, chooser)
                        if pinned:
                            digest.update(out.encode())
                        else:
                            assert json.loads(out)["riwi"] == "none", (n, k, chooser)
                        pairs = json.loads(out)["pairs"]
                        codes = [f.entries for f in neckslime.enumerate_codes(n, k, t=0)]
                        necklaces = [m.canonical for m in neckslime.enumerate_necklaces(n, k)]
                        assert sorted(tuple(pair["code"]) for pair in pairs) == sorted(codes), (n, k)
                        assert sorted(tuple(pair["necklace"]) for pair in pairs) == sorted(necklaces), (n, k)
                    else:
                        assert status == 1 and out == "", (n, k, chooser)
                        assert err == (f"error: no built-in construction for ({n}, {k}); "
                                       "supply a riwi map with --map FILE\n"), (n, k)
        assert digest.hexdigest() == self.SMALL_CELLS_SHA256

    # sha256 of the CSV and text tables of every cell above and of the text necklace lists, in loop order
    TEXT_SHA256 = "539af6c79842b8ff483aec8a228fa30d81cf98deedbf7b3e4a2d5ee1455444ec"

    def test_every_small_cell_as_csv_and_text(self, capsys):
        argvs = [["bijection", str(n), str(k), "--chooser", chooser, "--format", fmt]
                 for n in range(1, 10) for k in range(10)
                 for chooser in ("lexmin", "lexmax") for fmt in ("csv", "text")]
        argvs += [["enum", "necklaces", str(n), str(k), "--format", "text", *flag]
                  for n in range(1, 8) for k in range(8) for flag in ([], ["--full-period"])]
        digest = hashlib.sha256()
        for argv in argvs:
            status = main(argv)
            digest.update(json.dumps([argv, capsys.readouterr().out, status]).encode())
        assert len(argvs) == 360 + 112 and digest.hexdigest() == self.TEXT_SHA256

    # sha256 of the tables and necklace lists below, whose entries reach two and three digits, in loop order
    MULTI_DIGIT_SHA256 = "f293c40b88c798c70b180eeee6aa619a792f7b35366e55c7f277a44bf392bd81"

    def test_multi_digit_cells(self, capsys):
        cells = [(1, 100), *((2, k) for k in range(10, 25)), (3, 12), (5, 15)]
        argvs = [["bijection", str(n), str(k), "--chooser", chooser, "--format", fmt]
                 for n, k in cells for chooser in ("lexmin", "lexmax") for fmt in ("json", "csv", "text")]
        argvs += [["enum", "necklaces", str(n), str(k), "--format", fmt] for n, k in cells for fmt in ("text", "json")]
        digest = hashlib.sha256()
        for argv in argvs:
            status = main(argv)
            out, err = capsys.readouterr()
            assert status == 0 and err == "", argv
            digest.update(json.dumps([argv, out]).encode())
        assert len(argvs) == 18 * 8 and digest.hexdigest() == self.MULTI_DIGIT_SHA256

    def test_chooser_flag(self):
        got = json.loads(run("bijection", "3", "3", "--chooser", "lexmax").stdout)
        assert got["chooser"] == "lexmax"
        assert len(got["pairs"]) == 4


class TestVerifyCommands:
    def test_verify_cell(self):
        p = run("verify", "3", "3")
        assert p.returncode == 0
        certs = [json.loads(line) for line in p.stdout.splitlines()]
        assert {c["check"] for c in certs} == {
            "invalid-constant", "migration-laws", "count-identity",
            "riwi-slime", "prime-bijection",
        }
        assert all(c["verdict"] == "pass" for c in certs)

    def test_verify_single_check_text(self):
        p = run("verify", "3", "7", "--check", "count-identity", "--format", "text")
        assert p.returncode == 0 and "pass" in p.stdout

    def test_verify_riwi_pass_and_fail(self, tmp_path):
        import neckslime

        domain = list(neckslime.enumerate_codes(3, 3, full_period_only=True))
        good = neckslime.riwi_slime(3, 3)
        good_rows = [{"from": list(f.entries), "to": list(good.apply(f.entries))} for f in domain]
        bad_rows = [{"from": list(f.entries), "to": list(f.entries)} for f in domain]
        good_path, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
        good_path.write_text(json.dumps(good_rows))
        bad_path.write_text(json.dumps(bad_rows))

        p = run("verify-riwi", "--map", str(good_path), "3", "3")
        assert p.returncode == 0 and json.loads(p.stdout)["verdict"] == "pass"
        p = run("verify-riwi", "--map", str(bad_path), "3", "3")
        assert p.returncode == 1 and json.loads(p.stdout)["verdict"] == "fail"

    def test_verify_riwi_certificate(self, tmp_path):
        path = write_map(tmp_path / "slime.json", neckslime.riwi_slime(3, 3).apply, 3, 3)
        p = run("verify-riwi", "--map", str(path), "3", "3")
        assert p.returncode == 0 and len(p.stdout.splitlines()) == 1
        got = json.loads(p.stdout)
        want = check_riwi("riwi-map", load_riwi_map(path), 3, 3).to_json_dict()
        assert list(got) == list(want)
        assert {**got, "elapsed_s": 0} == {**want, "elapsed_s": 0}
        assert got["check"] == "riwi-map" and got["examined"] == 9
        assert got["info"] == {"riwi": "custom:slime"}

    def test_verify_riwi_text_lists_counterexamples(self, tmp_path):
        path = write_map(tmp_path / "identity.json", lambda f: f, 3, 3)
        p = run("verify-riwi", "--map", str(path), "3", "3", "--format", "text")
        assert p.returncode == 1
        details = check_riwi("riwi-map", load_riwi_map(path), 3, 3).counterexamples
        lines = p.stdout.splitlines()
        assert len(details) == 9 and lines[-1] == "1 checks, 1 failed"
        assert lines[2:-1] == [f"  riwi-map (3, 3): {d}" for d in details]


class TestSweepCommand:
    ARGS = ("sweep", "--n-max", "3", "--k-max", "3", "--primes", "--max-codes", "1000")

    @staticmethod
    def without_time(d: dict) -> dict:
        return {key: v for key, v in d.items() if key != "elapsed_s"}

    def test_json_lines_match_run_sweep(self):
        p = run(*self.ARGS)
        assert p.returncode == 0
        got = [self.without_time(json.loads(line)) for line in p.stdout.splitlines()]
        want = [self.without_time(c.to_json_dict()) for c in run_sweep(Envelope(3, 3, (), 1000))]
        assert got == want
        assert all(c["verdict"] == "pass" for c in got)

    def test_text_summary(self):
        p = run(*self.ARGS, "--format", "text")
        assert p.returncode == 0
        n = len(list(run_sweep(Envelope(3, 3, (), 1000))))
        assert p.stdout.splitlines()[-1] == f"{n} checks, 0 failed"

    def test_check_restricts(self):
        p = run(*self.ARGS, "--check", "count-identity")
        assert p.returncode == 0
        assert {json.loads(line)["check"] for line in p.stdout.splitlines()} == {"count-identity"}

    def test_unknown_check_is_two(self):
        assert run("sweep", "--check", "nope").returncode == 2


def parser_snapshot(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """Every subcommand's arguments: positionals in order, then options by dest."""
    args, children = [], {}
    for a in parser._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        if isinstance(a, argparse._SubParsersAction):
            args.append((a.dest, (), None, tuple(a.choices), None, None, a.required))
            for name, child in a.choices.items():
                children.update(parser_snapshot(child, f"{path} {name}".strip()))
            continue
        choices = None if a.choices is None else tuple(a.choices)
        args.append((a.dest, tuple(a.option_strings), a.default, choices, a.nargs,
                     getattr(a.type, "__name__", None), a.required))
    args.sort(key=lambda t: (bool(t[1]), t[0] if t[1] else ""))
    return {path: args, **children}


class TestParserSnapshot:
    # (dest, option strings, default, choices, nargs, type name, required)
    CODE = ("code", (), None, None, None, "_code", True)
    FORMAT = ("format", ("--format",), "json", ("json", "text"), None, None, False)
    N = ("n", (), None, None, None, "_positive", True)
    K = ("k", (), None, None, None, "_nonneg", True)
    NAMES = ("invalid-constant", "migration-laws", "count-identity",
             "riwi-slime", "riwi-rotation", "prime-bijection")
    FULL_PERIOD = ("full_period", ("--full-period",), False, None, 0, None, False)

    def test_every_argument(self):
        code, fmt, n, k = self.CODE, self.FORMAT, self.N, self.K
        want = {
            "": [("command", (), None, ("slimes", "migrate", "phi", "ws", "rotate", "period", "canon",
                                        "word", "unword", "enum", "count", "bijection", "verify",
                                        "sweep", "verify-riwi"), None, None, True)],
            "slimes": [code, fmt],
            "migrate": [code, ("backward", ("--backward",), False, None, 0, None, False), fmt,
                        ("steps", ("--steps",), 1, None, None, "_nonneg", False)],
            "phi": [code, fmt, ("inverse", ("--inverse",), False, None, 0, None, False)],
            "ws": [code, fmt],
            "rotate": [code, fmt, ("steps", ("--steps",), 1, None, None, "_int", False)],
            "period": [code, fmt],
            "canon": [code, fmt],
            "word": [code, fmt],
            "unword": [("word", (), None, None, None, "_word", True), fmt],
            "enum": [("what", (), None, ("codes", "necklaces"), None, None, True)],
            "enum codes": [n, k, fmt, self.FULL_PERIOD, ("t", ("--t",), None, None, None, "_int", False)],
            "enum necklaces": [n, k, fmt, self.FULL_PERIOD],
            "count": [n, k, fmt],
            "bijection": [n, k, ("chooser", ("--chooser",), "lexmin", ("lexmin", "lexmax"), None, None, False),
                          ("format", ("--format",), "json", ("json", "csv", "text"), None, None, False),
                          ("map", ("--map",), None, None, None, None, False)],
            "verify": [n, k, ("check", ("--check",), "all", ("all", *self.NAMES), None, None, False), fmt],
            "sweep": [("check", ("--check",), None, self.NAMES, None, None, False), fmt,
                      ("k_max", ("--k-max",), 8, None, None, "_nonneg", False),
                      ("max_codes", ("--max-codes",), 500_000, None, None, "_positive", False),
                      ("n_max", ("--n-max",), 8, None, None, "_nonneg", False),
                      ("primes", ("--primes",), [11], None, "*", "_prime", False)],
            "verify-riwi": [n, k, fmt, ("map", ("--map",), None, None, None, None, True)],
        }
        assert parser_snapshot(build_parser()) == want


class TestReadme:
    def test_every_command_documented(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        missing = [name for name in sub.choices
                   if not re.search(rf"neckslime {re.escape(name)}(?![\w-])", readme)]
        assert missing == []

    def test_every_example_parses(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        examples = [re.split("[#>]", line)[0] for line in
                    re.findall(r"^(?:\$ )?neckslime (.*)$", readme, flags=re.MULTILINE)]
        parser, failing = build_parser(), []
        for example in examples:
            try:
                parser.parse_args(shlex.split(example))
            except SystemExit:
                failing.append(example)
        assert examples and failing == []

    def test_every_shown_output(self, capsys):
        """A shown output matches line by line; ``...`` ends what is shown, ``[...]`` elides a list."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        shown = re.findall(r"^\$ neckslime ([^#\n]*)(?:#.*)?\n((?:(?!\$ |```).+\n)+)", readme, flags=re.MULTILINE)
        wrong = []
        for example, output in shown:
            status = main(shlex.split(example))
            got = capsys.readouterr().out.splitlines()
            want = output.splitlines()
            if "..." in want:
                want = want[:want.index("...")]
                got = got[:len(want)]
            patterns = [re.escape(line).replace(re.escape("[...]"), r"\[.*\]") for line in want]
            if status != 0 or len(got) != len(want) or not all(map(re.fullmatch, patterns, got)):
                wrong.append(example)
        assert len(shown) == 14 and wrong == []


class TestExitCodes:
    def test_math_precondition_is_one(self):
        assert run("bijection", "6", "4").returncode == 1
        assert run("phi", "1,1,1").returncode == 1
        assert run("phi", "3,0,0,3,0,0").returncode == 1
        assert run("migrate", "2,2").returncode == 1
        assert run("verify", "4", "4", "--check", "invalid-constant").returncode == 1

    def test_usage_is_two(self):
        assert run("ws", "a,b").returncode == 2
        assert run("nosuch").returncode == 2
        assert run("ws", "--", "-1,2").returncode == 2
        assert run("verify", "3", "3", "--check", "nope").returncode == 2
        assert run("bijection", "3").returncode == 2
        assert run("bijection", "3", "3", "--riwi", "slime", "--map", "m.json").returncode == 2

    def test_loose_code_literals_are_two(self):
        # int() reads each of these, the first as 10
        for literal in ("1_0,2", " 1,2", "+1,2", "\u0661,\u0662", "1,2 "):
            with pytest.raises(ValueError, match="malformed code literal"):
                Code.parse(literal)
            p = run("ws", "--format", "text", literal)
            assert p.returncode == 2 and p.stdout == "", literal
            assert f"argument code: malformed code literal {literal!r}" in p.stderr, literal
        # integer operands take the same ASCII digits, with an optional "-"
        for argv, reason in ((("enum", "codes", "\u0663", "1_0"), "argument n: malformed integer '\u0663'"),
                             (("rotate", "--steps", "1_0", "1,2,3"), "argument --steps: malformed integer '1_0'"),
                             (("enum", "codes", "3", "3", "--t", "+1"), "argument --t: malformed integer '+1'"),
                             (("enum", "codes", "3", "3", "--t", " 1"), "argument --t: malformed integer ' 1'"),
                             (("enum", "codes", "0", "3"), "argument n: must be at least 1, got 0"),
                             (("count", "3", "-1"), "argument k: must be nonnegative, got -1")):
            p = run(*argv)
            assert p.returncode == 2 and p.stdout == "" and reason in p.stderr, argv
        assert run("rotate", "--steps", "-1", "1,2,3", "--format", "text").stdout == "3,1,2\n"
        p = run("enum", "codes", "3", "3", "--t", "-1", "--format", "text")
        assert p.stdout.split() == ["0,1,2", "1,2,0", "2,0,1"]

    def test_malformed_bead_words_are_two(self):
        for word, reason in (("XYZ", "may only contain 'B' and 'W', got 'XYZ'"),
                             ("", "needs at least one black bead, got ''"),
                             ("WWW", "needs at least one black bead, got 'WWW'")):
            p = run("unword", word)
            assert p.returncode == 2 and p.stdout == "", word
            assert f"argument word: bead word {reason}\n" in p.stderr, word

    def test_missing_map_file_is_one(self, tmp_path):
        for path, reason in (("/nonexistent.json", "No such file or directory"), (tmp_path, "Is a directory")):
            p = run("verify-riwi", "--map", str(path), "3", "3")
            assert p.returncode == 1 and p.stdout == ""
            assert p.stderr == f"error: map file {path}: not readable: {reason}\n"

    def test_bool_map_entry_is_one(self, tmp_path):
        path = tmp_path / "bools.json"
        path.write_text('[{"from": [true, 0, 2], "to": [1, 0, 2]}]')
        p = run("verify-riwi", "--map", str(path), "3", "3")
        assert p.returncode == 1 and p.stdout == ""
        assert "error: map file" in p.stderr and "bad entry" in p.stderr

    def test_bad_map_values_name_the_file(self, tmp_path):
        path = tmp_path / "values.json"
        for entry in ([-1, 2, 2], []):
            path.write_text(json.dumps([{"from": entry, "to": [1, 0, 2]}]))
            p = run("verify-riwi", "--map", str(path), "3", "3")
            assert p.returncode == 1 and p.stdout == ""
            assert "error: map file" in p.stderr and "bad entry" in p.stderr

    def test_duplicate_map_source_names_the_file(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps([{"from": [1, 0, 2], "to": [2, 0, 1]}] * 2))
        for argv in (("verify-riwi", "--map", str(path), "3", "3"), ("bijection", "3", "3", "--map", str(path))):
            p = run(*argv)
            assert p.returncode == 1 and p.stdout == ""
            assert p.stderr == f"error: map file {path}: custom map lists source 1,0,2 twice\n"

    def test_map_file_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe[")
        for argv in (("verify-riwi", "--map", str(path), "3", "3"), ("bijection", "3", "3", "--map", str(path))):
            p = run(*argv)
            assert p.returncode == 1 and p.stdout == ""
            assert p.stderr.startswith(f"error: map file {path}: not valid JSON: 'utf-8' codec"), argv

    def test_malformed_map_json_is_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1")
        p = run("verify-riwi", "--map", str(path), "3", "3")
        assert p.returncode == 1 and p.stdout == ""
        assert f"error: map file {path}: not valid JSON" in p.stderr

    def test_deeply_nested_map_json_is_one(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        for argv in (("verify-riwi", "3", "3", "--map", str(path)), ("bijection", "3", "3", "--map", str(path))):
            p = run(*argv)
            assert p.returncode == 1 and p.stdout == "", argv
            assert p.stderr.startswith(f"error: map file {path}: not valid JSON"), argv
            assert p.stderr.count("\n") == 1 and "Traceback" not in p.stderr, argv

    def test_overlong_integer_is_two(self):
        # int() refuses more digits than sys.get_int_max_str_digits() with a ValueError of its own
        digits = "9" * 4301
        for argv, operand in ((("count", digits, "3"), "n"), (("verify", "3", digits), "k"),
                              (("enum", "codes", "3", "2", "--t", f"-{digits}"), "--t")):
            p = run(*argv)
            reason = p.stderr.splitlines()[-1]
            assert p.returncode == 2 and p.stdout == "", operand
            assert f"argument {operand}: has 4301 digits" in reason and len(reason) < 200, reason
            assert digits[:100] not in p.stderr, operand

    def test_long_refused_operand_is_capped(self):
        # under the int-string limit, yet too long to echo: the message quotes its start and its length
        nines = "9" * 4300
        for argv, operand in ((("count", "3", f"-{nines}"), "k"), (("count", "3", f"x{nines}"), "k"),
                              (("count", f"-{nines}", "3"), "n"), (("sweep", "--primes", f"-{nines}"), "--primes"),
                              (("sweep", "--primes", "1" + "0" * 24), "--primes")):
            p = run(*argv)
            reason = p.stderr.splitlines()[-1]
            assert p.returncode == 2 and p.stdout == "", argv
            assert f"argument {operand}: " in reason and "characters)" in reason, reason
            assert nines[:30] not in p.stderr, argv
            if argv[0] == "count":
                assert len(p.stderr.encode()) < 200, argv

    def test_prime_past_exact_range_is_two(self):
        p = run("sweep", "--primes", "3317044064679887385961981")
        assert p.returncode == 2 and p.stdout == ""
        assert "argument --primes: primality is decided only below 3317044064679887385961981" in p.stderr

    def test_sweep_bounds_are_two(self):
        for argv, reason in ((("--n-max", "-1"), "must be nonnegative, got -1"),
                             (("--k-max", "-1"), "must be nonnegative, got -1"),
                             (("--max-codes", "0"), "must be at least 1, got 0"),
                             (("--max-codes", "-1"), "must be at least 1, got -1"),
                             (("--primes", "4"), "must be prime, got 4"),
                             (("--primes", "11", "1"), "must be prime, got 1"),
                             (("--n-max", "1_0"), "malformed integer '1_0'")):
            p = run("sweep", *argv)
            assert p.returncode == 2 and p.stdout == "", argv
            assert f"argument {argv[0]}: {reason}" in p.stderr, argv

    def test_non_prime_length_message(self):
        assert run("bijection", "1", "0").returncode == 0
        p = run("bijection", "6", "2")
        assert p.returncode == 1 and p.stdout == ""
        assert p.stderr == "error: no built-in construction for (6, 2); supply a riwi map with --map FILE\n"

    def test_error_messages_on_stderr(self):
        p = run("bijection", "6", "4")
        assert p.stdout == "" and "riwi map" in p.stderr

    def test_closed_pipe_is_quiet_one(self):
        argv = [sys.executable, "-m", "neckslime", "enum", "codes", "12", "8"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as p:
            assert json.loads(p.stdout.readline())["entries"] == [0] * 11 + [8]
            p.stdout.close()
            err = p.stderr.read()
            assert p.wait(timeout=60) == 1
        assert err == ""

    def test_enum_codes_streams(self):
        """A cell too large to finish still prints its first line at once, and a closed pipe ends it quietly."""
        argv = [sys.executable, "-m", "neckslime", "enum", "codes", "40", "40"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as p:
            watchdog = threading.Timer(60, p.kill)  # a child that never prints is killed, so readline returns ""
            watchdog.start()
            try:
                first = p.stdout.readline()
                p.stdout.close()
                err = p.stderr.read()
                status = p.wait(timeout=60)
            finally:
                watchdog.cancel()
                p.kill()
        assert json.loads(first)["entries"] == [0] * 39 + [40]
        assert status == 1 and err == ""
