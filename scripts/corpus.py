"""The output corpus: what every oddsum command prints, as one SHA-256 per group.

Each argv runs through oddsum.cli.main in this process, and each group's
digest covers, per argv, the argv, the exit code, stdout and the stderr
lines that start with "error: ", which are oddsum's own.  argparse's
usage text differs between Python versions, so a usage error that
argparse reports counts by its exit code alone.  The argvs come from a
fixed seed, and the interpreter's int/str digit limit is set to 4300,
CPython's default, for the run, so the digests depend only on the code.

    python3 scripts/corpus.py                  check each group against corpus.sha256
    python3 scripts/corpus.py --write          record this tree's digests
    python3 scripts/corpus.py --show GROUP [--base REV]
                                               the argvs of GROUP whose output differs
                                               from git revision REV's (default HEAD)

The check exits 1 and names each group that moved.  The package is
imported from the src directory beside this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import zipfile

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "corpus.sha256")
DIGIT_LIMIT = 4300
SEED = 20111

EVAL = ("V", "U", "G", "v", "u", "g", "h", "alpha", "theta", "hat", "tilde")
KERNELS = "V,U,G,v,u,g,h"
# eval's widths in bits, by band
EVAL_BANDS = {"w0-32": range(33), "w33-64": range(33, 65), "w65-129": range(65, 130),
              "w200-1024": (200, 300, 1024), "w4096-16385": (4096, 16385)}  # fmt: skip
SMALL_VERIFY = ["--max-n", "512", "--max-m", "8", "--max-r", "4", "--max-p", "32",
                "--trials", "8", "--bits", "96"]  # fmt: skip


def _numeral(n: int) -> str:
    """n in decimal, or in 0b binary where decimal would pass the digit limit."""
    return str(n) if n.bit_length() <= 3 * DIGIT_LIMIT else bin(n)


def _eval_group(widths, rng: random.Random) -> list[list[str]]:
    """eval of every function at 2**(w-1), 2**w - 1 and one random n of each
    width w (0 at width 0), exact as plain and csv and as 25 digits of json;
    past the digit limit, where json and csv refuse to echo n, also as 25
    plain digits."""
    argvs = []
    for width in widths:
        top = 1 << max(width - 1, 0)
        ns = sorted({top if width else 0, (2 * top - 1) if width else 0,
                     top | rng.getrandbits(max(width - 1, 0))})  # fmt: skip
        styles = [[], ["--format", "csv"], ["--decimal", "25", "--format", "json"]]
        if width > 3 * DIGIT_LIMIT:
            styles.append(["--decimal", "25"])
        argvs += [["eval", f, _numeral(n), *style]
                  for n in ns for f in EVAL for style in styles]  # fmt: skip
    return argvs


def groups() -> dict[str, list[list[str]]]:
    """Every group's argvs, in a fixed order, from the fixed seed."""
    rng = random.Random(SEED)
    found = {f"eval:{band}": _eval_group(ws, rng) for band, ws in EVAL_BANDS.items()}
    wide = [str((1 << 200) - 40), str((1 << 200) + 40)]
    found["table:0-3000"] = [
        ["table", KERNELS, "0", "3000", "--format", "csv"],  # V(0): exit 2
        ["table", KERNELS, "1", "3000", "--format", "csv"],
        ["table", "U,v,u,g", "0", "3000", "--format", "csv"],
        ["table", KERNELS, "1", "600", "--decimal", "25", "--format", "json"],
        ["table", KERNELS, "4000", "8300"],
        ["table", "alpha,theta,hat,tilde,lambda_m", "1", "600"],
    ]
    found["table:2^200"] = [
        ["table", KERNELS + ",alpha,theta,hat,tilde", *wide, *style]
        for style in ([], ["--format", "csv"], ["--decimal", "25", "--format", "json"])
    ]
    found["scan"] = [
        ["scan", "g-below", "1/3", "300000"],
        ["scan", "g-below", "1/4", "65536", "--format", "json"],
        ["scan", "g-below", "1/2", "4096", "--format", "csv"],
        ["scan", "g-below", "0", "100"],
        ["scan", "g-below", "100", "200"],
        ["scan", "g-below", "1/4", "0"],
    ]
    found["verify"] = [
        ["verify", "all", *SMALL_VERIFY, "--format", "json"],
        ["verify", "all", *SMALL_VERIFY],
        ["verify", "all", *SMALL_VERIFY, "--format", "csv", "--seed", "7"],
        ["verify", "P2C", "--max-n", "100", "--trials", "2", "--bits", "300"],
    ]
    styles = ([], ["--format", "json"], ["--format", "csv"], ["--decimal", "25"])
    found["extremal"] = [["extremal", str(m), *st] for m in range(17) for st in styles]
    found["cesaro"] = [
        ["cesaro", f, str(n), *style]
        for f in ("const1", "x", "x2", "inv1px") for n in (1, 2, 3, 100, 1000)
        for style in ([], ["--format", "json"], ["--decimal", "25", "--format", "csv"])
    ]  # fmt: skip
    zeros = lambda k: "0b1" + "0" * k  # noqa: E731
    found["caps"] = [
        ["cesaro", "x2", zeros(40000), "--decimal", "10"],
        ["cesaro", "x2", zeros(16384)],
        ["cesaro", "inv1px", "4194304"],
        ["cesaro", "inv1px", "65536"],
        ["scan", "g-below", "1/4", zeros(20000)],
        ["table", ",".join("g" * 13), "1", "4194304"],
        ["table", "lambda_m", "1", "4194304", "--decimal", "10"],
        ["extremal", "0b" + "1" * 24],
        ["verify", "P1B", "--max-n", "1000000000"],
        ["verify", "P2D", "--bits", "100000000", "--trials", "1"],
        ["verify", "P2D", "--trials", "1000000000", "--max-n", "1"],
        ["verify", "P10", "--max-m", "30"],
        ["verify", "L2", "--max-r", "100000", "--max-p", "1"],
        ["eval", "V", "1", "--decimal", "1000001"],
        ["eval", "lambda_m", "1048577"],
        ["eval", "V", "9" * (DIGIT_LIMIT + 1)],
        ["eval", "U", zeros(16384)],
        ["eval", "v", zeros(16384), "--format", "json"],
        ["extremal", "20000"],
    ]
    found["usage"] = [
        [],
        ["eval"],
        ["eval", "V", "0"],
        ["eval", "V", "-3"],
        ["eval", "V", "abc"],
        ["eval", "nope", "3"],
        ["eval", "V", "5", "--decimal", "0"],
        ["eval", "V", "5", "--format", "xml"],
        ["table", "V,u", "0", "5", "--format", "csv"],
        ["table", "V,nope", "1", "5"],
        ["table", "V", "5", "3"],
        ["table", "h", "0", "2"],
        ["verify", "NOPE"],
        ["verify", "all", "--max-n", "0"],
        ["scan", "g-below", "x", "5"],
        ["scan", "g-below", "1/0", "5"],
        ["scan", "above", "1/4", "5"],
        ["cesaro", "nope", "3"],
        ["cesaro", "x", "0"],
        ["extremal", "-1"],
    ]
    return found


def _outcome(main, argv: list[str]) -> bytes:
    """The argv's record: argv, exit code, stdout and oddsum's stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    return json.dumps([argv, code, out.getvalue(), errors]).encode() + b"\n"


@contextlib.contextmanager
def _fixed_digit_limit():
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is not None:
        sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        yield
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def outcomes(argvs: list[list[str]]) -> list[bytes]:
    """Each argv's record, run under the fixed digit limit."""
    from oddsum.cli import main

    with _fixed_digit_limit():
        return [_outcome(main, argv) for argv in argvs]


def digests() -> dict[str, str]:
    """{group: SHA-256 hex over its argvs' records}, in the order of groups()."""
    return {
        name: hashlib.sha256(b"".join(outcomes(argvs))).hexdigest()
        for name, argvs in groups().items()
    }


def _argv_digests(argvs: list[list[str]]) -> list[str]:
    return [hashlib.sha256(record).hexdigest() for record in outcomes(argvs)]


def read_digests(path: str = DIGESTS) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return {group: digest for digest, group in (line.split() for line in f)}


def mismatches(path: str = DIGESTS) -> list[str]:
    """The groups whose digest is not the recorded one, or that are new or gone."""
    recorded, current = read_digests(path), digests()
    moved = recorded.keys() | current.keys()
    return sorted(group for group in moved if recorded.get(group) != current.get(group))


def _short(argv: list[str]) -> str:
    return " ".join(a if len(a) <= 40 else f"{a[:12]}...({len(a)} chars)" for a in argv)


def _base_digests(group: str, revision: str) -> list[str]:
    """The per-argv digests of group with the package at git revision."""
    root = os.path.dirname(HERE)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", root, "archive", "--format=zip", revision, "src"],
            check=True, capture_output=True,
        ).stdout  # fmt: skip
        zipfile.ZipFile(io.BytesIO(archive)).extractall(tmp)
        src = os.path.join(tmp, "src")
        command = [sys.executable, os.path.abspath(__file__), "--dump", group, src]
        run = subprocess.run(command, check=True, capture_output=True, text=True)
    return run.stdout.split()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record the digests")
    parser.add_argument("--show", metavar="GROUP", help="list GROUP's changed argvs")
    parser.add_argument("--base", default="HEAD", help="the revision --show reads")
    # the per-argv digests of GROUP with the package imported from SRC
    parser.add_argument("--dump", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    src = args.dump[1] if args.dump else os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, os.path.abspath(src))
    if args.dump:
        print(*_argv_digests(groups()[args.dump[0]]), sep="\n")
    elif args.show:
        if args.show not in groups():
            parser.error(f"unknown group {args.show!r}; groups: {', '.join(groups())}")
        argvs = groups()[args.show]
        before = _base_digests(args.show, args.base)
        for argv, digest, old in zip(argvs, _argv_digests(argvs), before):
            if digest != old:
                print(_short(argv))
    elif args.write:
        with open(DIGESTS, "w", encoding="utf-8") as f:
            f.writelines(f"{digest}  {group}\n" for group, digest in digests().items())
    else:
        moved = mismatches()
        for group in moved:
            print(f"corpus group {group} changed; see --show {group}", file=sys.stderr)
        return 1 if moved else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
