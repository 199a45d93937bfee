"""Print the SHA-256 of every file a fixed slice of the CLI writes.

The slice covers each command whose output is pinned byte for byte:
`graphs gen` and `qaoa --p 0` for n = 3..8, `props` for n = 3..8 at one and
two workers, `qaoa --p 3 --starts 8 --seed 3` on n = 4, and on n = 5 at one
and two workers, the four `analyze` modes on the n = 4 pair, and the
stdout of `verify golden` and `verify invariants` at one and two workers.
Each output gets one line, `<sha256>  <command>`, with the command as run
inside a temporary directory; a digested stdout also names its exit code,
since `verify golden` exits 1 on its expected-red checks.  Compare two
trees by running it on each and diffing:

    PYTHONPATH=src python tools/output_digests.py > change.txt
    PYTHONPATH=../parent/src python tools/output_digests.py > parent.txt
    diff parent.txt change.txt

It needs only the standard library and `qgraphlab.cli.main`, so it runs
against any tree whose package is first on the import path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from qgraphlab.cli import main

SIZES = range(3, 9)


def commands():
    """(argv, output file) for every output of the slice, in run order; a
    file of None stands for the command's stdout."""
    for n in SIZES:
        yield ["graphs", "gen", "--n", str(n), "--out", f"n{n}.g6"], f"n{n}.g6"
    for n in SIZES:
        for workers in (1, 2):
            out = f"props{n}-w{workers}.csv"
            yield ["props", "--in", f"n{n}.g6", "--out", out, "--workers", str(workers)], out
    for n in SIZES:
        yield ["qaoa", "--in", f"n{n}.g6", "--p", "0", "--out", f"qaoa{n}-p0.csv"], f"qaoa{n}-p0.csv"
    yield (["qaoa", "--in", "n4.g6", "--p", "3", "--starts", "8", "--seed", "3",
            "--out", "qaoa4-p3.csv"], "qaoa4-p3.csv")
    for workers in (1, 2):
        out = f"qaoa5-p3-w{workers}.csv"
        yield (["qaoa", "--in", "n5.g6", "--p", "3", "--starts", "8", "--seed", "3",
                "--workers", str(workers), "--out", out], out)
    pair = ["--props", "props4-w1.csv", "--qaoa", "qaoa4-p3.csv"]
    for mode, extra in (("corr", []), ("avg", ["--flag", "bipartite"]),
                        ("hist", ["--flag", "eulerian"]), ("signs", [])):
        out = f"analyze-{mode}.csv"
        yield ["analyze", mode, *pair, *extra, "--out", out], out
    for suite in ("golden", "invariants"):
        for workers in (1, 2):
            yield ["verify", suite, "--workers", str(workers)], None


def run() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv, out in commands():
                log, stdout = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(log), contextlib.redirect_stdout(stdout):
                    code = main(argv)
                command = " ".join(argv)
                if out is None:
                    data, command = stdout.getvalue().encode(), f"{command} (exit {code})"
                elif code != 0:
                    sys.stderr.write(log.getvalue())
                    print(f"{command} exited {code}", file=sys.stderr)
                    return code
                else:
                    with open(out, "rb") as f:
                        data = f.read()
                print(f"{hashlib.sha256(data).hexdigest()}  {command}", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(run())
