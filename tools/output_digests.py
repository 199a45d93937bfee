"""Print the SHA-256 of every file a fixed slice of the CLI writes.

The slice covers each command whose output is pinned byte for byte:
`graphs gen` and `qaoa --p 0` for n = 3..8, `props` for n = 3..8 at one and
two workers, `qaoa --p 3 --starts 8 --seed 3` on n = 4, and the four
`analyze` modes on that n = 4 pair.  Each output gets one line,
`<sha256>  <command>`, with the command as run inside a temporary
directory.  Compare two trees by running it on each and diffing:

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
    """(argv, output file) for every output of the slice, in run order."""
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
    pair = ["--props", "props4-w1.csv", "--qaoa", "qaoa4-p3.csv"]
    for mode, extra in (("corr", []), ("avg", ["--flag", "bipartite"]),
                        ("hist", ["--flag", "eulerian"]), ("signs", [])):
        out = f"analyze-{mode}.csv"
        yield ["analyze", mode, *pair, *extra, "--out", out], out


def run() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv, out in commands():
                log = io.StringIO()
                with contextlib.redirect_stderr(log):
                    code = main(argv)
                if code != 0:
                    sys.stderr.write(log.getvalue())
                    print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                    return code
                with open(out, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                print(f"{digest}  {' '.join(argv)}", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(run())
