"""Command-line surface for the full pipeline.

Subcommands: graphs gen/count, props, qaoa, analyze corr/avg/hist/signs,
and verify golden/invariants.  Exit codes: 0 success, 1 failed
verification, 2 bad arguments, malformed inputs, an unusable input or output
path or a closed standard output, 3 missing input files.  An `--out` file
appears only whole, and an unusable one fails before any work.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys

from . import analysis, datastore, pipeline
from .graphs import (connected_graph_count, encode_graph6, enumerate_connected,
                     read_graph6_file, write_graph6_file)
from .qaoa import SUPPORTED_DEPTHS

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_MISSING_INPUT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgraphlab",
                                     description="Exhaustive QAOA MaxCut study on small graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    graphs = sub.add_parser("graphs", help="enumerate connected non-isomorphic graphs")
    graphs_sub = graphs.add_subparsers(dest="graphs_command", required=True)
    gen = graphs_sub.add_parser("gen", help="emit graph6 records, one per line")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--out", help="output file (default: stdout)")
    count = graphs_sub.add_parser("count", help="print the number of graphs")
    count.add_argument("--n", type=int, required=True)

    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", help="flat key=value file of run settings (see RunConfig)")
    settings.add_argument("--workers", type=int, help="worker processes (0 = usable CPUs)")

    props = sub.add_parser("props", parents=[settings],
                           help="per-graph structure and symmetry dataset")
    props.add_argument("--in", dest="infile", required=True, help="graph6 input file")
    props.add_argument("--out", required=True, help="dataset CSV to write")

    qaoa_cmd = sub.add_parser("qaoa", parents=[settings],
                              help="optimize angles and store metrics for depths 0..P")
    qaoa_cmd.add_argument("--starts", type=int, help="random starts per depth (default 200)")
    qaoa_cmd.add_argument("--seed", type=int, help="global seed (default 0)")
    qaoa_cmd.add_argument("--in", dest="infile", required=True, help="graph6 input file")
    qaoa_cmd.add_argument("--p", type=int, required=True,
                          help=f"maximum depth (0..{max(SUPPORTED_DEPTHS)})")
    qaoa_cmd.add_argument("--out", required=True, help="results CSV to write")

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--props", required=True, help="dataset CSV from `props`")
    inputs.add_argument("--qaoa", dest="qaoa_file", required=True, help="results CSV from `qaoa`")
    inputs.add_argument("--out", required=True)
    an = sub.add_parser("analyze", help="statistics over props + qaoa CSVs")
    modes = an.add_subparsers(dest="mode", required=True)
    modes.add_parser("corr", parents=[inputs], help="correlations for every n and p")
    avg = modes.add_parser("avg", parents=[inputs], help="subgroup means")
    hist = modes.add_parser("hist", parents=[inputs], help="subgroup histogram of one metric")
    modes.add_parser("signs", parents=[inputs],
                     help=f"sign summary over depths {SUPPORTED_DEPTHS[0]}..{SUPPORTED_DEPTHS[-1]}")
    for mode in (avg, hist):
        mode.add_argument("--flag", choices=analysis.SUBGROUP_FLAGS, help="subgroup flag")
    hist.add_argument("--bins", type=int, default=20, help="histogram bins (default 20)")
    hist.add_argument("--metric", default="prob_cmax", choices=list(analysis.HISTOGRAM_METRICS),
                      help="histogram metric (default prob_cmax)")
    hist.add_argument("--p", type=int, help="histogram depth (default: largest present)")

    ver = sub.add_parser("verify", help="run the acceptance suites")
    suites = ver.add_subparsers(dest="suite", required=True)
    golden = suites.add_parser("golden", parents=[settings], help="reference-data checks")
    golden.add_argument("--long", action="store_true",
                        help="include the n<=6 correlation-grid reproduction (tens of minutes)")
    golden.add_argument("--huge", action="store_true",
                        help="include the n=8 sign grid (multi-hour)")
    suites.add_parser("invariants", parents=[settings], help="checks that need no reference data")
    return parser


def _load_graphs(path: str):
    graphs = read_graph6_file(path)
    if not graphs:
        raise ValueError(f"no graph6 records in {path}")
    return graphs


@contextlib.contextmanager
def _whole_file(path: str):
    """Yield the path to write `path` through: a file made now beside it and
    renamed onto it once the body returns, or removed if the body fails, so
    `path` is never partly written.  A device or a pipe is written as it is."""
    if os.path.exists(path):
        open(path, "r+").close()  # a directory or a read-only file fails here
        if not os.path.isfile(path):
            yield path
            return
    target = os.path.realpath(path)  # a symbolic link's target is replaced, not the link
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        open(temp, "x").close()
    except OSError as exc:  # the error names --out, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        yield temp
        os.replace(temp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)  # the body failed


def _cmd_graphs(args, out) -> int:
    if args.graphs_command == "count":
        print(connected_graph_count(args.n))
    elif out:
        write_graph6_file(enumerate_connected(args.n), out)
    else:
        print(*map(encode_graph6, enumerate_connected(args.n)), sep="\n")
    return EXIT_OK


def _cmd_props(args, config: datastore.RunConfig, out: str) -> int:
    graphs = _load_graphs(args.infile)
    sizes = {g.n for g in graphs}
    if len(sizes) != 1:
        raise ValueError(f"props expects one vertex count per file, found {sorted(sizes)}")
    rows = pipeline.dataset_rows(graphs, workers=config.workers)
    datastore.write_dataset_file(rows, out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_qaoa(args, config: datastore.RunConfig, out: str) -> int:
    if not 0 <= args.p <= max(SUPPORTED_DEPTHS):
        raise ValueError(f"--p must be within 0..{max(SUPPORTED_DEPTHS)}, got {args.p}")
    graphs = _load_graphs(args.infile)
    rows = pipeline.qaoa_result_rows(graphs, args.p, config.starts, config.seed,
                                     workers=config.workers)
    datastore.write_qaoa_results(rows, out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_analyze(args, out: str) -> int:
    if args.mode in ("avg", "hist") and not args.flag:
        raise ValueError(f"analyze {args.mode} requires --flag {'|'.join(analysis.SUBGROUP_FLAGS)}")
    rows = datastore.read_dataset(args.props)
    results = datastore.read_qaoa_results(args.qaoa_file)
    sizes, depths = sorted({r.n for r in results}), sorted({r.p for r in results})
    # graph ids restart at 1 for every vertex count, so pairing is per-n
    by_n = {n: [r for r in results if r.n == n] for n in sizes}
    if args.mode == "hist":
        if len(sizes) != 1:
            raise ValueError(f"analyze hist expects one vertex count, found {sizes}")
        p = args.p if args.p is not None else max(depths)
        if p not in depths:
            raise ValueError(f"analyze hist --p {p}: the results only have depths {depths}")
        spec = analysis.histogram(rows, by_n[sizes[0]], sizes[0], p, args.flag,
                                  metric=args.metric, bins=args.bins)
        datastore.write_histogram_csv(spec, out)
    else:
        if args.mode == "signs" and not set(SUPPORTED_DEPTHS) <= set(depths):
            raise ValueError(f"sign summary needs depths {SUPPORTED_DEPTHS[0]}.."
                             f"{SUPPORTED_DEPTHS[-1]}; results only have {depths}")
        reduce = (functools.partial(analysis.group_averages, flag=args.flag)
                  if args.mode == "avg" else analysis.correlation_table)
        cells = [cell for n in sizes for p in depths for cell in reduce(rows, by_n[n], n, p)]
        if args.mode == "corr":
            datastore.write_correlation_csv(cells, out)
        elif args.mode == "avg":
            datastore.write_averages_csv(cells, out)
        else:  # the summary keeps only the depths it averages
            datastore.write_signs_csv(analysis.sign_summary(cells), out)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args, config: datastore.RunConfig) -> int:
    from . import verify  # the suites load only for this command

    if args.suite == "golden":
        results = verify.golden_suite(args.long, args.huge, workers=config.workers)
    else:
        results = verify.invariant_suite(workers=config.workers)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a command reads the settings it has flags for; graphs and analyze read none
        reads = [f.name for f in dataclasses.fields(datastore.RunConfig) if hasattr(args, f.name)]
        path = getattr(args, "config", None)
        config = datastore.load_config(path, reads) if path else datastore.RunConfig()
        flags = {name: getattr(args, name) for name in reads if getattr(args, name) is not None}
        config = dataclasses.replace(config, **flags)  # a flag beats the config; validates all
        out = getattr(args, "out", None)
        with _whole_file(out) if out else contextlib.nullcontext() as target:
            if args.command == "graphs":
                code = _cmd_graphs(args, target)
            elif args.command == "props":
                code = _cmd_props(args, config, target)
            elif args.command == "qaoa":
                code = _cmd_qaoa(args, config, target)
            elif args.command == "analyze":
                code = _cmd_analyze(args, target)
            else:
                code = _cmd_verify(args, config)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader is gone: the exit flush drops what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BAD_ARGS
    except (OSError, ValueError) as exc:
        # only an input is missing input: --out or its temporary file is a missing directory
        inputs = [getattr(args, name, None) for name in ("infile", "props", "qaoa_file", "config")]
        missing = isinstance(exc, FileNotFoundError) and exc.filename in inputs
        print(f"error: {'missing input: ' if missing else ''}{exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT if missing else EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
