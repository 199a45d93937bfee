"""Fresh-interpreter runner for the untraced end-to-end runs.

    python3 perfbench/child.py setup        print the CLOCK_MONOTONIC time at
                                            which qgraphlab.cli is imported
    python3 perfbench/child.py cli PLAN     run PLAN's qgraphlab.cli.main
                                            argument lists, timing each

The caller puts the repository's src directory on PYTHONPATH.
"""

import json
import resource
import sys
import time


def main() -> int:
    import qgraphlab.cli as cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if sys.argv[1] == "setup":
        print(repr(ready))
        return 0
    with open(sys.argv[2], encoding="utf-8") as fh:
        plan = json.load(fh)
    times = []
    for argv in plan["commands"]:
        start = time.perf_counter()
        code = cli.main(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            print(f"qgraphlab {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
    # ru_maxrss is in KiB; RUSAGE_CHILDREN holds the largest reaped pool worker.
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump({"times": times, "rss_kb": rss_kb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
