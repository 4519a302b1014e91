"""One suspvdp invocation in a fresh interpreter, timed from inside.

Usage: child.py RESULT_JSON MODE [CLI ARGS...]

MODE is `setup` (import the CLI and stop), `run` (also call `cli.main`
with the CLI args) or `trace` (the same with every layer wrapped by
`layers.Tracer`).  The result file receives the monotonic clock reading
taken when `import suspvdp.cli` returned, so the parent can time set-up
from the moment it spawned this process, plus the handler wall time,
exit code, peak RSS and, when traced, the per-layer metrics.  The CLI's
own output goes to this process's stdout.
"""

import time

import suspvdp.cli as cli

IMPORTED = time.monotonic()

import json      # noqa: E402  (imported after the set-up stamp on purpose)
import resource  # noqa: E402
import sys       # noqa: E402


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = {"imported": IMPORTED, "package": cli.__file__}
    if mode != "setup":
        if mode == "trace":
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
            code, wall = tracer.run(cli.main, argv)
            result["trace"] = tracer.metrics()
        else:
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        sys.stdout.flush()
        result.update({"wall_s": wall, "exit": code,
                       "maxrss_kb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss})
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
