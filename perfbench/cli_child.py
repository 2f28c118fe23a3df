"""Run one wreathcenter CLI command under the benchmark's span tracer.

    python3 perfbench/cli_child.py STATS_JSON OP_INDEX [--fault] -- COMMAND ARGS...

Imports the package from the checkout's `src/`, wraps its public functions
with the timers the in-process workloads use, runs `wreathcenter.cli.run`
on the command, writes spans and totals to STATS_JSON and exits with the
command's exit code.  With --fault it first makes group and universal
products wrong by one, which the benchmark must then count as failures.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    stats_path, op_index, *rest = argv
    fault = rest[:1] == ["--fault"]
    if fault:
        rest = rest[1:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: cli_child.py STATS_JSON OP_INDEX [--fault] -- COMMAND ARGS...")
    command = rest[1:]

    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer()
    tracer.op = int(op_index)
    start = perf_counter()
    lib = workloads.Library(SRC)
    import_s = perf_counter() - start
    if fault:
        workloads.inject_fault(lib)
    tracer.install(lib, spans.layer_hooks(lib, tracer))
    tracer.count("cli.import_s", import_s)
    try:
        code = lib.cli.run(command)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        Path(stats_path).write_text(json.dumps(tracer.export()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
