"""Set-up probe: times `import entroscore.cli` in this fresh interpreter,
then the first (warm-up) op on the inputs that run.py wrote.

Usage: python3 bench/probe.py OP_JSON  (with src/ on PYTHONPATH)
Prints one JSON object: import_s, first_op_s, exit_code.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        desc = json.load(fh)
    t0 = time.perf_counter()
    import entroscore.cli  # noqa: F401  (the timed import)

    t1 = time.perf_counter()
    import workloads

    op = workloads.make_op(desc)
    t2 = time.perf_counter()
    outcome = op.run()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_op_s": t3 - t2, "exit_code": outcome.exit_code}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
