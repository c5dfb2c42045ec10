"""Fresh-interpreter runner for one operation.

    python3 perfbench/child.py '<operation as JSON>'

Times `import relhur.cli` first (one set-up sample), then the operation
(see ops.py), and prints one JSON line: import_s, compute_s, code, stdout,
payload, error and maxrss_kb.  The caller puts the checkout's src/ on
PYTHONPATH.
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
import relhur.cli  # noqa: E402,F401  (the timed set-up)

import_s = time.perf_counter() - t0

import ops  # noqa: E402

t1 = time.perf_counter()
try:
    code, text, payload = ops.run_op(json.loads(sys.argv[1]))
    error = None
except Exception as exc:  # reported to run.py as a failed operation
    code, text, payload = 1, "", None
    error = f"{type(exc).__name__}: {exc}"
print(json.dumps({
    "import_s": import_s, "compute_s": time.perf_counter() - t1,
    "code": code, "stdout": text, "payload": payload, "error": error,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
