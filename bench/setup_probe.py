"""Set-up time of a fresh process: import the package (and its command-line
module for the cli workload), build and validate the workload's parameters.
Prints {"import_s": ..., "setup_s": ...}.

    python3 bench/setup_probe.py <workload>      (with src/ on PYTHONPATH)
"""
import json
import sys
import time

from fixtures import FIXTURES, WORKLOAD_FIXTURES

start = time.perf_counter()
import cbi  # noqa: E402

if sys.argv[1] == "cli":
    import cbi.cli  # noqa: E402,F401
imported = time.perf_counter()
for name in WORKLOAD_FIXTURES[sys.argv[1]]:
    if not cbi.validate(cbi.CbiParams.from_dict(FIXTURES[name])).admissible:
        sys.exit(f"{name} is not admissible")
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
