"""Time `import nsmdp` plus `build_env` in a fresh interpreter.

Usage: python3 bench/setup_probe.py '<JSON list of InventoryParams fields>'
with `src` and `bench` on PYTHONPATH. Prints, on one line, the elapsed
seconds rescaled to nominal host speed (see hostspeed.py), then as measured.
"""

import json
import statistics
import sys
import time

t0 = time.perf_counter()
import nsmdp  # noqa: E402  (the import is what is being timed)

for fields in json.loads(sys.argv[1]):
    nsmdp.build_env(nsmdp.InventoryParams(**fields))
elapsed = time.perf_counter() - t0

import hostspeed  # noqa: E402  (sampled after the timed set-up)

kernel = statistics.median(hostspeed.sample() for _ in range(5))
print(repr(elapsed * hostspeed.NOMINAL_S / kernel), repr(elapsed))
