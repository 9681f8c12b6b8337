"""Child process for the set-up measurement; prints one JSON line.

Times, from a fresh interpreter: ``import icufunnel``, loading the bundled
scenario (which imports ``icufunnel.cli``), and ``derive_constants``.
Usage: ``python3 setup_probe.py SRC_DIR``.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
t_start = time.perf_counter()
import icufunnel  # noqa: E402

t_import = time.perf_counter()
from icufunnel.cli import bundled_scenario_path, load_scenario_file  # noqa: E402

sf = load_scenario_file(bundled_scenario_path())
t_load = time.perf_counter()
icufunnel.derive_constants(sf.scenario)
t_derive = time.perf_counter()
print(json.dumps({
    "import_s": t_import - t_start,
    "load_s": t_load - t_import,
    "derive_s": t_derive - t_load,
    "setup_s": t_derive - t_start,
    "icufunnel_file": icufunnel.__file__,
}))
