"""Set-up work of one CLI call, run in a fresh interpreter.

Usage: python3 setup_probe.py <repo root> [config file ...]

Imports the CLI, parses each config file (the default config when none is
given) and builds the world of every run of the 10..70 mph sweep for it.
The caller times the whole process, interpreter start-up included.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

import occlusim.cli  # noqa: E402,F401  (the import every CLI call pays)
from occlusim.scenario import ScenarioConfig, build_world, config_for, load_config  # noqa: E402

bases = [load_config(Path(p).read_text(encoding="utf-8")) for p in sys.argv[2:]]
for base in bases or [ScenarioConfig()]:
    for speed in range(10, 75, 5):
        for v2v in (True, False):
            build_world(config_for(base, float(speed), v2v))
