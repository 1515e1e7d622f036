"""Set-up time of one fresh interpreter: import mswf and parse a config.

Usage: python3 perfbench/setup_probe.py <config.json> <out-dir>
Prints the seconds from before the import to the parsed config.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mswf.cli  # noqa: E402

args = mswf.cli.build_parser().parse_args(
    ["experiment", "--config", sys.argv[1], "--out-dir", sys.argv[2]])
json.loads(Path(args.config).read_text())
print(repr(time.perf_counter() - START))
