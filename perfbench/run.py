"""mswf benchmark: the acceptance experiments through `mswf experiment`.

    python3 perfbench/run.py --workload magnetic-transport --seed 0 \
        --seconds 20 --trace 0

Runs one workload (see workloads.py) in this process through
mswf.cli.main, repeating it until --seconds have passed (at least once),
and checks every cell of every repeat (check.py).  With --trace 0 it
reports the end-to-end metrics, with times scaled to a reference machine
speed (calibrate.py); with --trace 1 it alternates plain and
instrumented repeats and reports the per-layer split (layers.py).  The
last line of standard output is one JSON object; the lines before it
print the same metrics by name with units, and the run context.  A full
record, and with --trace 1 every span, goes to .perfbench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 5
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(os.environ[BLAS_VARS[0]]),
            "MSWF_THREADS": os.environ.get("MSWF_THREADS"),
            "git_sha": git_sha()}


class Workload:
    """A workload's configs on disk, run and checked one repeat at a time."""

    def __init__(self, name: str, seed: int, work: Path):
        self.cli = importlib.import_module("mswf.cli")
        self.work = work
        self.cfgs = workloads.configs(name, seed)
        self.paths = []
        for i, cfg in enumerate(self.cfgs):
            path = work / f"config{i}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            self.paths.append(path)
        self.refs = json.loads(REFERENCE.read_text())[name] if seed == 0 \
            else [None] * len(self.cfgs)
        self.first_outputs = None
        self.attempted = self.failed = 0
        self.problems = []

    def _experiment(self, path: Path, out: Path):
        try:
            return self.cli.main(["experiment", "--config", str(path),
                                  "--out-dir", str(out)])
        except Exception as exc:  # a config that raises fails its cells
            return f"{type(exc).__name__}: {exc}"

    def repeat(self, speed) -> float:
        """Run every config once and check the outputs.

        Returns the seconds from the first cli.main call to the last
        return, less the calibration samples `speed` took meanwhile.
        """
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(sys.stderr), speed:
            start = time.perf_counter()
            rcs = [self._experiment(p, out / f"config{i}")
                   for i, p in enumerate(self.paths)]
            end = time.perf_counter()
        wall = end - start - speed.inside(start, end)
        outputs, attempted, failed = [], 0, 0
        for i, (cfg, rc, ref) in enumerate(zip(self.cfgs, rcs, self.refs)):
            files = check.snapshot(out / f"config{i}")
            try:
                summary = json.loads(files["summary.json"])
            except (KeyError, ValueError):
                summary = None
            expected = workloads.expected_cells(cfg)
            n_failed, problems = check.score(cfg, expected, rc, summary, ref)
            attempted += expected
            failed += n_failed
            self.problems += [f"config{i}: {p}" for p in problems]
            outputs.append(files)
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            failed = attempted
            self.problems.append("outputs differ from the first repeat")
        self.attempted += attempted
        self.failed += failed
        return wall


def setup_seconds(wl: Workload) -> float:
    """Seconds to import mswf and parse the first config, fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(wl.paths[0]),
         str(wl.work / "out")],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def timed(wl: Workload, seconds: float) -> tuple:
    from calibrate import Speed

    raw = {"setup": [], "wall": []}
    scaled = {"setup": [], "wall": []}
    for _ in range(SETUP_PROBES):
        with Speed(periodic=False) as speed:
            t = setup_seconds(wl)
        raw["setup"].append(t)
        scaled["setup"].append(t * speed.scale)
    start = time.perf_counter()
    while not raw["wall"] or time.perf_counter() - start < seconds:
        speed = Speed(periodic=True)
        t = wl.repeat(speed)
        raw["wall"].append(t)
        scaled["wall"].append(t * speed.scale)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": statistics.median(scaled["wall"]),
              "setup_s": statistics.median(scaled["setup"]),
              "peak_rss_mb": peak_mb}
    extra = {"raw_wall_s": statistics.median(raw["wall"]),
             "raw_setup_s": statistics.median(raw["setup"])}
    return values, END_TO_END, extra, {"raw": raw, "scaled": scaled}


def traced(wl: Workload, seconds: float) -> tuple:
    import layers
    from calibrate import Speed
    from tracer import Tracer, patched

    tr = Tracer()
    walls = {"plain": [], "traced": []}

    def scaled_repeat(kind):
        # the kernel runs outside the repeat only, so no span contains it
        speed = Speed(periodic=False)
        walls[kind].append(wl.repeat(speed) * speed.scale)

    start = time.perf_counter()
    while not walls["traced"] or time.perf_counter() - start < seconds:
        scaled_repeat("plain")
        with patched(layers.probes(tr)):
            scaled_repeat("traced")
    values = layers.layer_values(tr, len(walls["traced"]))
    # each traced repeat against the plain one just before it, so drift cancels
    values["trace.overhead_frac"] = statistics.median(
        t / p for p, t in zip(walls["plain"], walls["traced"])) - 1.0
    (wl.work / "spans.json").write_text(json.dumps(
        {"columns": ["name", "start", "end", "parent"], "spans": tr.to_rows()}))
    return values, layers.METRICS, {}, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mswf" / "__init__.py").is_file():
        print(f"error: mswf sources not found under {SRC}", file=sys.stderr)
        return 2
    # one process, one scan worker, BLAS capped before numpy loads
    os.environ.pop("MSWF_THREADS", None)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, work)
    values, units, extra, samples = (traced if args.trace else timed)(wl, args.seconds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    ctx = run_context()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "context": ctx,
              "attempted": wl.attempted, "failed": wl.failed,
              "problems": wl.problems, "samples": samples, "metrics": metrics,
              "unscaled": extra}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"context: {json.dumps(ctx)}")
    n = len(samples["traced"] if args.trace else samples["raw"]["wall"])
    print(f"{args.workload} seed={args.seed} trace={args.trace} repeats={n}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name:44s} {value:.6g} s (not scaled to the reference speed)")
    print(f"  {'failed_frac':44s} {wl.failed / wl.attempted:.6g} "
          f"({wl.failed} of {wl.attempted} cells)")
    for problem in wl.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
