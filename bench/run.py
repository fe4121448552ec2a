#!/usr/bin/env python3
"""Benchmark for partite: three CLI workloads run in-process, checked and timed.

    python3 bench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --regen-golden

One process, one thread.  Set-up (a fresh import of partite plus the
workload's input files) is repeated and its median reported as setup_s.
Then whole passes over the workload's command list run until the time is
up; each command calls `partite.cli.main` with stdout and stderr captured,
after a garbage collection so that it starts on a clean heap as a separate
CLI process would.  Times are normalised by a calibration kernel sampled
before, during and after every step (see `timed`).  After the last pass,
every outcome is checked against the oracles in `oracles.py` and, where it
does not depend on the seed, against the golden ledger.  With --trace 1,
untraced and traced passes alternate and the per-layer metrics come from
the traced ones.  The last line of stdout is the JSON result; progress goes
to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 3
MB = 1 << 20
CALIBRATION_ROWS = 600
# Calibration kernel time on a quiet host (2-vCPU Xeon at 2.0 GHz, Python 3.11);
# normalised times are seconds on a host running the kernel at this speed.
CALIBRATION_REF_S = 0.002
SAMPLE_EVERY_S = 0.1

sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Checks, Result  # noqa: E402


def calibrate() -> float:
    """Time a fixed pure-Python kernel: build, sort, format and parse small tuples.

    It does the kind of work partite does (tuples, sorting, text), so it slows
    with the program when other tenants load the host; a pure integer loop
    tracked the program's slow-downs far less well.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    rows = [(i % 7, i % 11, i % 13, i) for i in range(CALIBRATION_ROWS)]
    rows.sort(key=lambda r: (r[2], r[1]))
    text = "\n".join(" ".join(map(str, r)) for r in rows)
    [tuple(map(int, line.split())) for line in text.split("\n")]
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


def timed(fn, samples: list):
    """(result, wall seconds, host factor) for one step.

    The kernel runs before the step, every SAMPLE_EVERY_S during it (from a
    SIGALRM handler, which runs on the main thread between bytecodes) and
    after it.  The handler's own time is taken out of the step's time.  The
    host factor is the mean kernel time over CALIBRATION_REF_S; wall seconds
    divided by it are the normalised seconds.  Sampling during the step
    matters: the host's speed changes within the seconds a long command takes.
    """
    taken = [calibrate()]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        taken.append(calibrate())
        spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, tick)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - start - spent
        signal.signal(signal.SIGALRM, previous)
    taken.append(calibrate())
    samples += taken
    return result, took, statistics.fmean(taken) / CALIBRATION_REF_S


def fresh_import():
    for key in [k for k in sys.modules if k == "partite" or k.startswith("partite.")]:
        del sys.modules[key]
    partite = importlib.import_module("partite")
    importlib.import_module("partite.cli")
    return partite


def set_up(name: str, seed: int, work: Path, samples: list):
    """Import partite afresh and write the workload's inputs; returns (normalised seconds, partite)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gc.collect()

    def once():
        partite = fresh_import()
        WORKLOADS[name][0](partite, work, seed)
        return partite

    partite, took, factor = timed(once, samples)
    return took / factor, partite


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(cli, cmd, work: Path, samples: list):
    """Run one CLI command; returns (wall seconds, host factor, record, bytes read and written).

    The record is (exit code, stdout, stderr, sha256 of the output file or None).
    """
    output = work / cmd.output if cmd.output else None
    if output:
        output.unlink(missing_ok=True)
    read = sum(Path(a).stat().st_size for a in cmd.argv
               if a.startswith(str(work)) and a != str(output) and Path(a).exists())
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            return cli.main(cmd.argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            err.write(traceback.format_exc())
            return None

    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, took, factor = timed(call, samples)
    written = output.read_bytes() if output and output.exists() else None
    record = (code, out.getvalue(), err.getvalue(), digest(written) if written is not None else None)
    return took, factor, record, read + (len(written) if written else 0)


def run_pass(cli, commands, work, tracer, calibration):
    """One pass over the command list; returns per-pass sums of normalised seconds."""
    sums = {"pass_s": 0.0, "build_s": 0.0, "check_s": 0.0, "wall_s": 0.0, "io_bytes": 0,
            "records": []}
    spans = (defaultdict(float), defaultdict(float), defaultdict(int))
    for cmd in commands:
        took, factor, record, io_bytes = run_command(cli, cmd, work, calibration)
        sums["records"].append(record)
        sums["pass_s"] += took / factor
        if cmd.kind in ("build", "check"):
            sums[f"{cmd.kind}_s"] += took / factor
        sums["wall_s"] += took
        sums["io_bytes"] += io_bytes
        if tracer is not None:
            for total, part, scale in zip(spans, tracer.drain(), (1 / factor, 1 / factor, 1)):
                for key, value in part.items():
                    total[key] += value * scale
    sums["trace"] = spans
    return sums


def ledger_entry(record) -> dict:
    code, out, _, file_digest = record
    return {"exit": code, "stdout": digest(out.encode()), "file": file_digest}


def check_outputs(commands, records_per_pass, work: Path, golden):
    """Failures as (label, problems), one per failing command per pass.

    The last pass's files are still on disk, so its outcomes go through the
    oracles and the ledger; an earlier pass's outcome that is identical takes
    the same verdict, and one that differs fails.
    """
    verdicts = {}
    for cmd, record in zip(commands, records_per_pass[-1]):
        code, out, err, file_digest = record
        file = (work / cmd.output).read_bytes() if file_digest else None
        try:
            problems = cmd.expect(Result(code, out, err, file))
        except Exception as exc:  # an output the oracle cannot even parse
            problems = [f"oracle could not read the output: {exc!r}"]
        if code is None:
            problems.append(err.strip().splitlines()[-1])
        if golden is not None and not cmd.seeded and golden.get(cmd.label) != ledger_entry(record):
            problems.append("golden ledger mismatch (after an intended output change: "
                            "python3 bench/run.py --regen-golden)")
        verdicts[cmd.label] = (record, problems)
    failures = []
    for records in records_per_pass:
        for cmd, record in zip(commands, records):
            last, problems = verdicts[cmd.label]
            if record != last:
                problems = ["outcome differs from the same command in the run's last pass"]
            if problems:
                failures.append((cmd.label, problems))
    return failures


def per_layer(traced, untraced, calibration) -> dict:
    """Medians over traced passes of each layer's per-pass figure."""
    def med(fn):
        return statistics.median(fn(*p["trace"], p) for p in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    # Self time for the spans whose own work is the point; the others include
    # the spans they enclose, so each reads as the cost of calling that function.
    self_time = {"construct.construct", "cubes.extract_cubes", "cover.build_covering",
                 "core.BlockFamily"}
    spans = [f"{short}.{attr}" for short, attr in tracing.SPANS if short != "cli" or attr != "main"]
    m = {f"{name}_s": (med(lambda s, t, c, p, name=name:
                           (s if name in self_time else t).get(name, 0.0)), "s") for name in spans}
    m["cli.main_self_s"] = (med(lambda s, t, c, p: s.get("cli.main", 0.0)), "s")
    m["cli.io_mb"] = (med(lambda s, t, c, p: p["io_bytes"] / MB), "MB")
    m["core.blocks_validated"] = (med(lambda s, t, c, p: c.get("blocks_validated", 0)), "count")
    m["construct.blocks_per_s"] = (med(lambda s, t, c, p: ratio(
        c.get("constructed_blocks", 0), t.get("construct.construct", 0.0))), "1/s")
    m["verify.cells"] = (med(lambda s, t, c, p: c.get("cells", 0)), "count")
    m["verify.cells_per_s"] = (med(lambda s, t, c, p: ratio(
        c.get("cells", 0), sum(t.get(name, 0.0) for name in tracing.SCANS))), "1/s")
    m["cubes.extract_cubes.verify_share"] = (med(lambda s, t, c, p: ratio(
        t.get("extract_cubes.nested_verify", 0.0), t.get("cubes.extract_cubes", 0.0))), "share")
    m["cover.search_nodes_per_s"] = (med(lambda s, t, c, p: ratio(
        c.get("search_nodes", 0), t.get("search_exhausted", 0.0))), "1/s")
    m["host.calibration_s"] = (statistics.median(calibration), "s")
    m["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                             - statistics.median(p["pass_s"] for p in untraced), "s")
    return m


def benchmark(args) -> dict:
    work = WORK / args.workload
    golden = json.loads(GOLDEN.read_text())
    setups, calibration = [], []
    for _ in range(SETUP_REPEATS):
        seconds, partite = set_up(args.workload, args.seed, work, calibration)
        setups.append(seconds)
    helpers = load_helpers()
    oracles.selfcheck(helpers, partite)
    cli = sys.modules["partite.cli"]
    commands = WORKLOADS[args.workload][1](Checks(work))
    tracer = tracing.Tracer() if args.trace else None

    passes = []
    start = time.perf_counter()
    while True:
        traced = args.trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        pass_start = time.perf_counter()
        try:
            sums = run_pass(cli, commands, work, tracer if traced else None, calibration)
        finally:
            if traced:
                tracer.uninstall()
        sums["traced"] = traced
        passes.append(sums)
        wall = time.perf_counter() - pass_start
        print(f"pass {len(passes)}{' traced' if traced else ''}: {sums['pass_s']:.3f} s normalised "
              f"(build {sums['build_s']:.3f}, check {sums['check_s']:.3f}), "
              f"{sums['wall_s']:.3f} s wall", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed + wall / 2 >= args.seconds and (not args.trace or len(passes) >= 2):
            break
    # Read before the oracles run, so that it is the program's peak, not theirs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_outputs(commands, [p["records"] for p in passes], work,
                             golden.get(args.workload, {}))
    shutil.rmtree(work, ignore_errors=True)

    for label, problems in failures:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics = per_layer([p for p in passes if p["traced"]], untraced, calibration)
    else:
        metrics = {name: (statistics.median(p[name] for p in untraced), "s")
                   for name in ("pass_s", "build_s", "check_s")}
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"host calibration median {statistics.median(calibration) * 1e3:.3f} ms",
              file=sys.stderr)
    failed = len(failures)
    return {"correct": failed == 0, "attempted": len(commands) * len(passes), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def load_helpers():
    spec = importlib.util.spec_from_file_location("bench_test_helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def regenerate_golden() -> None:
    """Rewrite golden.json from one checked pass of every workload (seed 0)."""
    ledger = {}
    for name in WORKLOADS:
        work = WORK / name
        set_up(name, 0, work, [])
        commands = WORKLOADS[name][1](Checks(work))
        records = run_pass(sys.modules["partite.cli"], commands, work, None, [])["records"]
        failures = check_outputs(commands, [records], work, None)
        shutil.rmtree(work, ignore_errors=True)
        if failures:
            for label, problems in failures:
                print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
            sys.exit(f"{name}: outputs fail their oracles; golden.json left unchanged")
        ledger[name] = {cmd.label: ledger_entry(record)
                        for cmd, record in zip(commands, records) if not cmd.seeded}
    GOLDEN.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite the golden ledger from checked outputs and exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "partite" / "__init__.py").is_file():
        print(f"error: no partite sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.regen_golden:
        regenerate_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(benchmark(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
