"""Benchmark of the siegellift CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  With ``--trace 0`` one closed-loop
client runs the workload's command sequence, one command at a time, each in
a fresh ``python -m siegellift.cli`` process, first at ``--jobs 1`` and then
at ``--jobs 2`` (alternating which goes first), for ``--seconds`` seconds,
and reports the end-to-end metrics: a sequence's time is the sum of its
commands' 10%-trimmed mean times, set-up time is a median, and every
sample is first scaled to a fixed host speed, measured by timing
``reference.py`` in the same round (see ``REFERENCE_S``).  With
``--trace 1`` the same sequence runs in this process under the outside-in
tracer of ``tracer.py``, which gives the per-layer metrics.  Every output is checked; the last line of
stdout is one JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 120
OUT_DIR = HERE / "out"

#: Wall time of ``reference.py`` at the host speed the reported times are
#: scaled to.  The speed of a shared host drifts by a third over minutes and
#: moves every command alike, so each round of a run times the reference
#: task too, and the round's samples are reported as they would be at this
#: one speed.
REFERENCE_S = 0.2


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def trimmed_mean(values):
    """Mean of the values left after dropping a tenth of them at each end."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


# ---------------------------------------------------------------------------
# one command in a fresh process

def run_child(argv, jobs=None):
    """Run the CLI once; return (stdout, exit code, wall s, max RSS MB, stderr)."""
    cmd = [sys.executable, "-m", "siegellift.cli", *argv]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        # wait4, not wait: the child's own rusage gives its peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, wall, usage.ru_maxrss / 1024.0, err[0].decode(errors="replace")


def run_reference():
    """Wall time of one run of the reference task in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=ROOT, check=True,
                   timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - start


class Tally:
    """Commands attempted and the problems found, one line each."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, command, code, out, stderr="", expected=None):
        self.attempted += 1
        errors = []
        if code != 0:
            errors.append(f"exit code {code}: {stderr.strip()[-300:]}")
        else:
            try:
                errors = command.check(out)
            except (ValueError, KeyError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if expected is not None and out != expected:
            errors.append("stdout differs from the first run of this command")
        if errors:
            self.problems.append(f"{command.name}: {'; '.join(errors)}")

    @property
    def failed(self):
        return len(self.problems)


# ---------------------------------------------------------------------------
# end to end (--trace 0)

def measure(workload, seed, seconds, sizes=None):
    """Closed-loop end-to-end run; returns (metrics, tally, notes)."""
    inputs = workloads.make_inputs(seed)
    sequence = workloads.commands(workload, inputs, ROOT, sizes)
    tally = Tally()
    rss = []

    setup = workloads.setup_command(inputs)
    deadline = time.perf_counter() + seconds
    run_child(setup.argv)  # fills the bytecode cache; users do not pay that on every run
    setup_walls = []
    reference_walls = []
    walls = {jobs: [[] for _ in sequence] for jobs in (1, 2)}  # per command
    slowest = 0.0  # longest round so far: the run stops before it would pass the deadline
    rounds = 0
    while True:
        round_start = time.perf_counter()
        outputs = {}
        for jobs in (1, 2) if rounds % 2 == 0 else (2, 1):
            # set-up samples are spread over the run, as the load on the machine varies
            out, code, wall, peak, err = run_child(setup.argv)
            tally.record(setup, code, out, err)
            setup_walls.append(wall)
            rss.append(peak)
            reference_walls.append(run_reference())
            for k, command in enumerate(sequence):
                out, code, wall, peak, err = run_child(command.argv, jobs)
                walls[jobs][k].append(wall)
                rss.append(peak)
                tally.record(command, code, out, err, outputs.get(k))
                outputs.setdefault(k, out)
        rounds += 1
        slowest = max(slowest, time.perf_counter() - round_start)
        if time.perf_counter() + slowest > deadline:
            break
    OUT_DIR.mkdir(exist_ok=True)
    samples = {"setup": setup_walls, "reference": reference_walls,
               **{f"jobs{j}": walls[j] for j in walls}}
    (OUT_DIR / f"samples-{workload}-seed{seed}.json").write_text(json.dumps(samples))

    # every sample is scaled by the speed of its round, as the mean of the
    # round's two reference runs gives it; a sequence's time is the sum of
    # its commands' trimmed means, the trim dropping the rare stall
    speed = [REFERENCE_S / statistics.fmean(reference_walls[2 * r:2 * r + 2])
             for r in range(rounds)]

    def scaled(values, per_round=1):
        return [v * speed[i // per_round] for i, v in enumerate(values)]

    metrics = {
        "wall_s": sum(trimmed_mean(scaled(v)) for v in walls[1]),
        "wall_jobs2_s": sum(trimmed_mean(scaled(v)) for v in walls[2]),
        "setup_s": statistics.median(scaled(setup_walls, 2)),
        "peak_rss_mb": max(rss),
    }
    notes = []
    for command, w1, w2 in zip(sequence, walls[1], walls[2]):
        for jobs, values in ((1, w1), (2, w2)):
            q1, med, q3 = quartiles(values)
            notes.append(f"{command.name} --jobs {jobs} as timed: trimmed mean "
                         f"{trimmed_mean(values):.4f} s, median {med:.4f}, "
                         f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}")
    for name, values in (("setup", setup_walls), ("reference task", reference_walls)):
        q1, med, q3 = quartiles(values)
        notes.append(f"{name} as timed: median {med:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, "
                     f"n={len(values)}")
    for name in ("wall_s", "wall_jobs2_s", "setup_s"):
        notes.append(f"{name}: {metrics[name]:.4f} s at the reference speed")
    notes.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB over {len(rss)} commands")
    notes.append(f"failed_frac: {tally.failed / tally.attempted:.4f} ratio "
                 f"({tally.failed}/{tally.attempted} commands)")
    return metrics, tally, notes


# ---------------------------------------------------------------------------
# traced (--trace 1)

def run_in_process(cli, argv):
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    return buffer.getvalue().encode(), code


def run_pass(cli, sequence, jobs, tally, trace=None, expected=None):
    """Every command of the sequence once, in this process; returns
    (wall s, stdout per command)."""
    from siegellift import modform

    outputs = []
    wall = 0.0
    for k, command in enumerate(sequence):
        start = time.perf_counter()
        if trace is not None:
            trace.begin_command()
        else:
            modform._ap_good_cached.cache_clear()  # cold, as in a fresh process
        out, code = run_in_process(cli, command.argv + ["--jobs", str(jobs)])
        wall += time.perf_counter() - start
        tally.record(command, code, out, expected=expected[k] if expected else None)
        outputs.append(out)
    return wall, outputs


def write_spans(path, traces):
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for jobs, trace in traces:
            for span in trace.spans:
                handle.write(json.dumps([jobs, *span]) + "\n")


def measure_traced(workload, seed, seconds, sizes=None):
    """Traced in-process run; returns (metrics, tally, notes)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import siegellift
    from siegellift import cli

    inputs = workloads.make_inputs(seed)
    sequence = workloads.commands(workload, inputs, ROOT, sizes)
    tally = Tally()
    rounds = []
    deadline = time.perf_counter() + seconds
    slowest = 0.0
    while True:
        round_start = time.perf_counter()
        plain_wall, plain = run_pass(cli, sequence, 1, tally)
        serial = tracer.Tracer(siegellift)
        serial.install()
        try:
            traced_wall, traced = run_pass(cli, sequence, 1, tally, serial, plain)
        finally:
            serial.uninstall()
        pooled = tracer.Tracer(siegellift)
        pooled.install()
        try:
            run_pass(cli, sequence, 2, tally, pooled, plain)
        finally:
            pooled.uninstall()
        metrics = tracer.layer_metrics(serial, sum(map(len, traced)), traced_wall)
        metrics.update(tracer.pool_metrics(pooled))
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        rounds.append(metrics)
        slowest = max(slowest, time.perf_counter() - round_start)
        if time.perf_counter() + slowest > deadline:
            break
    write_spans(OUT_DIR / f"spans-{workload}.jsonl", [(1, serial), (2, pooled)])

    merged = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        counted = all(isinstance(v, int) for v in values)
        merged[name] = (statistics.median_low if counted else statistics.median)(values)
    layers = list(tracer.LAYERS.values())
    total = sum(merged[f"{layer}.self_s"] for layer in layers)
    shares = ", ".join(f"{layer} {merged[f'{layer}.self_s'] / total:.1%}" for layer in layers)
    notes = [f"self-time shares over {len(rounds)} traced rounds: {shares}"]
    return merged, tally, notes


# ---------------------------------------------------------------------------

def result(metrics, tally, kind):
    """The closing JSON object: every metric of ``kind`` ("end_to_end" or
    "per_layer") in BENCHMARK.json, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "siegellift" / "cli.py").is_file():
        print(f"error: no siegellift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads.validate_pool()
    inputs = workloads.make_inputs(args.seed)
    print("inputs: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   **inputs.describe(), **workloads.SIZES[args.workload]}))
    if args.trace:
        metrics, tally, notes = measure_traced(args.workload, args.seed, args.seconds)
    else:
        metrics, tally, notes = measure(args.workload, args.seed, args.seconds)
    for line in notes + tally.problems:
        print(line)
    print(json.dumps(result(metrics, tally, "per_layer" if args.trace else "end_to_end")))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
