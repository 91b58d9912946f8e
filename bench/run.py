"""Benchmark driver: run reqsmith on one generated workload and report metrics.

    python3 bench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

With `--trace 0` it runs the real `reqsmith` CLI as child processes, one at
a time in a closed loop with a single client, and reports the end-to-end
metrics. With `--trace 1` it drives the same operations in-process through
`reqsmith.cli.main(argv)`, alternating untraced and traced passes, and
reports the per-layer metrics from the traced spans. Every output is
checked against the generator's expected answer. The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

END_TO_END = ("setup_s", "check_s", "query_s", "lint_s", "session_s")
CHILD_TIMEOUT_S = 60
# Each cycle runs the single commands (set-up, check, query, lint) this many
# times and the session once: the session is a sum of seven commands and
# steadier, the single commands need more samples for a steady median.
SINGLE_REPEATS = 2

# The sandbox's CPU speed drifts by a quarter within a minute, which moves
# raw wall times far more than the bounds allow. Each command's wall time
# is therefore scaled by REF_NOMINAL_S over the time of a fixed reference
# loop measured just before and just after it: a time at nominal speed.
REF_ITERATIONS = 300_000
REF_NOMINAL_S = 0.02


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {reason}")


def _child_env(hash_seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DESIREE_BOUND"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(argv: list[str], env: dict, workdir: Path):
    """Run one CLI command; return (seconds, exit status, stdout, stderr, maxrss KiB)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "reqsmith.cli", *argv],
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=workdir,
        )

        def kill(signum, frame):
            child.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return elapsed, child.returncode, stdout, stderr, usage.ru_maxrss


def _remove_output(op: gen.Op) -> None:
    """Delete an output file left by an earlier run, so it cannot pass for new."""
    if op.out_file is not None:
        Path(op.out_file).unlink(missing_ok=True)


def reference_s() -> float:
    """Time a fixed pure-Python loop: the CPU speed at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def measure_cli(work: gen.Workload, seconds: float, tally: Tally, meta: dict) -> dict:
    # One CPU for the loop and every child, so the reference loop measures
    # the speed of the CPU the commands run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    hash_seed = work.seed % 2**32
    meta["pythonhashseed"] = hash_seed
    env = _child_env(hash_seed)
    scaled: dict[str, list[float]] = {m: [] for m in END_TO_END}
    raw: dict[str, list[float]] = {m: [] for m in END_TO_END}
    refs: list[float] = []
    peak_kib = 0

    def run(op: gen.Op) -> tuple[float, float]:
        """Run one command; return its wall time and that time at nominal speed."""
        nonlocal peak_kib
        _remove_output(op)
        elapsed, code, stdout, stderr, rss = run_child(op.argv, env, work.workdir)
        tally.record(op.argv[0], oracle.verdict(op, code, stdout, stderr))
        peak_kib = max(peak_kib, rss)
        refs.append(reference_s())
        return elapsed, elapsed * REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)

    def sample(metric: str, times: tuple[float, float]) -> None:
        raw[metric].append(times[0])
        scaled[metric].append(times[1])

    singles = [op for op in work.ops if op.metric != "session_s"]
    session = [op for op in work.ops if op.metric == "session_s"]
    refs.append(reference_s())
    run(singles[0])  # warm-up: compiles the bytecode every later command reuses
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(SINGLE_REPEATS):
            for op in singles:
                sample(op.metric, run(op))
        times = [run(op) for op in session]
        sample("session_s", (sum(t[0] for t in times), sum(t[1] for t in times)))

    meta["samples"] = {m: len(v) for m, v in scaled.items()}
    meta["quartiles"] = {m: _quartiles(v) for m, v in scaled.items()}
    meta["raw_wall_median_s"] = {m: statistics.median(v) for m, v in raw.items()}
    meta["reference_s"] = _quartiles(refs)
    metrics = {m: (statistics.median(v), "s") for m, v in scaled.items()}
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    return metrics


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def run_inprocess(work: gen.Workload, tally: Tally, tracer=None) -> None:
    """One pass over the workload's operations inside this process."""
    from reqsmith import cli, operators, parser, semantics
    from reqsmith.model import AtomicConcept, ScaleDirection, ScaleFactor

    def operation(label: str, fn, *args):
        if tracer is None:
            return fn(*args)
        tracer.op = label
        return tracer.span(f"op.{label}", fn, *args)

    for index, op in enumerate(work.ops):
        _remove_output(op)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = operation(f"{index}.{op.argv[0]}", cli.main, list(op.argv))
        tally.record(op.argv[0], oracle.verdict(op, code, out.getvalue(), err.getvalue()))

    text = work.files["model.dsr"]

    def probe():
        model = parser.parse_model(text)
        concept = semantics.translate_description(parser.parse_description(gen.PROBE))
        return sorted(semantics.eval_dl(concept, model.world))

    got = operation("probe", probe)
    tally.record("eval_dl", None if got == work.probe_expected else f"got {got[:3]}...")

    def edit_chain():
        model = parser.parse_model(text)
        for g in work.edit.groups:
            qg, qc = f"EQG{g}", f"EQC{g}"
            model = operators.apply_scale(
                model, qc, ScaleFactor(*gen.SCALE), ScaleDirection.DOWN
            )
            model = operators.apply_scale(
                model, qg, ScaleFactor(region_name="Acceptable"), ScaleDirection.DOWN
            )
            model = operators.apply_observe(model, qg, AtomicConcept("Surveyed_user"))
            model = operators.apply_deuniversalize(
                model, qg, "X", ("inheres_in",), gen.DEUNIV_PCT
            )
        return parser.print_model(model)

    printed = operation("edit", edit_chain)
    reason = None
    if printed != work.edit.expected_model:
        reason = oracle.first_difference(printed, work.edit.expected_model)
    tally.record("edit-chain", reason)


def measure_traced(work: gen.Workload, seconds: float, tally: Tally, meta: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import reqsmith.cli  # noqa: F401  (loads every module the tracer patches)

    os.environ.pop("DESIREE_BOUND", None)
    run_inprocess(work, Tally())  # warm-up, unchecked
    plain_s, traced_s, passes = [], [], []
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not passes:
        start = time.perf_counter()
        run_inprocess(work, tally)
        plain_s.append(time.perf_counter() - start)

        tracer.spans.clear()
        tracer.install()
        try:
            start = time.perf_counter()
            run_inprocess(work, tally, tracer)
            traced_s.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        passes.append(spans.layer_metrics(tracer.spans))

    spans_path = work.workdir / "spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps(vars(span)) + "\n")
    meta["passes"] = len(passes)
    meta["spans"] = len(tracer.spans)
    meta["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = {
        name: (statistics.median(p[name] for p in passes), spans.unit_of(name))
        for name in passes[0]
    }
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def _src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "reqsmith").glob("*.py"))
    )


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reqsmith" / "cli.py").is_file():
        print(f"no reqsmith sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    work = gen.generate(args.workload, args.seed, workdir)
    work.write()
    tally = Tally()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "src_lines": _src_lines(),
        "git_sha": _git_sha(),
        "facts": work.facts,
    }
    if args.trace:
        metrics = measure_traced(work, args.seconds, tally, meta)
    else:
        metrics = measure_cli(work, args.seconds, tally, meta)
    meta["fail_ratio"] = tally.failed / tally.attempted
    meta["failures"] = tally.reasons
    print(json.dumps(meta))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
