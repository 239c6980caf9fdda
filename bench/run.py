"""Benchmark of the loewylab command line, end to end and layer by layer.

Every op runs `loewylab.cli.main(argv)` in a fresh interpreter (child.py),
one at a time in a closed loop with a single client, so no cache carries
over between ops.  Outputs are checked against closed forms (gate.py) and
against reference hashes recorded from a trusted commit (reference.json).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seconds S            # every workload in turn
    python3 bench/run.py --compare OLD.jsonl [NEW.jsonl]
    python3 bench/run.py --record-reference

A run prints each metric by name and unit, appends one record to
bench/results/runs.jsonl (or --out), and prints as its last line a JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from traced passes interleaved with
untraced ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results" / "runs.jsonl"
CHILD = BENCH / "child.py"
LIBRARY = ROOT / "src" / "loewylab"
OP_TIMEOUT_S = 60
# Every time is calibrated: scaled by CALIBRATION_S / interp_s, where
# interp_s is the same child's start-up up to (not including) importing the
# library.  The machine this benchmark was built on (2 vCPU Xeon VM) drifts
# by up to 1.5x in speed within minutes, and start-up drifts with it; the
# ratio does not.  CALIBRATION_S is that machine's median start-up, so
# calibrated times read as seconds there.
CALIBRATION_S = 0.065


@dataclass
class Sample:
    """One op run in one child process."""

    key: str
    traced: bool
    interp_s: float
    setup_s: float
    op_s: float
    code: int | None
    sha256: str
    bytes_out: int
    report: dict
    problems: list[str] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor turning this child's times into calibrated times."""
        return CALIBRATION_S / max(self.interp_s, 1e-6)


def child_env() -> dict[str, str]:
    """A minimal environment: fixed hash seed, no LOEWY_LAB_THREADS (so the
    certificate sweep runs serially), no PYTHONOPTIMIZE (asserts stay on)."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
    }


def spawn(argv: list[str], traced: bool) -> tuple[Sample, bytes]:
    """Run one op in a fresh child; time its set-up and the op itself."""
    ready_r, ready_w = os.pipe()
    try:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(ready_w), "1" if traced else "0", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(ready_w,),
            env=child_env(),
            cwd=ROOT,
        )
    except BaseException:
        os.close(ready_r)
        raise
    finally:
        os.close(ready_w)
    problems = []
    marks = []
    try:
        while len(marks) < 2:
            readable, _, _ = select.select([ready_r], [], [], OP_TIMEOUT_S)
            if not (readable and os.read(ready_r, 1)):
                problems.append("child never became ready")
                break
            marks.append(perf_counter())
        ready_at = perf_counter()
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        done = perf_counter()
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        done = perf_counter()
        problems.append(f"timed out after {OP_TIMEOUT_S} s")
    finally:
        os.close(ready_r)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    report = _child_report(err)
    code = report.get("code", proc.returncode)
    if code != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        problems.append(f"exit code {code}: {' | '.join(tail)}")
    return Sample(
        key=workloads.key(argv),
        traced=traced,
        interp_s=(marks[0] if marks else ready_at) - start,
        setup_s=ready_at - start,
        op_s=done - ready_at,
        code=code,
        sha256=hashlib.sha256(out).hexdigest(),
        bytes_out=len(out),
        report=report,
        problems=problems,
    ), out


def _child_report(err: bytes) -> dict:
    lines = err.decode(errors="replace").strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except ValueError:
        return {}
    return report if isinstance(report, dict) else {}


class Checker:
    """Checks each sample: exit code, hermetic child, reference hash, and
    the closed forms (once per distinct output)."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.gated: dict[str, list[str]] = {}

    def __call__(self, sample: Sample, out: bytes, argv: list[str]) -> Sample:
        r = sample.report
        if r and (r.get("optimize") != 0 or r.get("threads_env") is not None
                  or r.get("hashseed") != "0"):
            sample.problems.append(f"child not hermetic: {r}")
        want = self.reference.get(sample.key)
        if want is None:
            sample.problems.append("no reference output recorded")
        elif sample.sha256 != want:
            sample.problems.append("stdout differs from the reference output")
        if sample.code == 0:
            if sample.sha256 not in self.gated:
                self.gated[sample.sha256] = gate.check(argv, out)
            sample.problems += self.gated[sample.sha256]
        trace = r.get("trace")
        if sample.traced and trace is not None:
            parts = sum(trace["self_s"].values())
            if abs(parts - trace["root_s"]) > 1e-6 * max(trace["root_s"], 1e-3):
                sample.problems.append("layer self times do not partition the root span")
        elif sample.traced:
            sample.problems.append("traced child sent no trace")
        return sample


def measure(workload: str, seed: int, seconds: float, trace: bool, checker: Checker) -> list[Sample]:
    """Run whole passes of `workload` until `seconds` have gone.

    With `trace`, passes alternate untraced and traced, at least one each.
    The first op is run once beforehand, unmeasured, so byte-compiling and
    the page cache are warm.
    """
    ops = workloads.ops(workload, seed)
    order = random.Random(f"order:{workload}:{seed}")
    checker(*spawn(ops[0], False), ops[0])
    modes = (False, True) if trace else (False,)
    samples: list[Sample] = []
    start = perf_counter()
    longest = 0.0
    passes = 0
    # Stop before a pass that would likely end past `seconds`.
    while passes < len(modes) or perf_counter() - start + longest <= seconds:
        pass_start = perf_counter()
        traced = modes[passes % len(modes)]
        for argv in order.sample(ops, len(ops)):
            samples.append(checker(*spawn(argv, traced), argv))
        passes += 1
        longest = max(longest, perf_counter() - pass_start)
    return samples


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile, interpolating between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def wall_s(samples: list[Sample], calibrated: bool = True) -> float:
    """One pass's op time: the sum over its ops of each op's median time."""
    by_key: dict[str, list[float]] = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s.op_s * (s.scale if calibrated else 1.0))
    return sum(statistics.median(v) for v in by_key.values())


def end_to_end_metrics(samples: list[Sample], calibrated: bool = True) -> dict[str, float]:
    """The end-to-end metrics; `calibrated=False` gives raw seconds."""
    scale = [s.scale if calibrated else 1.0 for s in samples]
    times = [s.op_s * k for s, k in zip(samples, scale)]
    return {
        "setup_s": statistics.median(s.setup_s * k for s, k in zip(samples, scale)),
        "wall_s": wall_s(samples, calibrated),
        "op_p50_ms": percentile(times, 50) * 1000,
        "op_p95_ms": percentile(times, 95) * 1000,
        "peak_rss_mb": max(s.report.get("maxrss_kb", 0) for s in samples) / 1024,
    }


TRACED_TIMES = ("cli.render_s", "loewy.rad_inclusive_s")


def _trace_values(sample: Sample) -> dict[str, float]:
    """One traced op's counters and calibrated times, by metric name."""
    trace = sample.report.get("trace") or {}
    values = dict(trace.get("counts", {}))
    for name in TRACED_TIMES:
        values[name] = values.get(name, 0) * sample.scale
    for layer, t in trace.get("self_s", {}).items():
        values[f"{layer}.self_s"] = t * sample.scale
    values["patterns"] = trace.get("patterns", 0)
    values["cli.bytes_out"] = sample.bytes_out
    return values


# Per-layer metrics read straight off the traces, summed over a pass.
SUMMED = (
    "lattice.self_s", "lattice.weights_built", "lattice.pair.calls",
    "lattice.eps_subset.calls", "lattice.leq.calls",
    "loewy.self_s", "loewy.rad_layers_z_g1t.calls", "loewy.labels_built",
    "projective.self_s", "projective.verma_support.entries", "projective.labels_stacked",
    "chardim.self_s", "chardim.witness_search.calls", "chardim.verify_certificate.calls",
    "cli.self_s", "cli.render_s", "cli.bytes_out",
    "block.self_s", "block.make_context.calls",
    "weyl.self_s", "weyl.act.calls", "ext.self_s", "ext.ext1_g1t_dim.calls",
)


def per_layer_metrics(untraced: list[Sample], traced: list[Sample]) -> dict[str, float]:
    """Per-layer metrics of one pass: per-op medians over the traced
    samples, summed over the pass's ops; ratios are taken of the sums."""
    by_key: dict[str, list[dict[str, float]]] = {}
    for s in traced:
        by_key.setdefault(s.key, []).append(_trace_values(s))
    total: dict[str, float] = {}
    for runs in by_key.values():
        for name in {name for run in runs for name in run}:
            total[name] = total.get(name, 0) + statistics.median(run.get(name, 0) for run in runs)

    def ratio(num: str, den: str) -> float:
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    metrics = {name: total.get(name, 0) for name in SUMMED}
    metrics["loewy.us_per_label"] = ratio("loewy.rad_inclusive_s", "loewy.labels_built") * 1e6
    metrics["loewy.distinct_pattern_ratio"] = ratio("patterns", "loewy.rad_layers_z_g1t.calls")
    metrics["chardim.cert_valid_ratio"] = ratio("chardim.cert_valid", "chardim.verify_certificate.calls")
    metrics["trace_overhead_frac"] = wall_s(traced) / wall_s(untraced) - 1
    return metrics


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def with_units(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """Attach BENCHMARK.json's units; the names must match it exactly."""
    units = {m["name"]: m["unit"] for m in specs}
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """One hash of the library's source files, to tell builds apart."""
    digest = hashlib.sha256()
    for path in sorted(LIBRARY.rglob("*.py")):
        digest.update(path.relative_to(LIBRARY).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 checker: Checker, spec: dict) -> dict:
    """Measure one workload and return its result record."""
    samples = measure(workload, seed, seconds, trace, checker)
    untraced = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    if trace:
        metrics = with_units(per_layer_metrics(untraced, traced), spec["per_layer"])
    else:
        metrics = with_units(end_to_end_metrics(untraced), spec["end_to_end"])
    failed = [s for s in samples if s.problems]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "fail_frac": len(failed) / len(samples),
        "op_samples": len(untraced),
        "traced_samples": len(traced),
        "metrics": metrics,
        "raw": {
            **end_to_end_metrics(untraced, calibrated=False),
            "interp_s": statistics.median(s.interp_s for s in untraced),
        },
        "environment": environment(),
        "child_env": child_env() | {"PYTHONPATH": "src"},
        "op_sha256": {s.key: s.sha256 for s in samples},
        "problems": [f"{s.key}: {p}" for s in failed for p in s.problems][:20],
    }


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(f"{name:15s} {metric:34s} {m['value']:14.6g} {m['unit']}")
    print(
        f"{name:15s} {'fail_frac':34s} {record['fail_frac']:14.6g} "
        f"({record['failed']}/{record['attempted']} ops; "
        f"{record['op_samples']} untraced samples, {record['traced_samples']} traced)"
    )
    raw = record["raw"]
    print(f"{name:15s} {'raw (uncalibrated)':34s} wall_s {raw['wall_s']:.6g} s, "
          f"setup_s {raw['setup_s']:.6g} s, interp_s {raw['interp_s']:.6g} s")
    for problem in record["problems"]:
        print(f"{name:15s} FAIL {problem}")


def append_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["sha256"]


def record_reference() -> int:
    """Run every op any seed can produce once, check it, store its hash."""
    hashes, bad = {}, 0
    ops = workloads.all_ops()
    for n, argv in enumerate(ops, 1):
        sample, out = spawn(argv, False)
        problems = sample.problems + (gate.check(argv, out) if sample.code == 0 else [])
        if problems:
            bad += 1
            print(f"FAIL {sample.key}: {problems}", file=sys.stderr)
        hashes[sample.key] = sample.sha256
        print(f"[{n}/{len(ops)}] {sample.op_s:6.3f} s  {sample.key}", file=sys.stderr)
    if bad:
        print(f"{bad} ops failed; reference not written", file=sys.stderr)
        return 1
    env = environment()
    doc = {"recorded_from": {k: env[k] for k in ("git_sha", "source_sha256")}, "sha256": hashes}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} reference hashes to {REFERENCE.relative_to(ROOT)}")
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _grouped(path: Path) -> dict[tuple[str, str], list[float]]:
    groups: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, m in record["metrics"].items():
                groups.setdefault((record["workload"], name), []).append(m["value"])
    return groups


def verdict(old: list[float], new: list[float], bound: float, lower_better: bool) -> str:
    """Judge `new` against `old` under `bound`, a share of old's median."""
    sign = 1 if lower_better else -1
    o1, om, o3 = _quartiles(old)
    n1, nm, n3 = _quartiles(new)
    spread = max((o3 - o1) / abs(om) if om else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    worse = sign * (nm - om) / abs(om) if om else 0.0
    if spread > bound:
        if all(sign * (b - a) < 0 for a in old for b in new):
            return "better (every run)"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if om and -worse > (o3 - o1) / abs(om):
        return "better"
    return "within bound"


def _steadiness(values: list[float], bound: float | None) -> str:
    if bound is None:
        return ""
    q1, q2, q3 = _quartiles(values)
    spread = (q3 - q1) / abs(q2) if q2 else 0.0
    return "steady" if spread < bound / 3 else "within bound" if spread <= bound else "too noisy"


def compare(old_path: Path, new_path: Path | None, spec: dict) -> int:
    """Print medians, quartiles and a verdict per workload and metric.

    With one file the verdict says how steady each bounded metric is; with
    two it judges the second file's runs against the first's.
    """
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old = _grouped(old_path)
    new = _grouped(new_path) if new_path else None
    print(f"{'workload':15s} {'metric':40s} {'runs':>5s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'spread':>7s}  verdict")
    regressed = False
    for (workload, name), values in sorted(old.items()):
        if name not in metrics:
            continue
        bound = metrics[name].get("bound")
        if new is None:
            rows = [(name, values, _steadiness(values, bound))]
        else:
            rows = [(f"{name} (old)", values, "")]
            if (workload, name) in new:
                vals = new[(workload, name)]
                lower = metrics[name]["better"] == "lower"
                note = verdict(values, vals, bound, lower) if bound is not None else ""
                regressed = regressed or note == "regressed"
                rows.append((f"{name} (new)", vals, note))
        for label, vals, note in rows:
            q1, q2, q3 = _quartiles(vals)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            print(f"{workload:15s} {label:40s} {len(vals):5d} {q1:12.6g} {q2:12.6g} "
                  f"{q3:12.6g} {spread:7.3f}  {note}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS, help="result file to append to")
    parser.add_argument("--compare", type=Path, nargs="+", metavar="RESULTS",
                        help="summarise one result file, or judge a second against a first")
    parser.add_argument("--record-reference", action="store_true",
                        help="rerun every op and rewrite reference.json")
    args = parser.parse_args(argv)

    if not (LIBRARY / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: the loewylab sources ({LIBRARY.relative_to(ROOT)}) or "
              f"{SPEC.name} are missing; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two result files")
        return compare(args.compare[0], args.compare[1] if len(args.compare) > 1 else None, spec)
    if args.record_reference:
        return record_reference()

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    checker = Checker(load_reference())
    records = []
    for workload in [args.workload] if args.workload else list(workloads.WORKLOADS):
        record = run_workload(workload, args.seed, seconds, bool(args.trace), checker, spec)
        append_record(args.out, record)
        print_record(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
