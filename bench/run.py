"""gridpanel benchmark: whole CLI runs on seeded synthetic record sets.

    python3 bench/run.py --workload panel_growth --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 10

One run generates the workload's input CSVs from the seed, passes them
through the correctness gate (whose two runs are the first repetitions)
and then repeats the workload's commands, one child process at a time,
until ``--seconds`` more have passed. With
``--trace 0`` it reports the end-to-end metrics of those untraced
repetitions; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones. The last
line of standard output is one JSON object; the lines before it give every
metric by name with its unit, and the run environment. ``--workload all``
runs every workload in both modes. The exit code is 0 only if every
correctness check passed. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import speed  # noqa: E402
from tracing import ROOT_SPAN, TRACE_SPAN, self_times  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
REPLICATES = 50  # the baselines default, which the workload relies on; see README.md
VOLTAGE_FLOOR = 220  # the CLI default, which churn_records relies on
PANEL_METRICS = 16
MOTIF_KINDS = 4
FAMILIES = ("erdos_renyi", "watts_strogatz", "ring_lattice")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "graphs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "records.load_asset_records.self_s": "s",
    "records.validate_records.self_s": "s",
    "records.snapshot_at.self_s": "s",
    "records.snapshot_at.calls": "count",
    "records.records_scanned": "count",
    "records.self_s": "s",
    "graph.Graph.self_s": "s",
    "graph.edges_built": "count",
    "graph.self_s": "s",
    "metrics.apsp_summary.self_s": "s",
    "metrics.apsp_summary.calls": "count",
    "metrics.apsp_summary.calls_per_graph": "ratio",
    "metrics.apsp_summary.edge_visits": "count",
    "metrics.modularity_detect.self_s": "s",
    "metrics.modularity_of.self_s": "s",
    "metrics.clustering_coefficient.self_s": "s",
    "metrics.clustering_coefficient.calls": "count",
    "metrics.lattice_clustering.self_s": "s",
    "metrics.lattice_clustering.distinct_ratio": "ratio",
    "metrics.self_s": "s",
    "motifs.count_triangles.self_s": "s",
    "motifs.count_four_cycles.self_s": "s",
    "motifs.count_stars.self_s": "s",
    "motifs.wedges": "count",
    "motifs.self_s": "s",
    "temporal.line_lifetimes.self_s": "s",
    "temporal.annual_change_rates.self_s": "s",
    "temporal.self_s": "s",
    "generators.gen_erdos_renyi.self_s": "s",
    "generators.gen_watts_strogatz.self_s": "s",
    "generators.efficiency_comparison.self_s": "s",
    "generators.graphs": "count",
    "generators.sigma_defined_ratio": "ratio",
    "generators.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "count",
    "trace.overhead_s": "s",
}


class GateFailure(Exception):
    """A correctness check failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], inputs.RecordRows]
    commands: tuple[tuple[str, ...], ...]
    check: Callable[[dict[str, bytes], inputs.RecordRows], None]
    reference_graphs: int = 0

    def graphs(self, rows: inputs.RecordRows) -> int:
        """Graphs one repetition analyses: snapshot-years plus generated
        reference graphs."""
        return rows.n_years + self.reference_graphs


def _csv_rows(outputs: dict[str, bytes], name: str) -> list[dict[str, str]]:
    if name not in outputs:
        raise GateFailure(f"{name} was not written")
    return list(csv.DictReader(io.StringIO(outputs[name].decode("utf-8"))))


def _years_in(rows: list[dict[str, str]]) -> list[int]:
    return sorted({int(row["year"]) for row in rows})


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def check_panel(outputs: dict[str, bytes], rows: inputs.RecordRows) -> None:
    start, end = rows.span
    tidy = _csv_rows(outputs, "panel_tidy.csv")
    wide = _csv_rows(outputs, "panel_wide.csv")
    _expect(len(tidy) == rows.n_years * PANEL_METRICS, f"panel_tidy.csv has {len(tidy)} rows, want {rows.n_years} x {PANEL_METRICS}")
    _expect(len(wide) == rows.n_years, f"panel_wide.csv has {len(wide)} rows, want {rows.n_years}")
    _expect(_years_in(wide) == list(range(start, end + 1)), "panel_wide.csv does not cover the dataset span")


def check_baselines(outputs: dict[str, bytes], rows: inputs.RecordRows) -> None:
    replicates = _csv_rows(outputs, "baselines.csv")
    summary = _csv_rows(outputs, "baselines_summary.csv")
    seen = {(row["family"], int(row["replicate"])) for row in replicates}
    want = {(family, rep) for family in FAMILIES for rep in range(REPLICATES)}
    _expect(seen == want, f"baselines.csv covers {len(seen)} family replicates, want {len(want)}")
    orderings = [row for row in summary if row["family"] == "ordering"]
    _expect(len(orderings) == 1 and sorted(orderings[0]["mean"].split(">")) == sorted(FAMILIES), "baselines_summary.csv lacks the family ordering")


def check_churn(outputs: dict[str, bytes], rows: inputs.RecordRows) -> None:
    motifs = _csv_rows(outputs, "motifs.csv")
    _expect(len(motifs) == rows.n_years * MOTIF_KINDS, f"motifs.csv has {len(motifs)} rows, want {rows.n_years} x {MOTIF_KINDS}")
    rates = _csv_rows(outputs, "change_rates.csv")
    _expect(len(rates) == rows.n_years, f"change_rates.csv has {len(rates)} rows, want {rows.n_years}")
    stock = 0
    for row in rates:
        stock += int(row["new_lines"]) - int(row["decommissions"])
        _expect(int(row["lines_in_operation"]) == stock, f"change_rates.csv breaks the stock balance in {row['year']}")
    voltage = {row[0]: row[2] for row in rows.nodes}
    in_scope = sum(
        1 for row in rows.edges if min(row[3], voltage[row[1]], voltage[row[2]]) >= VOLTAGE_FLOOR
    )
    lifetimes = _csv_rows(outputs, "lifetimes.csv")
    _expect(len(lifetimes) == in_scope, f"lifetimes.csv has {len(lifetimes)} rows, want one per in-scope circuit ({in_scope})")


# Why each workload is here, and which layer should move which metric on
# it: README.md in this directory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="panel_growth",
            generate=lambda seed: inputs.geometric_growth(seed, stations=1200),
            commands=(("panel", "--voltage-floor", "0"),),
            check=check_panel,
        ),
        Workload(
            name="baselines_ensemble",
            generate=lambda seed: inputs.geometric_growth(seed, stations=1000),
            commands=(("baselines", "--voltage-floor", "0"),),
            check=check_baselines,
            reference_graphs=2 * REPLICATES + 1,
        ),
        Workload(
            name="churn_records",
            generate=inputs.churn,
            commands=(("motifs",), ("temporal",)),
            check=check_churn,
        ),
    )
}


@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def _spawn(argv: list[str], log: Path, start_cpu: int) -> Child:
    """Run one child to completion and take its wall time and rusage.

    The child starts on ``start_cpu``, whose speed the caller times around
    it, and may use every CPU this process may use.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    allowed = os.sched_getaffinity(0)

    def start_on_cpu() -> None:
        os.sched_setaffinity(0, {start_cpu})
        os.sched_setaffinity(0, allowed)

    with open(log, "w+b") as errors:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=errors,
            preexec_fn=start_on_cpu,
        )
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        errors.seek(0)
        stderr = errors.read().decode("utf-8", "replace")
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stderr)


def _scale(sweep_before: float, sweep_after: float) -> float:
    """Reference seconds per measured second around one timed step."""
    return speed.REFERENCE_SWEEP_S / statistics.fmean((sweep_before, sweep_after))


def _gridpanel(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "gridpanel", *args]


def _traced(args: list[str], run_id: str, spans: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracing.py"), "--run-id", run_id, "--spans-out", str(spans), "--", *args]


def _read_outputs(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())} if directory.is_dir() else {}


def _clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


@dataclass
class Repetition:
    """One run of a workload's commands. ``wall_s`` and ``cpu_s`` are in
    reference seconds (see speed.py); ``raw_wall_s`` is as measured."""

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    rss_mb: float
    scales: list[float]
    outputs: dict[str, bytes]
    failure: str | None = None


class Bench:
    """One workload at one seed: inputs, gate, repetitions."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload.name
        self.inputs = self.dir / "inputs"
        self.out = self.dir / "out"
        self.logs = self.dir / "logs"
        self.rows: inputs.RecordRows | None = None
        self.reference: dict[str, bytes] = {}
        self.setup_s: list[float] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turns = 0
        self.sweep = speed.sweep_graph()

    def rel(self, path: Path) -> str:
        return str(path.relative_to(ROOT))

    def next_cpu(self) -> int:
        """CPUs in turn: on a shared host each drifts in speed on its own."""
        cpu = self.cpus[self.turns % len(self.cpus)]
        self.turns += 1
        return cpu

    def sweep_s(self, cpu: int) -> float:
        return speed.sweep_seconds(self.sweep, cpu)

    def timed_setup(self, directory: Path) -> inputs.RecordRows:
        """Generate and write the inputs, adding the time to ``setup_s``."""
        cpu = self.next_cpu()
        before = self.sweep_s(cpu)
        with speed.pinned(cpu):
            start = time.perf_counter()
            rows = self.workload.generate(self.seed)
            inputs.write_csvs(rows, str(directory))
            elapsed = time.perf_counter() - start
        self.setup_s.append(elapsed * _scale(before, self.sweep_s(cpu)))
        return rows

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.logs.mkdir(parents=True)
        self.rows = self.timed_setup(self.inputs)

    def setup_again(self) -> None:
        """Time one more set-up into a spare directory; its bytes must
        match the inputs in use. Spread over the run, these samples keep
        the ``setup_s`` median from resting on one moment."""
        spare = self.dir / "setup_check"
        self.timed_setup(spare)
        if _read_outputs(spare) != _read_outputs(self.inputs):
            raise GateFailure("input generation is not deterministic for one seed")

    def input_args(self) -> list[str]:
        return [f"--{role}={self.rel(self.inputs / f'{role}.csv')}" for role in ("nodes", "edges", "events")]

    def command_args(self, command: tuple[str, ...]) -> list[str]:
        return [*command, *self.input_args(), "--country-tag", "bench", "--out", self.rel(self.out)]

    def gate(self) -> list[Repetition]:
        """Validate the inputs, make the reference outputs, check their
        invariants and re-run every command from the manifest it wrote.

        Both runs are whole untraced repetitions and are returned as such.
        """
        child = _spawn(_gridpanel(["validate", *self.input_args()]), self.logs / "validate.err", self.cpus[0])
        _expect(child.code == 0, f"gridpanel validate rejected the generated inputs: {child.stderr.strip()}")
        first = self.repeat(traced=False, label="reference")
        if first.failure:
            raise GateFailure(first.failure)
        self.workload.check(first.outputs, self.rows)
        self.reference = first.outputs
        for command in self.workload.commands:
            # Read each manifest from a copy: the rerun overwrites the original.
            name = f"{command[0]}_manifest.txt"
            (self.logs / name).write_bytes(self.reference[name])
        rerun = self.repeat(traced=False, label="rerun", from_manifest=True)
        if rerun.failure:
            raise GateFailure(f"rerun from the manifests: {rerun.failure}")
        return [first, rerun]

    def repeat(self, traced: bool, label: str, from_manifest: bool = False) -> Repetition:
        """Run the workload's commands once, one child at a time, with
        flags or, with ``from_manifest``, from copies of their manifests."""
        _clear(self.out)
        cpu = self.next_cpu()
        sweeps = [self.sweep_s(cpu)]
        children: list[Child] = []
        failure = None
        for index, command in enumerate(self.workload.commands):
            if from_manifest:
                args = [command[0], "--config", self.rel(self.logs / f"{command[0]}_manifest.txt")]
            else:
                args = self.command_args(command)
            if traced:
                argv = _traced(args, f"{self.workload.name}:{label}:{command[0]}", self.logs / f"{label}.{index}.spans.json")
            else:
                argv = _gridpanel(args)
            children.append(_spawn(argv, self.logs / f"{command[0]}.err", cpu))
            sweeps.append(self.sweep_s(cpu))
            if children[-1].code != 0:
                failure = f"{command[0]} exited {children[-1].code}: {children[-1].stderr.strip()}"
                break
        scales = [_scale(before, after) for before, after in zip(sweeps, sweeps[1:])]
        outputs = _read_outputs(self.out)
        if self.reference and failure is None:
            differ = sorted(name for name in set(outputs) | set(self.reference) if outputs.get(name) != self.reference.get(name))
            if differ:
                failure = f"outputs differ from the reference: {', '.join(differ)}"
            else:
                try:
                    self.workload.check(outputs, self.rows)
                except GateFailure as exc:
                    failure = str(exc)
        return Repetition(
            wall_s=sum(child.wall_s * scale for child, scale in zip(children, scales)),
            cpu_s=sum(child.cpu_s * scale for child, scale in zip(children, scales)),
            raw_wall_s=sum(child.wall_s for child in children),
            rss_mb=max(child.rss_mb for child in children),
            scales=scales,
            outputs=outputs,
            failure=failure,
        )

    def spans_of(self, label: str, scales: list[float]) -> list[dict]:
        """The traced repetition's span dumps, each with its child's scale."""
        traces = []
        for index, scale in enumerate(scales):
            trace = json.loads((self.logs / f"{label}.{index}.spans.json").read_text(encoding="utf-8"))
            trace["scale"] = scale
            traces.append(trace)
        return traces


def layer_metrics(traces: list[dict], outputs: dict[str, bytes]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer times and counts of one traced repetition.

    ``traces`` holds one ``tracing.py`` dump per command. Times are self
    times summed by span name and by module, in reference seconds when a
    dump carries its child's ``scale``; counts are exact.
    """
    times: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for trace in traces:
        spans = trace["spans"]
        scale = trace.get("scale", 1.0)
        for span, own in zip(spans, self_times(spans)):
            own *= scale
            name = span[0]
            if name == TRACE_SPAN:
                continue
            module = name.split(".")[0]
            times[f"{name}.self_s"] = times.get(f"{name}.self_s", 0.0) + own
            if module != ROOT_SPAN:
                times[f"{module}.self_s"] = times.get(f"{module}.self_s", 0.0) + own
            calls[f"{name}.calls"] = calls.get(f"{name}.calls", 0) + 1
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    counts.update(calls)
    apsp_calls = calls.get("metrics.apsp_summary.calls", 0)
    lattice_calls = calls.get("metrics.lattice_clustering.calls", 0)
    replicate_rows = counts.get("generators.replicate_rows", 0)
    ratios = {
        "metrics.apsp_summary.calls_per_graph": apsp_calls / counts["metrics.apsp_summary.distinct_graphs"] if apsp_calls else 0.0,
        "metrics.lattice_clustering.distinct_ratio": counts["metrics.lattice_clustering.distinct_args"] / lattice_calls if lattice_calls else 0.0,
        "generators.sigma_defined_ratio": counts.get("generators.sigma_rows", 0) / replicate_rows if replicate_rows else 0.0,
    }
    counts["cli.rows_written"] = sum(
        data.count(b"\n") - 1 for name, data in outputs.items() if name.endswith(".csv")
    )
    counts["cli.bytes_written"] = sum(len(data) for data in outputs.values())
    exact = {key: float(value) for key, value in counts.items()}
    exact.update(ratios)
    return times, exact


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns the result object and a detail record for the report."""
    bench = Bench(workload, seed)
    detail: dict = {"workload": workload.name, "seed": seed, "trace": trace}
    try:
        bench.setup()
        untraced = bench.gate()
    except GateFailure as exc:
        detail["gate_failure"] = str(exc)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, detail

    traced: list[Repetition] = []
    layer_times: list[dict[str, float]] = []
    layer_counts: list[dict[str, float]] = []
    failures: list[str] = []

    def missing_samples() -> bool:
        return not untraced or (trace and not traced)

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (missing_samples() and len(failures) < 3):
        take_traced = trace and len(traced) < len(untraced)
        label = f"rep{len(untraced) + len(traced) + len(failures)}"
        rep = bench.repeat(traced=take_traced, label=label)
        try:
            bench.setup_again()
        except GateFailure as exc:
            rep.failure = rep.failure or str(exc)
        if rep.failure:
            failures.append(rep.failure)
        elif take_traced:
            times, counts = layer_metrics(bench.spans_of(label, rep.scales), rep.outputs)
            traced.append(rep)
            layer_times.append(times)
            layer_counts.append(counts)
            if len(traced) == 1:
                shutil.copy(bench.logs / f"{label}.0.spans.json", bench.dir / "trace_spans.json")
        else:
            untraced.append(rep)
    try:
        while len(bench.setup_s) < SETUP_REPEATS:
            bench.setup_again()
    except GateFailure as exc:
        detail["gate_failure"] = str(exc)

    attempted = len(untraced) + len(traced) + len(failures)
    walls = [rep.wall_s for rep in untraced]
    detail.update(
        graphs_per_repetition=workload.graphs(bench.rows),
        samples=len(walls),
        run_s_samples=walls,
        raw_run_s=_median([rep.raw_wall_s for rep in untraced]),
        raw_run_s_samples=[rep.raw_wall_s for rep in untraced],
        scales=[scale for rep in untraced for scale in rep.scales],
        setup_s_samples=bench.setup_s,
        failures=failures,
        failed_frac=len(failures) / attempted,
    )
    correct = not failures and "gate_failure" not in detail and not missing_samples()
    if not trace:
        run_s = _median(walls)
        values = {
            "setup_s": _median(bench.setup_s),
            "run_s": run_s,
            "cpu_s": _median([rep.cpu_s for rep in untraced]),
            "graphs_per_s": detail["graphs_per_repetition"] / run_s if run_s else 0.0,
            "peak_rss_mb": _median([rep.rss_mb for rep in untraced]),
        }
        units = END_TO_END_UNITS
    else:
        if any(counts != layer_counts[0] for counts in layer_counts):
            correct = False
            detail["count_mismatch"] = "exact counts differ between traced repetitions"
        counts = layer_counts[0] if layer_counts else {}
        values = {
            name: _median([times.get(name, 0.0) for times in layer_times]) if name.endswith(".self_s") else counts.get(name, 0.0)
            for name in PER_LAYER_UNITS
        }
        traced_run_s = _median([rep.wall_s for rep in traced])
        values["trace.overhead_s"] = traced_run_s - _median(walls)
        detail.update(traced_samples=len(traced), traced_run_s=traced_run_s)
        units = PER_LAYER_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}, detail


def print_report(result: dict, detail: dict) -> None:
    name = detail["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    if "gate_failure" in detail:
        print(f"{name} gate FAILED: {detail['gate_failure']}")
    for failure in detail.get("failures", []):
        print(f"{name} repetition FAILED: {failure}")
    summary = dict(detail)
    if detail.get("run_s_samples"):
        walls = sorted(detail["run_s_samples"])
        summary["run_s_max"] = walls[-1]
        # The highest percentile with ten samples beyond it exists from 11 samples on.
        if len(walls) > 10:
            summary[f"run_s_p{100 * (len(walls) - 10) // len(walls)}"] = walls[-11]
        else:
            summary["run_s_tail"] = None
    print("detail: " + json.dumps(summary, sort_keys=True))


def _terminate(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "gridpanel" / "__main__.py").is_file():
        print(f"error: no gridpanel sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    env = environment()
    if args.workload == "all":
        ok = True
        for workload in WORKLOADS.values():
            for trace in (False, True):
                result, detail = run_workload(workload, args.seed, args.seconds, trace)
                print_report(result, detail)
                ok = ok and result["correct"]
        env["loadavg_end"] = os.getloadavg()
        print("env: " + json.dumps(env, sort_keys=True))
        return 0 if ok else 1

    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_report(result, detail)
    env["loadavg_end"] = os.getloadavg()
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
