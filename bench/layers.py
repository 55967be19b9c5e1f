"""Traced in-process run: per-layer metrics from spans at layer boundaries.

The package is imported into the benchmark process and its public
functions are wrapped, from here, on the module attribute each caller
resolves (cli.classify, regime.ratio_analysis, core.adaptive_simpson,
the income classes' value and derivative, ...). Every call of a wrapped
function records one span: name, start, end, parent span and op id. The
spans stay in memory as arrays and are written out when the run ends.

One traced run covers all three workloads with fixed-size passes built
from the seed: one cycle of the sweep grids, one cycle of the trajectory
scenarios (both through cli.main), and the first LIBRARY_ITEMS library
items. Each layer metric comes from the pass of the workload that
exercises that layer, so every metric is measured whichever --workload
is given, and the counts repeat exactly for a seed. Each pass runs once
untraced and once traced; the ratio of the two is the tracing overhead.
The package's import cost comes from `-X importtime` in fresh
interpreters next to a bare interpreter.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import library
from common import IMPORT_CLI, PYTHON, SRC, load_doc, simulate_argv, spawn, sweep_argv

PACKAGE = "wellbeing_dynamics"
IMPORT_SAMPLES = 7
LIBRARY_ITEMS = 20
INCOME_CLASSES = ("ExponentialIncome", "LinearIncome", "TabulatedIncome")


class Tracer:
    """Span store plus the wrappers that fill it; undo() restores the package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.failed = array.array("b")
        self.op_id = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, failed, stack = self.start, self.end, self.failed, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            failed.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def undo(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Columns as raw arrays behind a one-line JSON header that names them."""
        header = {"names": self.names, "count": len(self.start), "byteorder": sys.byteorder,
                  "columns": [["name", "i"], ["parent", "i"], ["op", "i"],
                              ["start_ns", "q"], ["end_ns", "q"], ["failed", "b"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.op, self.start, self.end, self.failed):
                column.tofile(handle)


def instrument(tracer: Tracer, wd) -> None:
    """Wrap every layer boundary the three workloads cross."""
    cli, core, regime, dynamics = wd.cli, wd.core, wd.regime, wd.dynamics
    scenario, calibration = wd.scenario, wd.calibration
    for owner, attr, name in (
        (cli, "main", "cli.main"),
        (cli, "load_scenario", "scenario.load_scenario"),
        (cli, "parse_sweep", "scenario.parse_sweep"),
        (cli, "with_param", "scenario.with_param"),
        (scenario.Scenario, "income_pair", "scenario.income_pair"),
        (scenario.Scenario, "closed_form_params", "scenario.closed_form_params"),
        (cli, "classify", "regime.classify"),
        (regime, "classify", "regime.classify"),
        (regime, "verify_nhat_bracketing", "regime.verify_nhat_bracketing"),
        (regime, "growth_case", "regime.growth_case"),
        (cli, "ratio_analysis", "core.ratio_analysis"),
        (regime, "ratio_analysis", "core.ratio_analysis"),
        (cli, "exponent_g", "core.exponent_g"),
        (cli, "exponent_g_star", "core.exponent_g_star"),
        (cli, "closed_form_B", "core.closed_form"),
        (cli, "closed_form_B_star", "core.closed_form"),
        (core, "ScenarioParams", "core.ScenarioParams"),
        (core, "general_wellbeing", "core.general_wellbeing"),
        (core, "adaptive_simpson", "numerics.adaptive_simpson"),
        (cli, "integrate", "dynamics.integrate"),
        (dynamics, "integrate", "dynamics.integrate"),
        (cli, "time_grid", "dynamics.time_grid"),
        (dynamics, "time_grid", "dynamics.time_grid"),
        (dynamics, "_run_rk4", "dynamics.rk4"),
        (dynamics, "_run_rkf45", "dynamics.rkf45"),
        (calibration, "read_income_series", "calibration.read_income_series"),
        (calibration, "fit_growth_rate", "calibration.fit_growth_rate"),
    ):
        tracer.wrap(owner, attr, name)
    for cls in INCOME_CLASSES:
        for method in ("value", "derivative"):
            tracer.wrap(getattr(dynamics, cls), method, f"dynamics.{cls}.{method}")


class Spans:
    """Read-only view of a tracer's spans with durations and self times."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        n = len(tracer.start)
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        covered = [0] * n
        for i, p in enumerate(tracer.parent):
            if p >= 0:
                covered[p] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, covered)]
        self.by_name: dict[str, list[int]] = {name: [] for name in tracer.names}
        for i, nid in enumerate(tracer.name):
            self.by_name[tracer.names[nid]].append(i)

    def ids(self, *names: str) -> list[int]:
        return [i for name in names for i in self.by_name.get(name, [])]

    def name_of(self, i: int) -> str:
        return self.tracer.names[self.tracer.name[i]]

    def enclosing(self, i: int, names: set[str]) -> int:
        """Nearest ancestor of span i named in names, or -1."""
        p = self.tracer.parent[i]
        while p >= 0 and self.name_of(p) not in names:
            p = self.tracer.parent[p]
        return p

    def total_ns(self, ids: list[int], own: bool = False) -> int:
        values = self.self_ns if own else self.dur
        return sum(values[i] for i in ids)



@dataclass
class PassResult:
    """Outcome of one fixed-size pass over a workload's inputs."""

    wall_s: float = 0.0
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    rows: int = 0
    bytes_out: int = 0
    grid_points: int = 0
    rk4_steps: int = 0
    exp_steps: int = 0
    accepted: int = 0
    tab_gap: float | None = None

    def add(self, seconds: float, failure: str | None, output: str) -> None:
        self.wall_s += seconds
        self.ops += 1
        if failure is not None:
            self.failures.append(failure)
        self.outputs.append(hashlib.sha256(output.encode()).hexdigest())


def _cli_call(cli, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, code, out.getvalue(), err.getvalue()


def sweep_pass(wd, cycle: list[inputs.SweepOp], work: Path, tracer: Tracer | None) -> PassResult:
    result = PassResult()
    table = work / "table.csv"
    for op_id, op in enumerate(cycle):
        if tracer is not None:
            tracer.op_id = op_id
        seconds, code, out, err = _cli_call(wd.cli, sweep_argv(op, table))
        text = table.read_text(encoding="utf-8")
        failure = f"sweep returned {code}: {err[-300:]}" if code else \
            checks.check_sweep(op, load_doc(op.scenario), text, err)
        result.add(seconds, failure, text + out)
        result.rows += text.count("\n") - 1 - text.count("\n#")
        result.bytes_out += len(text.encode()) + len(out.encode())
        result.grid_points += op.points
    return result


def trajectory_pass(wd, cycle: list[inputs.SimulateOp], work: Path,
                    tracer: Tracer | None) -> PassResult:
    result = PassResult()
    table = work / "table.csv"
    for op_id, op in enumerate(cycle):
        if tracer is not None:
            tracer.op_id = op_id
        seconds, code, out, err = _cli_call(wd.cli, simulate_argv(op, table))
        text = table.read_text(encoding="utf-8")
        failure = f"simulate returned {code}: {err[-300:]}" if code else \
            checks.check_simulate(op, load_doc(op.scenario), text, out)
        result.add(seconds, failure, text + out)
        result.rows += op.rows
        result.bytes_out += len(text.encode()) + len(out.encode())
        result.rk4_steps += op.rows - 1
        if op.kind == "exponential":
            result.exp_steps = op.rows - 1
        if op.kind == "tabulated" and failure is None and tracer is None:
            result.tab_gap = _ode_vs_quad(wd, op, text)
    return result


def _ode_vs_quad(wd, op: inputs.SimulateOp, table: str) -> float:
    """Relative gap between RK4's final state and general_wellbeing."""
    last = [float(x) for x in table.rstrip("\n").rsplit("\n", 1)[1].split(",")]
    scenario = wd.scenario.load_scenario(op.scenario)
    p, q = scenario.income_pair()
    prm = scenario.params
    quad = wd.core.general_wellbeing(p, q, prm.a, prm.b, prm.B0, prm.t0, op.t_end)
    quad_star = wd.core.general_wellbeing(q, p, prm.a_star, prm.b_star, prm.B0_star,
                                          prm.t0, op.t_end)
    return max(abs(last[1] - quad) / quad, abs(last[2] - quad_star) / quad_star)


def library_pass(wd, items: list[dict], work: Path, tracer: Tracer | None) -> PassResult:
    result = PassResult()
    for op_id, item in enumerate(items):
        if tracer is not None:
            tracer.op_id = op_id
        series = inputs.write_series(item, work)
        start = time.perf_counter()
        try:
            out = library.run_item(item, series, wd)
        except Exception as exc:  # any exception fails this item, not the run
            out = {"error": f"{type(exc).__name__}: {exc}"}
        seconds = time.perf_counter() - start
        result.add(seconds, checks.check_item(item, out), json.dumps(out, sort_keys=True))
        if "error" not in out:
            result.accepted += out["ode"][2] + out.get("tab", [0, 0, 0])[2]
    return result


def _mean(spans: Spans, ids: list[int], scale: float, own: bool = False) -> float:
    return spans.total_ns(ids, own) / scale / len(ids) if ids else 0.0


US, MS, S = 1e3, 1e6, 1e9
INCOME_VALUE = tuple(f"dynamics.{cls}.value" for cls in INCOME_CLASSES)
INCOME_DERIVATIVE = tuple(f"dynamics.{cls}.derivative" for cls in INCOME_CLASSES)
TABULATED = ("dynamics.TabulatedIncome.value", "dynamics.TabulatedIncome.derivative")


def sweep_metrics(spans: Spans, res: PassResult) -> list[tuple]:
    load = spans.ids("scenario.load_scenario")
    with_param = spans.ids("scenario.with_param")
    ratio = spans.ids("core.ratio_analysis")
    classify = spans.ids("regime.classify")
    return [
        ("scenario.load_ms", _mean(spans, load, MS), "ms", len(load)),
        ("scenario.with_param_calls", len(with_param), "count", res.ops),
        ("scenario.with_param_us", _mean(spans, with_param, US), "us", len(with_param)),
        ("scenario.grid_points", res.grid_points, "count", res.ops),
        ("scenario.valid_ratio", res.rows / res.grid_points, "ratio", res.grid_points),
        ("core.ratio_analysis_per_row", len(ratio) / res.rows, "ratio", res.rows),
        ("core.ratio_analysis_us", _mean(spans, ratio, US), "us", len(ratio)),
        ("regime.classify_calls", len(classify), "count", res.ops),
        ("regime.classify_self_us", _mean(spans, classify, US, own=True), "us", len(classify)),
    ]


def trajectory_metrics(spans: Spans, res: PassResult) -> list[tuple]:
    closed = spans.ids("core.closed_form")
    rk4 = spans.ids("dynamics.rk4")
    tab = spans.ids(*TABULATED)
    grid = spans.ids("dynamics.time_grid")
    # Income calls inside RK4 on the exponential op (op 0), any depth:
    # derivative calls value there, which the seed counts as 18 + 8.
    marker = {"dynamics.rk4"}
    exp_calls = sum(1 for i in spans.ids(*INCOME_VALUE, *INCOME_DERIVATIVE)
                    if spans.tracer.op[i] == 0 and spans.enclosing(i, marker) >= 0)
    return [
        ("core.closed_form_calls", len(closed), "count", res.ops),
        ("core.closed_form_us", _mean(spans, closed, US), "us", len(closed)),
        ("dynamics.rk4_steps", res.rk4_steps, "count", len(rk4)),
        ("dynamics.rk4_us_per_step", spans.total_ns(rk4) / US / res.rk4_steps, "us",
         res.rk4_steps),
        ("dynamics.income_calls_per_step", exp_calls / res.exp_steps, "ratio", res.exp_steps),
        ("dynamics.tab_lookup_us", _mean(spans, tab, US), "us", len(tab)),
        ("dynamics.time_grid_ms", _mean(spans, grid, MS), "ms", len(grid)),
    ]


def library_metrics(spans: Spans, res: PassResult) -> list[tuple]:
    general = spans.ids("core.general_wellbeing")
    rkf45 = spans.ids("dynamics.rkf45")
    simpson = spans.ids("numerics.adaptive_simpson")
    in_simpson = set(simpson)
    parent = spans.tracer.parent
    evals = [i for i in spans.ids(*INCOME_VALUE) if parent[i] in in_simpson]
    scattered = [i for i in spans.ids("dynamics.TabulatedIncome.value") if parent[i] in in_simpson]
    marker = {"dynamics.rkf45"}
    derivs = sum(1 for i in spans.ids(*INCOME_DERIVATIVE) if spans.enclosing(i, marker) >= 0)
    # Each RKF45 attempt evaluates the right-hand side six times, and each
    # evaluation calls p.derivative and q.derivative once.
    rejected = derivs // 12 - res.accepted
    failed = sum(spans.tracer.failed[i] for i in simpson)
    read = spans.ids("calibration.read_income_series")
    fit = spans.ids("calibration.fit_growth_rate")
    return [
        ("core.general_wellbeing_calls", len(general), "count", res.ops),
        ("core.general_wellbeing_ms", _mean(spans, general, MS), "ms", len(general)),
        ("dynamics.rkf45_ms_per_run", _mean(spans, rkf45, MS), "ms", len(rkf45)),
        ("dynamics.rkf45_accepted", res.accepted, "count", len(rkf45)),
        ("dynamics.rkf45_rejected", rejected, "count", len(rkf45)),
        ("dynamics.tab_lookup_us_scattered", _mean(spans, scattered, US), "us", len(scattered)),
        ("numerics.simpson_calls", len(simpson), "count", res.ops),
        ("numerics.simpson_ms_per_call", _mean(spans, simpson, MS), "ms", len(simpson)),
        ("numerics.evals_per_call", len(evals) / 2 / len(simpson), "ratio", len(simpson)),
        ("numerics.failed_ratio", failed / len(simpson), "ratio", len(simpson)),
        ("calibration.read_series_us", _mean(spans, read, US), "us", len(read)),
        ("calibration.fit_us", _mean(spans, fit, US), "us", len(fit)),
    ]


def parse_importtime(text: str) -> tuple[float, dict[str, float]]:
    """(cumulative package import us, self us per package module)."""
    total, own = 0.0, {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        module = name.strip()
        if module == PACKAGE or module.startswith(PACKAGE + "."):
            own[module] = float(self_us)
            if name.startswith(" " + module):  # top level: not nested in another import
                total += float(cumulative_us)
    return total, own


def import_metrics(work: Path) -> list[tuple]:
    """Median import breakdown of wellbeing_dynamics.cli in fresh interpreters."""
    out, err = work / "import.out", work / "import.err"
    bare, totals, stdlib = [], [], []
    modules = {m: [] for m in ("core", "dynamics", "regime", "scenario", "calibration", "cli")}
    for _ in range(IMPORT_SAMPLES):
        bare.append(spawn([PYTHON, "-c", "pass"], out, err)[0])
        _, _, code = spawn([PYTHON, "-X", "importtime"] + IMPORT_CLI[1:], out, err)
        if code:
            raise SystemExit(f"importing {PACKAGE}.cli failed: {err.read_text()[-500:]}")
        total, own = parse_importtime(err.read_text())
        totals.append(total / US)
        stdlib.append((total - sum(own.values())) / US)
        for m, values in modules.items():
            values.append(own[f"{PACKAGE}.{m}"] / US)
    n = IMPORT_SAMPLES
    rows = [("import.interpreter_s", statistics.median(bare), "s", n),
            ("import.total_ms", statistics.median(totals), "ms", n)]
    rows += [(f"import.{m}_ms", statistics.median(v), "ms", n) for m, v in modules.items()]
    rows.append(("import.stdlib_ms", statistics.median(stdlib), "ms", n))
    return rows


def traced_run(seed: int, work: Path, out_dir: Path) -> dict:
    """Run the three traced passes; return the per-layer result object."""
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout's sources
    import wellbeing_dynamics as wd
    import wellbeing_dynamics.cli  # noqa: F401  (binds wd.cli)

    if not Path(wd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"{PACKAGE} was imported from {wd.__file__}, not from {SRC}")
    rows = import_metrics(work)
    passes = (
        ("sweep", sweep_pass, inputs.sweep_inputs(seed, work), sweep_metrics),
        ("trajectory", trajectory_pass, inputs.trajectory_inputs(seed, work), trajectory_metrics),
        ("library", library_pass,
         [inputs.library_item(seed, i) for i in range(LIBRARY_ITEMS)], library_metrics),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("spans_*.bin"):
        stale.unlink()
    failures: list[str] = []
    attempted = 0
    cli_self_ns = cli_calls = cli_rows = cli_bytes = 0
    for name, run_pass, pass_inputs, metrics in passes:
        plain = run_pass(wd, pass_inputs, work, None)
        tracer = Tracer()
        instrument(tracer, wd)
        try:
            traced = run_pass(wd, pass_inputs, work, tracer)
        finally:
            tracer.undo()
        attempted += plain.ops + traced.ops
        failures += plain.failures + traced.failures
        if plain.outputs != traced.outputs:
            failures.append(f"{name}: traced outputs differ from untraced ones")
        tracer.write(out_dir / f"spans_{name}.bin")
        spans = Spans(tracer)
        rows += metrics(spans, traced)
        rows.append((f"trace.overhead_{name}", traced.wall_s / plain.wall_s, "ratio", traced.ops))
        if name in ("sweep", "trajectory"):
            main = spans.ids("cli.main")
            cli_self_ns += spans.total_ns(main, own=True)
            cli_calls += len(main)
            cli_rows += traced.rows
            cli_bytes += traced.bytes_out
        if name == "trajectory":
            rows.append(("dynamics.tab_ode_vs_quad_rel", plain.tab_gap, "ratio", 1))
        del spans, tracer
    rows += [
        ("cli.self_s", cli_self_ns / S, "s", cli_calls),
        ("cli.us_per_row", cli_self_ns / US / cli_rows, "us", cli_rows),
        ("cli.bytes_out", cli_bytes, "bytes", cli_calls),
    ]
    table = {name: {"value": value, "unit": unit, "samples": samples}
             for name, value, unit, samples in rows}
    (out_dir / "layers.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    for name, value, unit, samples in rows:
        print(f"{name:36s} {value:14.6g} {unit:6s} n={samples}")
    for reason in failures[:5]:
        print(f"failed op: {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v["value"], "unit": v["unit"]} for name, v in table.items()},
    }
