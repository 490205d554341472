"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests

The traced-workload tests run each workload once, in this process, with
the tracer installed (about a minute on 2 CPUs).
"""

import json
from pathlib import Path

import pytest

import gate
import metrics
import session
import tracing
from workloads import WORKLOADS, config_names, config_text, write_configs

ROOT = Path(__file__).resolve().parents[2]

# Per-layer metrics that must be nonzero on the workload whose reason for
# being says it does that work; a zero here means a missed rebinding.
DOES_THE_WORK = {
    "spectral-1d": (
        "solver.solve_duhamel.calls", "solver.solve_duhamel.self_s",
        "solver.weak_residual_profile.calls", "solver.save_report.self_s",
        "oracle.fd_solve.self_s", "oracle.lu_factorizations",
        "oracle.mc_solve.self_s", "oracle.char_function_check.self_s",
        "estimates.weighted_norm.calls", "estimates.epsilon_sweep.self_s",
        "spectral.fft_calls", "cli.oracle-compare.s", "cli.eps-sweep.s",
        "cli.check-classic.s",
    ),
    "matrix-2d": (
        "quadrature.integrate_to.calls", "quadrature.integrate_to.self_s",
        "quadrature.integrand_points", "degeneracy.integrand_s",
        "degeneracy.accumulate_path.calls", "degeneracy.accumulate_path.s",
        "spectral.fft_calls", "spectral.fft_points",
        "spectral.fft_bytes_computed", "spectral.hessian_lp_norm.calls",
        "spectral.hessian_lp_norm.self_s", "spectral.besov_norm.self_s",
        "spectral.bessel_norm.self_s", "estimates.check_kernel_decay.self_s",
        "estimates.weighted_norm.self_s", "cli.kernel-decay.s",
    ),
    "levelset-1d": (
        "quadrature.integrate_to.calls", "quadrature.errors",
        "degeneracy.inverse_cumulative.calls", "degeneracy.inverse_cumulative.s",
        "degeneracy.cumulative_delta.calls",
        "degeneracy.levelset_measure_scan.s",
        "degeneracy.cumulative_delta_grid.s",
        "solver.solve_homogeneous.self_s", "solver.propagator_symbol.calls",
        "solver.weak_residual_profile.self_s", "cli.profile-check.s",
        "cli.check-thm2.s", "cli.edge-probe.s",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_are_deterministic_in_the_seed(name):
    workload = WORKLOADS[name]
    degparab = session.import_degparab()
    for config in config_names(workload):
        text = config_text(workload, 7, config)
        assert text == config_text(workload, 7, config)
        other = config_text(workload, 8, config)
        changed = [(a, b) for a, b in zip(text.splitlines(),
                                          other.splitlines()) if a != b]
        assert changed == [("seed = 7", "seed = 8")]
        cfg = degparab.cli.parse_config(text)
        assert cfg.seed == 7
        assert degparab.cli.validate_config(cfg) == []


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(n, u, "lower") for n, u, _ in metrics.PER_LAYER]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"]
                                              for m in spec["end_to_end"])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """{workload: (tracer, op rows)} from one traced session of each."""
    degparab = session.import_degparab()
    out = {}
    for name, workload in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        write_configs(work, workload, 0)
        tracer = tracing.Tracer()
        with tracer.installed():
            _, rows = session.run_session(degparab.cli, work, workload, tracer)
        out[name] = (tracer, rows)
    return out


def test_tracer_unbinds_every_wrapper(traced):
    import degparab
    from degparab import cli, estimates, quadrature
    assert cli.RUNNERS["solve"] is cli.run_solve
    assert cli.run_solve.__module__ == "degparab.cli"
    assert not hasattr(cli.run_solve, "__wrapped__")
    assert not hasattr(estimates.check_thm1, "__wrapped__")
    assert not hasattr(degparab.integrate_to, "__wrapped__")
    assert degparab.integrate_to is quadrature.integrate_to


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_partition_each_operation(traced, name):
    tracer, rows = traced[name]
    selfs = tracer.self_times()
    roots = [(i, s) for i, s in enumerate(tracer.spans) if s[3] == -1]
    assert [s[0] for _, s in roots] == [f"cli.{r['op']}" for r in rows]
    for i, root in roots:
        wall = root[2] - root[1]
        covered = sum(selfs[j] for j, s in enumerate(tracer.spans)
                      if s[4] == root[4])
        assert covered == pytest.approx(wall, rel=1e-9, abs=1e-9)
    # the per-layer self times plus cli.self_s make up the same walls
    m = tracer.metrics()
    layer_total = sum(m.get(f"{layer}.self_s", 0.0)
                      for layer in tracing.LAYERS)
    assert layer_total == pytest.approx(
        sum(r[2] - r[1] for _, r in roots), rel=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_metrics_are_nonzero_where_the_work_is(traced, name):
    tracer, _ = traced[name]
    m = tracer.metrics()
    missing = [k for k in DOES_THE_WORK[name] if not m.get(k)]
    assert missing == []


def test_each_workload_spends_its_time_where_it_claims(traced):
    def share(name, *keys):
        tracer, rows = traced[name]
        m = tracer.metrics()
        return sum(m.get(k, 0.0) for k in keys) / sum(r["s"] for r in rows)

    assert share("spectral-1d", "solver.solve_duhamel.self_s") > 0.5
    assert share("matrix-2d", "quadrature.integrate_to.self_s",
                 "degeneracy.integrand_s") > 0.5
    assert share("levelset-1d", "solver.solve_duhamel.self_s") < 0.01


def test_spectral_workload_does_no_quadrature(traced):
    m = traced["spectral-1d"][0].metrics()
    assert m.get("quadrature.integrand_points", 0) == 0
    assert m.get("quadrature.integrate_to.calls", 0) == 0


def test_every_per_layer_metric_is_produced(traced):
    produced = set()
    for tracer, _ in traced.values():
        produced |= set(tracer.metrics())
    computed_by_run = {"cli.output_bytes", "trace.overhead_s"}
    assert [n for n, _, _ in metrics.PER_LAYER
            if n not in produced | computed_by_run] == []


def test_workload_outcomes_at_this_commit(traced):
    for name, (_, rows) in traced.items():
        codes = {r["op"]: r["code"] for r in rows}
        expected = {op.name: 0 for op in WORKLOADS[name].ops}
        if name == "levelset-1d":
            expected["edge-probe"] = 1  # the known quadrature-budget defect
        assert codes == expected


def _write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + "\n" + "".join(
        ",".join(map(str, r)) + "\n" for r in rows))


def test_gate_compares_relative_to_column_scale(tmp_path):
    _write_csv(tmp_path / "a" / "op" / "x.csv", "k,mass,seed,label",
               [(0, 1.0, 5, "p"), (1, 1e-300, 5, "q")])
    _write_csv(tmp_path / "b" / "op" / "x.csv", "k,mass,seed,label",
               [(0, 1.0, 6, "p"), (1, 1e-300, 6, "q")])
    ref = gate.make_reference(gate.read_outputs(tmp_path / "a"),
                              gate.read_outputs(tmp_path / "b"), 5)
    cols = ref["outputs"]["op/x.csv"]
    assert set(cols) == {"k", "mass", "seed"}
    assert cols["seed"]["seed_dependent"] and not cols["mass"]["seed_dependent"]

    out = tmp_path / "run"
    _write_csv(out / "op" / "x.csv", "k,mass,seed,label",
               [(0, 1.0 + 1e-13, 9, "p"), (1, 3e-300, 9, "z")])
    assert gate.check(out, "op", ref, seed=9, rtol=1e-12) == []
    problems = gate.check(out, "op", ref, seed=5, rtol=1e-12)
    assert len(problems) == 1 and "column seed" in problems[0]
    _write_csv(out / "op" / "x.csv", "k,mass,seed,label",
               [(0, 1.0 + 1e-9, 9, "p"), (1, 0.0, 9, "z")])
    problems = gate.check(out, "op", ref, seed=9, rtol=1e-12)
    assert len(problems) == 1 and "column mass row 0" in problems[0]
    (out / "op" / "x.csv").unlink()
    assert gate.check(out, "op", ref, seed=9, rtol=1e-12) == \
        ["op/x.csv: missing"]


def test_judge_separates_failures_from_wrong_outputs(tmp_path):
    workload = WORKLOADS["levelset-1d"]
    _write_csv(tmp_path / "out" / "profile-check" / "p.csv", "h", [(1.0,)])
    reference = {"seed": 0, "outputs": {
        "profile-check/p.csv": {"h": {"seed_dependent": False,
                                      "values": [2.0]}},
        "solve/report/norms.csv": {"k": {"seed_dependent": False,
                                         "values": [0.0]}}}}
    rows = [{"op": "check-thm2", "code": 2, "stderr": []},
            {"op": "edge-probe", "code": 1, "stderr": ["QuadratureError"]},
            {"op": "solve", "code": 0, "stderr": []},
            {"op": "profile-check", "code": 0, "stderr": []}]
    session.judge(rows, tmp_path, workload, reference, 0)
    assert [(r["failed"], r["wrong"]) for r in rows] == \
        [(True, False), (True, False), (True, True), (True, True)]
    rows = [{"op": "check-thm2", "code": None, "stderr": []}]
    session.judge(rows, tmp_path, workload, None, 0)
    assert (rows[0]["failed"], rows[0]["wrong"]) == (True, True)
