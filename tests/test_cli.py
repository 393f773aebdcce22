import csv
import dataclasses
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from nlss import cli as cli_mod
from nlss import levels as levels_mod
from nlss import scalar as scalar_mod
from nlss.cli import CSV_HEADER, _csv_line, _num, _prepare, _row, _sweep_values, main
from nlss.config import SweepSpec, load_config, parse_config
from nlss.errors import ConfigError, NoConvergence
from nlss.functional import SystemParams
from nlss.grids import DomainSpec
from nlss.levels import assemble_report
from nlss.options import SolverOptions

BASE = {
    "domain": {"kind": "interval", "lengths": [3.141592653589793], "n": 24},
    "tau_mode": "lambda1",
    "params": {"tau1": 0.0, "tau2": 0.0, "mu1": 1.0, "mu2": 1.0, "beta": 1.0},
    "solver": {"seed": 7, "extra_seeds": 2},
    "output": {"dir": "."},
}


def _write_cfg(tmp_path, name="cfg.json", **over):
    raw = json.loads(json.dumps(BASE))
    for section, vals in over.items():
        if isinstance(vals, dict):
            raw.setdefault(section, {}).update(vals)
        else:
            raw[section] = vals
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_solve_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["t12"]["status"] == "pass"
    assert rep["lambda1"] > 0
    csv = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 2
    cells = csv[1].split(",")
    assert cells[0] == ""  # no sweep parameter on a single solve
    assert float(cells[7]) > 0  # c_prime


@pytest.mark.parametrize("beta, applies", [(0.5, "t12"), (8.0, "t13")])
def test_report_json_lists_the_verdicts_in_order(tmp_path, beta, applies):
    # report.json is compared byte for byte between versions: its verdicts
    # stay in the order t11, t12, t13 whichever resonant statement applies
    cfg = _write_cfg(tmp_path, params={"beta": beta})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    verdicts = json.loads((tmp_path / "report.json").read_text())["verdicts"]
    assert list(verdicts) == ["t11", "t12", "t13"]
    assert verdicts[applies]["status"] == "pass"


def test_thresholds_prints_values(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["thresholds", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    vals = {ln.split("=")[0].strip(): float(ln.split("=")[1]) for ln in lines}
    assert vals["beta_hat_1"] == pytest.approx(vals["beta_hat_2"], rel=1e-6)
    assert vals["Lambda"] == pytest.approx(max(vals["beta_hat_1"], vals["beta_hat_2"]))


def test_thresholds_json_schema(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["thresholds", "--config", cfg, "--json"]) == 0
    th = json.loads(capsys.readouterr().out)
    for key in ("beta_hat_1", "beta_hat_2", "lambda_cap", "three_sqrt", "mu_max"):
        assert isinstance(th[key], float)
    assert th["three_sqrt"] == pytest.approx(3.0)


def test_thresholds_reports_a_solver_failure(tmp_path, capsys):
    # one Newton iteration per restart: no scalar ground state converges,
    # and the command says so on stderr and exits 2, as solve does
    cfg = _write_cfg(tmp_path, domain={"n": 32}, solver={"max_iter": 1, "restarts": 1})
    assert main(["thresholds", "--config", cfg]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("solver failure [thresholds]: no scalar restart converged")


def test_a_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    # these ended in a TypeError traceback or were read as a list of pairs;
    # now both commands exit 1 with one line that names the section
    for section in ("solver", "output"):
        for value in (3, None, "ab", [["seed", 5]]):
            cfg = _write_cfg(tmp_path, **{section: value})
            for command in ("solve", "thresholds"):
                assert main([command, "--config", cfg]) == 1
                err = capsys.readouterr().err
                assert err == f"error: {section} must be a JSON object\n"
    # and so from the command line, without a traceback
    cfg = _write_cfg(tmp_path, solver=3)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "nlss.cli", "thresholds", "--config", cfg],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: solver must be a JSON object\n"


def _run_sweep(tmp_path, threads, sub):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / sub)
    os.environ["NLSS_THREADS"] = threads
    try:
        rc = main(
            ["sweep", "--config", cfg, "--out", out,
             "--vary", "beta", "--from", "0.5", "--to", "2.0", "--steps", "4"]
        )
    finally:
        del os.environ["NLSS_THREADS"]
    assert rc == 0
    return (tmp_path / sub / "sweep.csv").read_bytes(), (
        tmp_path / sub / "sweep.svg"
    ).read_bytes()


def test_sweep_deterministic_across_pool_sizes(tmp_path, monkeypatch):
    csv1, svg1 = _run_sweep(tmp_path, "1", "serial")
    for threads in ("2", "3"):
        assert _run_sweep(tmp_path, threads, f"workers{threads}") == (csv1, svg1)
    # without os.fork every point runs in this process
    monkeypatch.delattr(os, "fork")
    assert _run_sweep(tmp_path, "3", "nofork") == (csv1, svg1)
    lines = csv1.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert [float(r.split(",")[0]) for r in lines[1:]] == [0.5, 1.0, 1.5, 2.0]
    assert b"<svg" in svg1


def test_exit_code_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, params={"beta": -1.0})
    assert main(["solve", "--config", cfg]) == 1
    assert "beta must be > 0" in capsys.readouterr().err


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_bad_sweep(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    rc = main(
        ["sweep", "--config", cfg, "--vary", "beta",
         "--from", "0.5", "--to", "2.0", "--steps", "1"]
    )
    assert rc == 1
    assert "steps >= 2" in capsys.readouterr().err


def test_unknown_key_is_named(tmp_path):
    cfg = _write_cfg(tmp_path, solver={"sneed": 3})
    with pytest.raises(ConfigError, match="solver.sneed"):
        load_config(cfg)


def test_missing_key_is_named():
    raw = json.loads(json.dumps(BASE))
    del raw["params"]["mu2"]
    with pytest.raises(ConfigError, match="params.mu2"):
        parse_config(raw)


def test_seed_validation():
    # integers are not truncated, nor read from true; tolerances are finite
    # and positive; parameters and lengths are finite numbers, not true or
    # strings; the smallest valid counts stay valid
    raw = json.loads(json.dumps(BASE))
    raw["solver"].update(restarts=1, extra_seeds=0)
    assert parse_config(raw).solver.restarts == 1
    bad = [
        ("solver", "seed", -1),
        ("solver", "seed", 1.5),
        ("solver", "seed", True),
        ("domain", "n", 128.9),
        ("domain", "n", 2),
        ("solver", "max_iter", 2.7),
        ("solver", "max_iter", True),
        ("solver", "max_iter", -5),
        ("solver", "restarts", 0),
        ("solver", "extra_seeds", -3),
        ("params", "beta", float("nan")),
        ("params", "beta", True),
        ("params", "tau1", float("nan")),
        ("params", "mu1", float("inf")),
        ("params", "tau2", "2.5"),
        ("domain", "lengths", [float("nan")]),
        ("domain", "lengths", [float("inf")]),
        ("domain", "lengths", 3.0),
        ("output", "dir", None),
        ("output", "dir", 5),
        ("output", "dir", ["a"]),
    ]
    for section, key, value in bad:
        case = json.loads(json.dumps(raw))
        case[section][key] = value
        with pytest.raises(ConfigError, match=key):
            parse_config(case)
    # the sphere descents and the Newton runs stop at fixed tolerances: no
    # key sets them
    for key in ("tol_sphere", "tol_newton"):
        case = json.loads(json.dumps(raw))
        case["solver"][key] = 1e-8
        with pytest.raises(ConfigError, match=f"unknown config key: solver.{key}"):
            parse_config(case)
    # a section that is not a JSON object is named, not read as one
    for section in ("solver", "output"):
        for value in (3, None, "ab", [["seed", 5]]):
            case = json.loads(json.dumps(raw))
            case[section] = value
            with pytest.raises(ConfigError, match=f"^{section} must be a JSON object"):
                parse_config(case)


def test_every_dataclass_field_is_a_config_key():
    # each field of the three section types is read from the key of its
    # name; a value of another JSON type, or out of the field's range, is
    # an error naming the key
    wrong_type = {str: 5, int: 2.5, float: "2.5", tuple[float, ...]: 3.0}
    out_of_range = {
        "kind": "disk", "lengths": [-1.0], "n": 2, "mu1": 0.0, "mu2": -1.0,
        "beta": 0.0, "max_iter": 0, "restarts": 0, "extra_seeds": -1, "seed": 2**64,
    }
    values = {"max_iter": 7, "restarts": 2, "extra_seeds": 0, "seed": 2**64 - 1}
    fields = 0
    for section, cls in (("domain", DomainSpec), ("params", SystemParams), ("solver", SolverOptions)):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            fields += 1
            case = json.loads(json.dumps(BASE))
            value = case[section].get(f.name, values.get(f.name))
            case[section][f.name] = value
            read = getattr(getattr(parse_config(case), section), f.name)
            assert read == (tuple(value) if isinstance(value, list) else value)
            bad = [wrong_type[hints[f.name]], True, None]
            if f.name in out_of_range:
                bad.append(out_of_range[f.name])
            for value in bad:
                case[section][f.name] = value
                with pytest.raises(ConfigError, match=f.name):
                    parse_config(case)
    assert fields == 12
    for kwargs in ({"max_iter": 0}, {"seed": -1}):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec("gamma", 0.0, 1.0, 4)
    with pytest.raises(ConfigError):
        SweepSpec("beta", 2.0, 1.0, 4)
    with pytest.raises(ConfigError):
        SweepSpec("beta", -1.0, 1.0, 4, scale="log")
    spec = SweepSpec("beta", 0.5, 2.0, 4, scale="log")
    assert spec.steps == 4


@pytest.mark.parametrize("scale", ["log", "linear"])
@pytest.mark.parametrize("stop", [8.0, 3.0])
def test_sweep_values_hit_both_ends(scale, stop):
    # exp(log a + (log b - log a)) is 7.999999999999998 for b = 8 and
    # 2.9999999999999996 for b = 3, inside the t12 regime
    vals = _sweep_values(SweepSpec("beta", 0.5, stop, 6, scale=scale))
    assert len(vals) == 6
    assert vals[0] == 0.5 and vals[-1] == stop
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_import_leaves_scipy_optimize_out():
    # no module of nlss needs scipy.optimize
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, nlss, nlss.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_sparse_out():
    # Newton factors its band Jacobian with LAPACK's dgbsv: no module of
    # nlss needs SciPy's sparse stack
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys, nlss, nlss.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _run_python(code):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_out():
    # the LAPACK wrappers are loaded from their file, not through scipy.linalg;
    # the modules that draw random numbers import numpy.random themselves
    code = (
        "import sys, nlss, nlss.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
        " 'numpy.random' in sys.modules)"
    )
    assert _run_python(code) == "[] True"


def test_solve_imports_nothing_after_setup(tmp_path):
    # set-up as the benchmark's operation does it: config, grid, spectrum;
    # the timed solve must then import no numpy, scipy or nlss module
    cfg = _write_cfg(tmp_path)
    code = (
        "import sys\n"
        "from nlss import cli, config, grids, spectral\n"
        f"cfg = config.load_config({cfg!r})\n"
        "spectral.get_spectrum(grids.build_grid(cfg.domain))\n"
        "before = set(sys.modules)\n"
        f"assert cli.main(['solve', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new if m.split('.')[0] in ('numpy', 'scipy', 'nlss')))"
    )
    assert _run_python(code) == "[]"


def _count_scalar_solves(monkeypatch):
    calls = []
    solve = scalar_mod.solve_scalar_ground

    def counted(tau, mu, *args, **kwargs):
        calls.append(tau)
        return solve(tau, mu, *args, **kwargs)

    monkeypatch.setattr(scalar_mod, "solve_scalar_ground", counted)
    return calls


def test_beta_sweep_solves_scalar_stage_once(tmp_path, monkeypatch):
    cfg_path = _write_cfg(tmp_path, domain={"n": 32})
    monkeypatch.setenv("NLSS_THREADS", "1")
    calls = _count_scalar_solves(monkeypatch)
    loads = []

    def counted_load(path):
        loads.append(path)
        return load_config(path)

    monkeypatch.setattr(cli_mod, "load_config", counted_load)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", cfg_path, "--out", str(out),
               "--vary", "beta", "--from", "0.5", "--to", "2.0", "--steps", "3"])
    assert rc == 0
    assert len(calls) == 1
    assert len(loads) == 1  # the points get the parsed config
    # the same rows as reports that each solve their own scalar stage with
    # the point's seed
    cfg = load_config(cfg_path)
    lines = [CSV_HEADER]
    for i, beta in enumerate(_sweep_values(SweepSpec("beta", 0.5, 2.0, 3))):
        g, s, p = _prepare(cfg)
        p = dataclasses.replace(p, beta=beta)
        rep = assemble_report(p, g, s, dataclasses.replace(cfg.solver, seed=cfg.solver.seed ^ i))
        lines.append(_csv_line(_row(beta, rep)))
    assert (out / "sweep.csv").read_text() == "\n".join(lines) + "\n"


def test_beta_sweep_computes_thresholds_once(tmp_path, monkeypatch):
    # beta_hat and Lambda do not depend on beta: one compute_thresholds per
    # beta sweep, from the shared ground states; a mu sweep keeps one per
    # point
    cfg_path = _write_cfg(tmp_path, domain={"n": 32})
    monkeypatch.setenv("NLSS_THREADS", "1")
    calls = []
    plain = levels_mod.compute_thresholds

    def counted(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "compute_thresholds", counted)
    monkeypatch.setattr(levels_mod, "compute_thresholds", counted)
    for vary, steps in (("beta", 3), ("mu1", 2)):
        calls.clear()
        rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / vary),
                   "--vary", vary, "--from", "0.5", "--to", "2.0", "--steps", str(steps)])
        assert rc == 0
        assert len(calls) == (1 if vary == "beta" else steps)


def test_default_pool_follows_the_affinity_mask(tmp_path, monkeypatch):
    # without NLSS_THREADS there is one worker per CPU this process may run
    # on: pinned to one CPU of 64, the points run in this process
    cfg = _write_cfg(tmp_path, domain={"n": 16})
    monkeypatch.delenv("NLSS_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_fork():
        raise AssertionError("a sweep worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
               "--vary", "beta", "--from", "0.5", "--to", "2.0", "--steps", "2"])
    assert rc == 0


def _record_forks(monkeypatch):
    """Record each os.fork call (the children are real); returns the record."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_explicit_pool_is_capped_at_the_sweep_points(tmp_path, monkeypatch):
    # NLSS_THREADS = 64 on a 2-point sweep gets 2 workers, this process and
    # one forked child, not 64
    cfg = _write_cfg(tmp_path, domain={"n": 16})
    monkeypatch.setenv("NLSS_THREADS", "64")
    forks = _record_forks(monkeypatch)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
               "--vary", "beta", "--from", "0.5", "--to", "2.0", "--steps", "2"])
    assert rc == 0
    assert forks == [1]


def test_non_integer_threads_is_a_config_error(tmp_path, monkeypatch, capsys):
    cfg = _write_cfg(tmp_path, domain={"n": 16})
    monkeypatch.setenv("NLSS_THREADS", "2.5")
    forks = _record_forks(monkeypatch)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
               "--vary", "beta", "--from", "0.5", "--to", "2.0", "--steps", "2"])
    assert rc == 1
    assert "NLSS_THREADS" in capsys.readouterr().err
    assert forks == []
    with pytest.raises(ConfigError, match="NLSS_THREADS"):
        cli_mod.cmd_sweep(cfg, SweepSpec("beta", 0.5, 2.0, 2), str(tmp_path / "out"))


@pytest.mark.parametrize("bad, message", [
    (1, r"sweep point 1 failed in a forked worker:\n(.|\n)*RuntimeError: boom"),
    (0, r"^boom$"),
])
def test_a_point_that_raises_fails_the_sweep_and_leaves_no_child(
    tmp_path, monkeypatch, bad, message
):
    # at NLSS_THREADS 2 point 1 runs in a forked child and point 0 here; an
    # error that is no NlssError (so no failed row) ends the sweep, naming
    # the child's point, and every child is reaped, also where this process
    # raises while its child still runs
    cfg = _write_cfg(tmp_path, domain={"n": 16})
    monkeypatch.setenv("NLSS_THREADS", "2")
    betas = _sweep_values(SweepSpec("beta", 0.5, 2.0, 2))
    plain = cli_mod.assemble_report

    def failing(p, *args, **kwargs):
        if p.beta == betas[bad]:
            raise RuntimeError("boom")
        return plain(p, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "assemble_report", failing)
    with pytest.raises(RuntimeError, match=message):
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
              "--vary", "beta", "--from", "0.5", "--to", "2.0", "--steps", "2"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_invalid_sweep_point_is_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    # a point that fails SystemParams: exit 1 before the output directory
    # and the shared ground states
    cfg = _write_cfg(tmp_path, domain={"n": 16})
    calls = []
    monkeypatch.setattr(cli_mod, "pair_grounds", lambda *args: calls.append(args))
    out = tmp_path / "out"
    for start, stop, message in [
        ("-1", "1", "beta must be > 0"),
        ("0.5", "inf", "beta must be finite"),
        ("0.5", "1e400", "beta must be finite"),  # parses as inf
    ]:
        rc = main(["sweep", "--config", cfg, "--out", str(out),
                   "--vary", "beta", "--from", start, "--to", stop, "--steps", "3"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert calls == []


def test_a_failed_point_of_a_lambda1_sweep_shows_the_snapped_tau(tmp_path, monkeypatch, capsys):
    # the config's tau1 = tau2 = 0 are snapped to lambda1 at every point,
    # the one whose report raises included
    cfg = _write_cfg(tmp_path, domain={"n": 16})
    monkeypatch.setenv("NLSS_THREADS", "1")
    plain = cli_mod.assemble_report

    def failing(p, *args, **kwargs):
        if p.beta == 1.25:
            raise NoConvergence("no luck")
        return plain(p, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "assemble_report", failing)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", cfg, "--out", str(out),
               "--vary", "beta", "--from", "0.5", "--to", "2.0", "--steps", "3"])
    assert rc == 2
    assert capsys.readouterr().err == "point 1 (beta=1.25): no luck\n"
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    lam1 = _num(_prepare(load_config(cfg))[1].lambda1())
    assert float(lam1) > 0.99
    assert [(r["tau1"], r["tau2"]) for r in rows] == [(lam1, lam1)] * 3
    assert rows[1]["e_est"] == "" and rows[1]["verdict_t11"] == ""
    assert rows[0]["e_est"] != "" and rows[2]["e_est"] != ""


def test_mu_sweep_solves_scalar_stage_once(tmp_path, monkeypatch):
    # the scalar ground states scale exactly with mu: one solve at mu = 1
    cfg_path = _write_cfg(
        tmp_path,
        domain={"n": 32},
        tau_mode="explicit",
        params={"tau1": 2.5, "tau2": 2.5},
        solver={"max_iter": 60, "restarts": 3, "extra_seeds": 1},
    )
    monkeypatch.setenv("NLSS_THREADS", "1")
    calls = _count_scalar_solves(monkeypatch)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", cfg_path, "--out", str(out),
               "--vary", "mu1", "--from", "0.5", "--to", "2.0", "--steps", "4"])
    assert rc == 0
    assert calls == [2.5]
    # the same rows as reports that each solve their own scalar stage
    cfg = load_config(cfg_path)
    lines = [CSV_HEADER]
    for i, mu1 in enumerate(_sweep_values(SweepSpec("mu1", 0.5, 2.0, 4))):
        g, s, p = _prepare(cfg)
        p = dataclasses.replace(p, mu1=mu1)
        rep = assemble_report(p, g, s, dataclasses.replace(cfg.solver, seed=cfg.solver.seed ^ i))
        lines.append(_csv_line(_row(mu1, rep)))
    assert (out / "sweep.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("vary", ["tau1", "tau2"])
def test_tau_sweep_needs_explicit_tau(tmp_path, capsys, vary):
    # tau_mode lambda1 snaps both taus to lambda1 at every point
    cfg = _write_cfg(tmp_path, domain={"n": 16})
    out = tmp_path / "out"
    rc = main(["sweep", "--config", cfg, "--out", str(out),
               "--vary", vary, "--from", "0.5", "--to", "3", "--steps", "3"])
    assert rc == 1
    assert f"--vary {vary} needs tau_mode explicit" in capsys.readouterr().err
    assert not out.exists()


def test_explicit_tau_sweep_solves_scalar_stage_per_point(tmp_path, monkeypatch):
    cfg = _write_cfg(
        tmp_path,
        domain={"n": 16},
        tau_mode="explicit",
        params={"tau1": 2.5, "tau2": 2.5},
        solver={"max_iter": 60, "restarts": 3, "extra_seeds": 1},
    )
    monkeypatch.setenv("NLSS_THREADS", "1")
    calls = _count_scalar_solves(monkeypatch)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", cfg, "--out", str(out),
               "--vary", "tau1", "--from", "2.0", "--to", "2.5", "--steps", "2"])
    assert rc == 0
    # tau1 = 2.0 != tau2 needs two solves, tau1 = tau2 = 2.5 one
    assert calls == [2.0, 2.5, 2.5]
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[4]) for r in rows] == [2.0, 2.5]
