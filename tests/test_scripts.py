"""Smoke tests: the sweep and ordering scripts run end to end at --n 16
and exit 0, and compare_levels.py finds no move against its own tree."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(tmp_path, script, *args):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["NLSS_THREADS"] = "1"
    env["TMPDIR"] = str(scratch)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--n", "16", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, scratch


def test_run_beta_sweep(tmp_path):
    _, scratch = _run(tmp_path, "run_beta_sweep.py", "--steps", "2", "--to", "2", "--out", "out")
    assert (tmp_path / "out" / "sweep.csv").is_file()
    assert (tmp_path / "out" / "sweep.svg").is_file()
    assert list(scratch.iterdir()) == []  # the temporary config is removed


def test_verify_orderings(tmp_path):
    proc, _ = _run(tmp_path, "verify_orderings.py", "--betas", "0.5,2")
    assert "partial" not in proc.stdout
    assert len(proc.stdout.strip().splitlines()) == 4  # title, header, two betas


def test_compare_levels_against_its_own_tree(tmp_path):
    # the tree against itself: nothing moves and every verdict matches
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "compare_levels.py"), ROOT,
         "--workload", "resonant-1d", "--seed", "1000"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "resonant-1d seed 1000: e_est 0, c_prime 0, c_sem 0, beta_hat1 0, beta_hat2 0, "
        "S_prime 0, minimizer_angle 0"
    )
    assert lines[-1] == "all verdicts identical"
    # the tracked size of src/nlss, the sum of `wc -l src/nlss/*.py`, and
    # next to it that of tests/*.py
    for label, parts in (("src/nlss", ("src", "nlss")), ("tests", ("tests",))):
        n = 0
        folder = os.path.join(ROOT, *parts)
        for name in os.listdir(folder):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    n += fh.read().count(b"\n")
        assert f"{label} lines: {n} here, {n} in the parent" in lines
    assert list(tmp_path.iterdir()) == []  # the run directories are removed


def test_compare_levels_byte_compares_a_sweep_across_pool_sizes(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "compare_levels.py"), ROOT,
         "--workload", "indefinite-sweep", "--seed", "1000"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1:3] == [
        "  artifacts against the parent: sweep.csv identical, sweep.svg identical",
        "  artifacts at NLSS_THREADS=2 against 1: sweep.csv identical, sweep.svg identical",
    ]
    assert lines[-2:] == ["all artifacts byte-identical", "all verdicts identical"]
