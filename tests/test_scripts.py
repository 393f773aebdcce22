"""Smoke tests: the sweep and ordering scripts run end to end at --n 16
and exit 0, and compare_levels.py finds no move against its own tree."""

import importlib.util
import os
import subprocess
import sys
import tempfile

import pytest

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
    # the work counts of both runs: fiber_max on k = 1 and k = 2 charts, the
    # evaluations of their ascents and sphere_descent, nonzero and the same
    # for the same tree
    label = ("  work at NLSS_THREADS=1 "
             "(fiber_max k=1, fiber_max k=2, ascent_evals, sphere_descent): ")
    work = [line[len(label):] for line in lines if line.startswith(label)]
    assert len(work) == 1
    here, parent = work[0].split("; ")
    assert here.startswith("here ") and parent.startswith("parent ")
    counts = here[len("here "):]
    assert counts == parent[len("parent "):]
    assert all(int(c) > 0 for c in counts.split(", "))
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


@pytest.mark.parametrize("differs, rc", [("threads", 1), ("parent", 0)])
def test_compare_levels_fails_on_thread_count_drift(tmp_path, monkeypatch, capsys, differs, rc):
    # artifacts that change with NLSS_THREADS fail the comparison; artifacts
    # that differ from the parent's are only reported
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = os.path.join(ROOT, "scripts", "compare_levels.py")
    spec = importlib.util.spec_from_file_location("compare_levels", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    def fake_run(root, argv, out_dir, threads="1"):
        # the same levels and verdicts, artifacts marked by the side named
        side = {"threads": threads, "parent": root}[differs]
        for name in ("sweep.csv", "sweep.svg", "work_counts.json"):
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write("{}" if name.endswith(".json") else side)
        return []

    monkeypatch.setattr(mod, "run_nlss", fake_run)
    monkeypatch.setattr(sys, "argv", [path, "parent", "--workload", "indefinite-sweep",
                                      "--seed", "1000"])
    assert mod.main() == rc
    lines = capsys.readouterr().out.splitlines()
    same = "sweep.csv identical, sweep.svg identical"
    other = "sweep.csv differs, sweep.svg differs"
    assert lines[1:3] == [
        f"  artifacts against the parent: {same if differs == 'threads' else other}",
        f"  artifacts at NLSS_THREADS=2 against 1: {other if differs == 'threads' else same}",
    ]
    drift = "a sweep's artifacts differ between NLSS_THREADS=1 and 2"
    assert (drift in lines) == (differs == "threads")
    assert lines[-1] == "all verdicts identical"
