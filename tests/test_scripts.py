"""The runnable script in scripts/, run as a user would run it."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_convergence_prints_both_trajectories():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_convergence.py"),
         "--n-hidden", "20", "--max-iter", "3"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    single = lines.index("single view")
    multi = lines.index("two views (second = noise features)")
    assert single < multi
    assert 1 <= multi - single - 1 <= 3
    assert all("objective" in ln for ln in lines[single + 1:multi])
    rounds = lines[multi + 1:]
    assert 1 <= len(rounds) <= 3
    assert all("objective" in ln and "weights" in ln for ln in rounds)
