"""The demos and the benchmark's span tracer still run against the package.

Both reach the package only through module and function names, so a
rename inside `src/` would break them without failing any other test.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEMOS = os.path.join(ROOT, "demos")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _run(argv, path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    proc = _run([os.path.join(DEMOS, demo)], [SRC])
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_installs():
    # Tracer.install() wraps every name in spans.TARGETS and fails on a missing one
    code = "import workloads, spans; spans.Tracer().install(); print('installed')"
    proc = _run(["-c", code], [SRC, PERFBENCH])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
