"""The traced benchmark run (perfbench/tracing.py) wraps kortorus functions
by module attribute name; a rename would stop it before any result.  This
builds its tracer in a fresh process and checks that every name resolves.
perfbench/ is only read."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import json, tracing
tracer = tracing.Tracer()
tracer.install_spans()
print(json.dumps(tracer.missing))
"""


def test_traced_benchmark_resolves_every_wrapped_name():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
