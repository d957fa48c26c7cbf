"""The benchmark tracer (``perfbench/tracer.py``) still hooks the library.

The tracer wraps library functions by name and reads their arguments, so a
renamed function or a changed signature would silently zero its metrics or
break only traced benchmark runs. The tracer rebinds module attributes, so
it runs in a fresh interpreter, which writes no bytecode into ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.Tracer()
t.install()
t.current_op = 0
from dyckpeaks import cfrac, gfcount, paths, verify
gfcount.stat_gf(paths.StatKind.PEAK, 2, 1, 20)
paths.count_exact_dp(12, 2, 1, paths.StatKind.VALLEY)
cfrac.peak_bivar_cfrac(2, 20, 3)
verify.run_verify(n_max=5, k_max=2, r_max=2, order=8)
print(json.dumps(tracer.summarize([t.record()], 1.0)))
"""


def traced_metrics(script: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tracer_reports_every_layer_hook():
    metrics = traced_metrics(SCRIPT)
    for name in (
        "cfrac.levels",
        "paths.dp.steps",
        "series.mul.coeff_ops",
        "series.reciprocal.coeff_ops",
        "series.bivar.self_s",
        "verify.build_tables_s",
    ):
        assert metrics[name] > 0, name


# The CLI imports verify and cfrac inside their commands, after the tracer
# is installed: the names it binds there must be the traced ones.
CLI_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.Tracer()
t.install()
t.current_op = 0
from dyckpeaks import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--n-max", "5", "--k-max", "2", "--r-max", "2", "--order", "8"])
assert code == 0, code
print(json.dumps(tracer.summarize([t.record()], 1.0)))
"""


def test_tracer_sees_the_layers_the_cli_imports_in_its_commands():
    metrics = traced_metrics(CLI_SCRIPT)
    assert metrics["verify.section.bijection_s"] > 0
    assert metrics["cfrac.levels"] > 0
