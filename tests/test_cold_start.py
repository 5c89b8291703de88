"""Which SciPy submodules a fresh process loads.

``import bathkit`` loads no SciPy; each subcommand loads only the submodules
its numerics call, and those that neither integrate nor fit load none.
Every case runs in a new interpreter, since a module once imported stays in
``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

import bathkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bathkit.__file__)))

PROBE = """\
import contextlib, importlib, io, json, sys
importlib.import_module(sys.argv[2])
argv = json.loads(sys.argv[1])
if argv:
    import bathkit.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = bathkit.cli.main(argv)
    if code != 0:
        sys.exit(f"bathkit {argv[0]} exited {code}")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

SERIES_CSV = "re_p,im_p,re_omega,im_omega\n1.0,0.0,-1.0,0.0\n"

SPECS = {
    "gldd": "family = gldd\nterm.1 = 1.0, 1.0\n",
    "mt": "family = mt\nterm.1 = 1.0, 1.0, 1.0\n",
    "powerlaw": "family = powerlaw\namplitude = 1.0\nexponent = 1.0\n"
                "cutoff = 2.0\n",
    "tabulated": "family = tabulated\nfile = table.csv\n",
}


def scipy_modules(argv, cwd, module="bathkit.cli"):
    """The sorted ``scipy`` modules loaded after ``import module`` and
    ``main(argv)`` in a fresh interpreter (after the import alone for an
    empty ``argv``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv),
                           module],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "series.csv").write_text(SERIES_CSV)
    (tmp_path / "table.csv").write_text("w,j\n0,0\n1,1\n2,0.5\n4,0\n")
    for name, density in SPECS.items():
        (tmp_path / f"{name}.ini").write_text(
            f"[thermal]\nbeta = 1.0\n\n[spectral_density]\n{density}")
    return tmp_path


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules([], tmp_path) == []


def test_pade_import_loads_no_scipy(tmp_path):
    assert scipy_modules([], tmp_path, module="bathkit.pade") == []


@pytest.mark.parametrize("argv", [
    ["eta", "--series", "series.csv", "--dt", "0.5", "--steps", "4",
     "--splitting", "trotter", "--quapi", "--lambda-value", "1.0"],
    ["eta", "--series", "series.csv", "--dt", "0.5", "--steps", "4",
     "--splitting", "strang", "--quapi", "--lambda-value", "1.0"],
    ["jw", "--series", "series.csv", "--wmax", "4", "--points", "9",
     "--beta", "1.0"],
    ["lambda", "--spec", "gldd.ini"],
    ["lambda", "--spec", "mt.ini"],
    ["lambda", "--spec", "powerlaw.ini"],
    ["lambda", "--spec", "tabulated.ini"],
    ["alpha", "--spec", "powerlaw.ini", "--method", "closed", "--tmax", "2",
     "--points", "5"],
    ["pade", "--stat", "be", "--order", "4"],
], ids=["eta_trotter", "eta_strang", "jw", "lambda_gldd", "lambda_mt",
        "lambda_powerlaw", "lambda_tabulated", "alpha_closed", "pade"])
def test_command_loads_no_scipy(argv, inputs):
    assert scipy_modules(argv, inputs) == []
