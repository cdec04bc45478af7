"""What a fresh process imports: scipy only once something solves.

Each check runs in a child process, since pytest's warning filters
import ``scipy.sparse`` when the session starts.
"""

import json

import pytest

from edapt.cli import main

from helpers import run_python

LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


@pytest.mark.parametrize("module", ["edapt", "edapt.cli"])
def test_import_loads_no_scipy(module):
    out = run_python(["-c", f"import sys, {module}; print({LOADED_SCIPY})"])
    assert out.strip() == "[]"


def test_synth_and_predict_load_no_scipy(tmp_path, capsys):
    # the model is fitted here; the child only makes data and scores it
    assert main(["synth", "--seed", "3", "--out-dir", str(tmp_path / "d")]) == 0
    assert main(["fit", str(tmp_path / "d" / "manifest.txt"), "--seed", "3",
                 "--out-dir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    argv = [
        ["synth", "--seed", "4", "--out-dir", str(tmp_path / "d4")],
        ["predict", str(tmp_path / "run" / "model.json"),
         str(tmp_path / "d4" / "target_test_features.csv"),
         "--out-dir", str(tmp_path / "p")],
    ]
    code = ("import json, sys; from edapt.cli import main; "
            f"codes = [main(a) for a in json.loads({json.dumps(argv)!r})]; "
            f"print(json.dumps([codes, {LOADED_SCIPY}]))")
    codes, loaded = json.loads(run_python(["-c", code]).splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == []
    assert (tmp_path / "p" / "predicted_labels.csv").exists()


def test_the_first_solve_finds_every_blas_library():
    # the lookup imports scipy.linalg before it reads the process map,
    # so scipy's OpenBLAS is found though no solve has loaded it yet
    count = ("from edapt import linalg; import numpy as np; "
             "linalg.solve_spd(np.eye(2), np.ones(2)); "
             "print(len(linalg._blas_controls()))")
    lazy = run_python(["-c", count])
    eager = run_python(["-c", "import scipy.linalg; " + count])
    assert lazy == eager
