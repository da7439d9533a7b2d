import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ebhess
from ebhess.errors import BadConfig, BadDimension, DimensionMismatch, UnknownGallery


def test_every_exported_name_resolves_once():
    names = ebhess.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ebhess, name) is not None, name


def test_readme_quick_tour_runs():
    # The first ```python block of README.md, run as printed.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["err"] <= 1e-9
    assert scope["state"].converged.all()


def test_import_leaves_out_the_modules_of_other_paths():
    # A fresh interpreter: `import ebhess` loads neither scipy's sparse solvers,
    # nor exact rationals, nor the thread pool; a banded operator (sparse LU)
    # then loads the first.
    code = (
        "import sys, ebhess\n"
        "lazy = ('scipy.sparse.linalg', 'fractions', 'concurrent.futures.thread')\n"
        "print([name for name in lazy if name in sys.modules])\n"
        "ebhess.gallery(ebhess.GallerySpec('tridiag_scaled', 10))\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = str(Path(ebhess.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split("\n")[:2] == ["[]", "True"]


def _identity_residual(X):
    return ebhess.residual_direct(ebhess.FactorizedOperator.identity(4), np.ones((4, 2)), 0.0, X)


@pytest.mark.parametrize("call, error", [
    (lambda: ebhess.gallery(ebhess.GallerySpec(None, 5)), UnknownGallery),
    (lambda: ebhess.gallery(ebhess.GallerySpec("tridiag_scaled", "5")), BadDimension),
    (lambda: ebhess.gallery(ebhess.GallerySpec("tridiag_scaled", 5.5)), BadDimension),
    (lambda: ebhess.FunctionSpec.laurent({1.5: 2.0}), BadConfig),
    (lambda: ebhess.FunctionSpec.laurent({"a": 1}), BadConfig),
    (lambda: _identity_residual(np.ones((4, 3))), DimensionMismatch),
    (lambda: _identity_residual(np.ones((4, 1))), DimensionMismatch),
], ids=["gallery-name-none", "gallery-size-str", "gallery-size-float", "laurent-power-float",
        "laurent-power-str", "residual-wider-X", "residual-narrower-X"])
def test_bad_public_input_is_typed(call, error):
    with pytest.raises(error):
        call()
