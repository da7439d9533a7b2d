from pathlib import Path

import ebhess


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
    assert scope["res"].relative_error <= 1e-9
    assert scope["state"].converged.all()
