import pathlib
import re

import numpy as np
import pytest

import brightpath


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted raises here.
    for name in brightpath.__all__:
        getattr(brightpath, name)


def test_every_readme_python_block_runs(capsys):
    # The worked examples run as written, each block in a fresh namespace.
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    # The gate example prints its distance and its phase, the trajectory
    # example its distance.
    printed = capsys.readouterr().out.split()
    assert float(printed[1]) == pytest.approx(-np.pi / 3)
    assert float(printed[0]) < 1e-12 and float(printed[2]) < 1e-12
