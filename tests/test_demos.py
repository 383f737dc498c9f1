"""Every narrative script in demos/ runs to the end and prints its pinned text.

`demos/expected/<name>.txt` holds each demo's stdout; the demos are
deterministic, so any difference is a change in what the library computes
or renders.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(ROOT.glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue() == (ROOT / "expected" / f"{path.stem}.txt").read_text()
