"""Every script in demos/ and README's library quick start run to the end
(in-process, output discarded)."""

import contextlib
import io
import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            assert exc.code in (None, 0)
    assert out.getvalue()


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library quick start'"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), "README.md", "exec"), {"__name__": "__main__"})
    assert out.getvalue()
