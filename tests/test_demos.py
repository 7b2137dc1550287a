"""Every demo script, and every Python block of README.md, runs to completion
in a scratch working directory."""

import re
import runpy
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((_ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (_ROOT / "README.md").read_text(),
                           flags=re.S | re.M)


def test_demos_found():
    assert len(DEMOS) == 7


def test_readme_python_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
