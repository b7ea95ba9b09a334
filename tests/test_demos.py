import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demos write their CSV files to the working directory; a warning fails
    # them, as it fails the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _quick_start():
    """The README's "Library quick start" code block."""
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S).group(1)


def _values(text):
    return text.replace("[", " ").replace("]", " ").replace(",", " ").split()


def test_readme_quick_start_prints_what_its_comments_say(tmp_path):
    """The quick start runs under -W error, and each print gives the values its comment names.

    A comment lists the printed values up to its first "(": x... is a value
    that starts with x, ~x one within 1e-12 of x, anything else the printed
    text itself.
    """
    code = _quick_start()
    expected = [_values(line.split("#", 1)[1].split("(")[0]) for line in code.splitlines() if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    printed = [_values(line) for line in proc.stdout.splitlines()]
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        assert len(got) == len(want), (got, want)
        for value, comment in zip(got, want):
            if comment.endswith("..."):
                assert value.startswith(comment[:-3]), (value, comment)
            elif comment.startswith("~"):
                assert abs(float(value) - float(comment[1:])) <= 1e-12, (value, comment)
            else:
                assert value == comment
