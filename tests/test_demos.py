"""The demos run to completion, and the README's library sketch imports exactly
the names the package root exports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gestrec

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_feature_extraction.py", "02_hand_kinematics.py",
                                  "03_train_classifier.py", "04_loocv_benchmark.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_sketch_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    imports = [node for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), {})
    # the package root exports exactly what the sketch imports, so no name
    # has a second import path
    sketch = {alias.name for node in imports if isinstance(node, ast.ImportFrom)
              and node.module == "gestrec" for alias in node.names}
    assert set(gestrec.__all__) == sketch
