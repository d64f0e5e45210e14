"""numpy is the only runtime dependency: importing the package and its command
line pulls in nothing else outside the standard library."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import lahja, lahja.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_pulls_in_only_stdlib_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    imported = json.loads(result.stdout)
    assert "lahja.cli" in imported and "numpy" in imported
    top_level = {name.split(".")[0] for name in imported}
    # Dunder aliases such as __mp_main__ name modules, not packages.
    foreign = sorted(
        name
        for name in top_level
        if not (name.startswith("__") and name.endswith("__"))
        and name not in sys.stdlib_module_names
        and name not in ("numpy", "lahja")
    )
    assert not foreign, f"importing lahja pulls in non-stdlib modules: {foreign}"
