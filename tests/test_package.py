import os
import subprocess
import sys
from pathlib import Path

import ocagen


def test_all_names_resolve():
    # `from ocagen import *` fails on a stale entry
    assert len(ocagen.__all__) == len(set(ocagen.__all__))
    missing = [name for name in ocagen.__all__ if not hasattr(ocagen, name)]
    assert missing == []
    namespace = {}
    exec("from ocagen import *", namespace)
    assert set(ocagen.__all__) <= set(namespace)


def test_cli_import_stays_light():
    # Every run pays for the import, and dataclasses and inspect are slow to load.
    # -S keeps site hooks from loading modules on ocagen's behalf.
    src = str(Path(ocagen.__file__).resolve().parents[1])
    code = "import sys, ocagen.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
