"""Importing the package stays light: no scipy, which would add about 0.4 s
and 33 MB of resident memory to every process that imports it."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy():
    code = ("import sys\n"
            "import tamecoh\n"
            "from tamecoh import algebra, cohomology, families, field, fixtures, lie, resolution\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
