"""``repro.reporting`` stands apart from the static analyzer.

Every experiment driver, example and bench script imports
``format_table``; before the results modules left ``repro.analysis``
that import loaded the whole analyzer and lint suite.  The check runs
in a fresh interpreter so modules imported by other tests cannot mask
a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro.reporting

PROBE = (
    "import json, sys\n"
    "import repro.reporting\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)


def test_reporting_imports_no_analyzer_or_lint_module():
    # Import the same checkout the test process imported.
    src_root = Path(repro.reporting.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(src_root)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    loaded = json.loads(done.stdout)
    assert "repro.reporting" in loaded
    leaked = [
        name
        for name in loaded
        if name in ("repro.analysis", "repro.lint")
        or name.startswith(("repro.analysis.", "repro.lint."))
    ]
    assert leaked == []

