"""numpy is the package's only runtime dependency."""

import subprocess
import sys
from pathlib import Path

import ferhead


def test_imports_load_no_scipy():
    """scipy is installed here but not declared, so nothing may import it."""
    code = (
        "import sys; import ferhead, ferhead.cli, ferhead.verification; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    src = str(Path(ferhead.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
