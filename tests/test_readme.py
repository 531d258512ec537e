"""README.md matches the code: its python examples run as written, and
its table of key entry points names only what ``fsjet`` exports.

The ```python blocks run in order in one namespace, as a reader would
paste them into one interpreter, and every ``print(...)  # shown`` comment
must be a line that its block prints.
"""

import contextlib
import io
import re
from pathlib import Path

import fsjet

README = Path(__file__).resolve().parent.parent / "README.md"

BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
SHOWN = re.compile(r"^\s*print\(.*\)\s+# (.+)$")


def test_readme_python_blocks_run_in_order():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 4
    namespace = {}
    for i, code in enumerate(blocks):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, f"README.md python block {i + 1}", "exec"), namespace)
        printed = [line.strip() for line in out.getvalue().splitlines()]
        for line in code.splitlines():
            shown = SHOWN.match(line)
            if shown:
                assert shown.group(1).strip() in printed, (i + 1, line, printed)


def test_key_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    table = text.split("Key entry points:", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row)]
    assert len(rows) >= 8 and len(names) >= 20
    missing = [name for name in names if not hasattr(fsjet, name)]
    assert not missing, missing
