#!/usr/bin/env python
"""Regenerate the per-target golden kernel sources under tests/goldens/.

Run after an *intentional* emitter change:

    PYTHONPATH=src python tools/update_goldens.py

then review the diff — every changed golden is a changed emitted kernel.
Persisted kernel stores need no action: ``code_version_stamp`` hashes
every source file of the package, so any emitter change already makes
their entries miss.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from repro.core.codegen import get_target, list_targets  # noqa: E402
from tests.golden_cases import GOLDEN_CASES, golden_plan  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    written = 0
    for case in GOLDEN_CASES:
        plan = golden_plan(case)
        for name in list_targets():
            target = get_target(name)
            path = GOLDEN_DIR / f"{case}__{name}{target.source_suffix}"
            path.write_text(target.emit_kernel(plan))
            written += 1
            print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")
    print(f"{written} goldens")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
