"""Record the golden corpus's digests into ``tests/golden/digests.json``.

Run from anywhere, with the checkout's ``src`` imported:

    python tests/golden/record.py

Re-record only in a change that means to alter the program's output, and
say in CHANGES which invocations changed and why; ``tests/test_golden.py``
checks every other change against the committed file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden.corpus import DIGEST_FILE, digests  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        recorded = digests(Path(workdir))
    DIGEST_FILE.write_text(json.dumps(recorded, indent=0) + "\n", encoding="utf-8")
    print(f"{len(recorded)} digests written to {DIGEST_FILE}")


if __name__ == "__main__":
    main()
