"""Record the seed-0 output digests that later runs must match bit for bit.

    python3 perfbench/record_digests.py

Runs every seed-0 fan of every workload once through ``toriccsm.cli.main``,
checks each output against the oracle and writes ``digests_seed0.json``
beside this file: for each workload, the sha256 of (rendered class, graded
dimensions, chi) of each fan in generation order.  Re-record only when the
program's output is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checker
import workloads
from run import ROOT, SRC, call_main, fresh_import


def main() -> int:
    sys.path.insert(0, str(SRC))
    tc = fresh_import()
    digests = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name in workloads.WORKLOADS:
            files = Path(workdir) / name
            cases = [c for rnd in workloads.generate(tc, name, checker.DIGEST_SEED, files) for c in rnd]
            out = []
            for case in cases:
                rc, stdout = call_main(tc, case.argv(files))
                why = checker.check_output(case, rc, stdout)
                if why:
                    print(f"{name} {case.file} {case.spec}: {why}", file=sys.stderr)
                    return 1
                out.append(checker.output_digest(*checker.parse_output(case, stdout)))
            digests[name] = out
            print(f"{name}: {len(out)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checker.DIGEST_FILE.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
