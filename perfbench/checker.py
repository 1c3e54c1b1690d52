"""Output checks for benchmark ops.

An op fails when its exit code is non-zero, its ``--json`` output does not
parse, chi differs from the number of maximal cones, its graded
dimensions differ from the oracle or are not palindromic, its class does
not start with the constant term ``1``, or (for a seed with committed
digests) its (class, dims, chi) digest differs from the one recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["DIGEST_FILE", "check_output", "parse_output", "output_digest", "load_digests"]

DIGEST_FILE = Path(__file__).resolve().parent / "digests_seed0.json"
DIGEST_SEED = 0


def output_digest(csm: str | None, dims, euler) -> str:
    """sha256 of the rendered class, the graded dimensions and chi."""
    payload = json.dumps([csm, None if dims is None else list(dims), euler], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_digests(workload: str, seed: int) -> list[str] | None:
    """Committed per-fan digests for ``workload`` at the digest seed, else None."""
    if seed != DIGEST_SEED or not DIGEST_FILE.is_file():
        return None
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8")).get(workload)


def parse_output(case, stdout: str):
    """(csm, dims, euler) from one op's JSON output; raises ValueError."""
    data = json.loads(stdout)
    if not isinstance(data, dict):
        raise ValueError("JSON output is not an object")
    euler = data.get("euler")
    if case.command == "euler":
        return None, None, euler
    try:
        dims = tuple(data["presentation"]["graded_dimensions"])
        max_cones = data["fan"]["max_cones"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"JSON report lacks {exc}") from exc
    if max_cones != case.max_cones:
        raise ValueError(f"report has {max_cones} maximal cones, generator wrote {case.max_cones}")
    return data.get("csm"), dims, euler


def check_output(case, rc: int, stdout: str, digest: str | None = None) -> str | None:
    """Why the op on ``case`` failed, or None when its output is right."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        csm, dims, euler = parse_output(case, stdout)
    except ValueError as exc:
        return f"bad JSON output: {exc}"
    if euler != case.max_cones:
        return f"chi {euler!r} differs from {case.max_cones} maximal cones"
    if case.command == "csm":
        if dims != case.dims:
            return f"graded dimensions {dims} differ from oracle {case.dims}"
        if dims != dims[::-1]:
            return f"graded dimensions {dims} are not palindromic"
        if not isinstance(csm, str) or not (csm == "1" or csm.startswith("1 ")):
            return f"class does not start with the constant term 1: {str(csm)[:40]!r}"
    if digest is not None and output_digest(csm, dims, euler) != digest:
        return "output digest differs from the recorded one"
    return None
