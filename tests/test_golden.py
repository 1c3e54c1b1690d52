"""Aim 2's bit-identity contract as a test: every invocation of the golden
corpus (``tests/golden/corpus.py``) gives the exit code, stdout and stderr
whose digest ``tests/golden/record.py`` recorded."""

import json

from golden.corpus import DIGEST_FILE, digests


def test_golden_corpus_output_is_unchanged(tmp_path):
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert list(got) == list(recorded), "the corpus differs from the recorded one; re-record it"
    changed = [key for key, value in recorded.items() if got[key] != value]
    shown = "\n".join(f"  toric-csm {key}" for key in changed[:20])
    assert not changed, f"{len(changed)} invocations changed their output:\n{shown}"
