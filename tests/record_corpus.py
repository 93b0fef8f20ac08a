"""Run every config of the output corpus and record its digests.

``tests/corpus/*.cfg`` is the one home of each config whose exact output
tier-1 pins: ``.github/workflows/tier1.yml`` runs each ``ci-<name>.cfg``,
``harness-<name>.cfg`` is one of the ``STRUCTURED_CFGS`` of
``tests/test_harness.py``, and ``readme-<name>.cfg`` is an example that
README.md quotes an outcome of.  The workflow and the tests name a config
by its path and keep no copy of its text.

A digest is the sha256 of what ``ergolab run --config FILE --format FMT``
writes to stdout and stderr and of its exit code, with the lines that
carry the version stamp left out, since the stamp depends on how ergolab
is installed.

    PYTHONPATH=src python tests/record_corpus.py

rewrites ``tests/corpus/digests.json``, one entry per config and format.
To pin a new config, drop its file into ``tests/corpus`` and run the
script: every existing entry comes out unchanged.  A change that means to
keep every answer re-records nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from ergolab import cli

CORPUS = Path(__file__).resolve().parent / "corpus"
DIGESTS = CORPUS / "digests.json"
FORMATS = ("csv", "structured")


def configs() -> list[Path]:
    return sorted(CORPUS.glob("*.cfg"))


def run_digest(path: Path, fmt: str) -> str:
    """The digest of ``ergolab run --config path --format fmt``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(path), "--format", fmt])
    stdout = "".join(line for line in out.getvalue().splitlines(True)
                     if "artifact_version" not in line)
    body = json.dumps([stdout, err.getvalue(), code])
    return hashlib.sha256(body.encode()).hexdigest()


def record() -> dict:
    return {path.stem: {fmt: run_digest(path, fmt) for fmt in FORMATS}
            for path in configs()}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
