"""The exact output of every corpus config, pinned by digest.

``tests/corpus`` is the one home of every config that tier-1 or the
tier-1 workflow pins: the tests and the workflow name a config by its
path and keep no copy of its text.  ``tests/record_corpus.py`` records the
digests of their ``ergolab run`` output in both formats.  A change that
keeps every answer leaves every digest as it is.
"""

import json
import re
from pathlib import Path

import pytest

from record_corpus import CORPUS, DIGESTS, FORMATS, configs, run_digest

WORKFLOW = (Path(__file__).resolve().parent.parent / ".github" / "workflows"
            / "tier1.yml")


def _digests() -> dict:
    return json.loads(DIGESTS.read_text())


def test_workflow_reads_every_ci_config():
    text = WORKFLOW.read_text()
    named = set(re.findall(r"tests/corpus/(\S+?\.cfg)", text))
    assert all((CORPUS / name).is_file() for name in named)
    assert {path.name for path in CORPUS.glob("ci-*.cfg")} <= named
    # a config is read from the corpus, never written by a step
    assert not re.search(r">\s*\S+\.cfg", text)


def test_no_two_corpus_configs_are_equal():
    texts = [path.read_text() for path in configs()]
    assert len(set(texts)) == len(texts)


def test_every_corpus_config_has_its_digests():
    assert set(_digests()) == {path.stem for path in configs()}
    assert all(set(entry) == set(FORMATS) for entry in _digests().values())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("path", configs(), ids=lambda path: path.stem)
def test_output_matches_its_digest(path, fmt):
    assert run_digest(path, fmt) == _digests()[path.stem][fmt]
