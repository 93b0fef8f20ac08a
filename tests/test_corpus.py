"""The exact output of every corpus config, pinned by digest.

``tests/corpus`` holds every ``STRUCTURED_CFGS`` config and every config
that the tier-1 workflow writes; ``tests/record_corpus.py`` records the
digests of their ``ergolab run`` output in both formats.  A change that
keeps every answer leaves every digest as it is.
"""

import json
import re
from pathlib import Path

import pytest

from record_corpus import CORPUS, DIGESTS, FORMATS, configs, run_digest
from test_harness import STRUCTURED_CFGS

WORKFLOW = (Path(__file__).resolve().parent.parent / ".github" / "workflows"
            / "tier1.yml")

#: printf 'FORMAT' ["$var" ...] [| cat BASE.cfg -] > NAME.cfg
_PRINTF = re.compile(r"printf '([^']*)'((?: \"\$\w+\")*)"
                     r"(?: \| cat (\S+)\.cfg -)? > (\S+)\.cfg$")
#: sed 's/OLD/NEW/' BASE.cfg > NAME.cfg
_SED = re.compile(r"sed 's/([^/]*)/([^/]*)/' (\S+)\.cfg > (\S+)\.cfg$")
#: var=$(printf '%0Nd' 0), a run of N zeros
_ZEROS = re.compile(r"(\w+)=\$\(printf '%0(\d+)d' 0\)$")


def workflow_configs() -> dict[str, str]:
    """Every config the workflow writes, by file stem, as the shell would
    write it."""
    found, zeros = {}, {}
    for line in WORKFLOW.read_text().splitlines():
        line = line.strip()
        if m := _ZEROS.match(line):
            zeros[m[1]] = "0" * int(m[2])
        elif m := _PRINTF.search(line):
            text = m[1].replace("\\n", "\n")
            names = re.findall(r"\$(\w+)", m[2])
            if names:
                text %= tuple(zeros[name] for name in names)
            found[m[4]] = (found[m[3]] if m[3] else "") + text
        elif m := _SED.search(line):
            found[m[4]] = found[m[3]].replace(m[1], m[2], 1)
    return found


def _digests() -> dict:
    return json.loads(DIGESTS.read_text())


def test_corpus_holds_every_structured_config():
    for name, text in STRUCTURED_CFGS.items():
        assert (CORPUS / f"harness-{name}.cfg").read_text() == text, name


def test_corpus_holds_every_workflow_config():
    written = workflow_configs()
    # the configs made with printf, with cat and with sed
    assert {"golden", "golden-budget", "golden-100", "value-over",
            "kakutani-verify"} <= set(written)
    for name, text in written.items():
        assert (CORPUS / f"ci-{name}.cfg").read_text() == text, name


def test_every_corpus_config_has_its_digests():
    names = {f"harness-{name}" for name in STRUCTURED_CFGS}
    names |= {f"ci-{name}" for name in workflow_configs()}
    assert {path.stem for path in configs()} == names
    assert set(_digests()) == names
    assert all(set(entry) == set(FORMATS) for entry in _digests().values())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("path", configs(), ids=lambda path: path.stem)
def test_output_matches_its_digest(path, fmt):
    assert run_digest(path, fmt) == _digests()[path.stem][fmt]
