"""The reference tree of `tools/reference_outputs.py` against its committed digest: "same bytes" as a test.

`reference_digest.txt` has one line per file that the tool writes (sweep tables, steady-state
text, error messages, validate summaries and JSON, and the configs they ran): its path, its
sha256, and short hashes of its first 64 lines one by one and of each 64 lines after them.
Its header names the platform that the bytes rest on: Python, numpy, the libc and numpy's
dispatched CPU features, as ``conftest.py`` prints them.  On any other platform, where glibc's
``pow``, LAPACK or numpy's loops may round otherwise, the test skips and names both platforms;
a digest written there still compares two source trees on that platform.  A change that alters
outputs on purpose regenerates the digest in the same commit, and says which files changed and
why:

    PYTHONPATH=src python3 tools/reference_outputs.py --digest src tests/reference_digest.txt

On a mismatch a test names every changed, added and removed file, and where the first
changed table first differs: the line and its new text within its first 64 lines, else the
64 lines that hold it, which the tool run on both source trees and ``diff -r`` then show.

Tier-1 writes the tree without ``validate`` at seeds 1-10, which would add about 10 s; the whole
tree, those seeds included, runs under the ``reference_seeds`` marker:

    PYTHONPATH=src python -m pytest -m reference_seeds tests/test_reference_digest.py
"""
from pathlib import Path

import pytest
import reference_outputs as tool  # tools/, which conftest.py puts on the path

from oemsim.cli import main

DIGEST = Path(__file__).resolve().parent / "reference_digest.txt"


def _mismatches(expected: dict, actual: dict, tree: Path) -> list[str]:
    """What differs between two digests, as lines: every file, then where the first table differs."""
    sha = {path: entry.split(" ")[0] for path, entry in expected.items()}
    changed = sorted(path for path in sha.keys() & actual.keys() if not actual[path].startswith(sha[path]))
    lines = [f"changed: {path}" for path in changed]
    lines += [f"added: {path}" for path in sorted(actual.keys() - expected.keys())]
    lines += [f"removed: {path}" for path in sorted(expected.keys() - actual.keys())]
    if changed:
        first = min(changed, key=lambda path: (not path.startswith("table-"), path))
        at = tool.first_changed_lines(expected[first], actual[first])
        if len(at) == 1:
            text = (tree / first).read_text(encoding="utf-8").splitlines()
            now = repr(text[at.start]) if at.start < len(text) else "past its end"
            lines.append(f"{first} first differs at line {at.start + 1}, which now reads {now}")
        else:
            lines.append(f"{first} first differs in lines {at.start + 1}-{at.stop}")
    return lines


def _check_tree(tree: Path, seeds: tuple[str, ...]) -> None:
    """Write the tree with ``validate`` at ``seeds`` and compare it with the digest's files of those cases."""
    header, expected = tool.read_digest(DIGEST.read_text(encoding="utf-8"))
    if header != tool.platform_lines():
        pytest.skip(f"digest written on {header}, this platform is {tool.platform_lines()}")
    left_out = {f"validate-{seed}" for seed in tool.VALIDATE_SEEDS if seed not in seeds}
    expected = {path: entry for path, entry in expected.items() if path.rsplit(".", 1)[0] not in left_out}
    tool.write_tree(tree, main, seeds)
    mismatches = _mismatches(expected, tool.digest(tree), tree)
    assert not mismatches, "reference outputs differ from the digest:\n" + "\n".join(mismatches)


def test_reference_outputs_match_the_digest(tmp_path):
    _check_tree(tmp_path, tool.VALIDATE_SEEDS[:1])


@pytest.mark.reference_seeds
def test_whole_reference_tree_matches_the_digest(tmp_path):
    _check_tree(tmp_path, tool.VALIDATE_SEEDS)
