"""The public API: what `cvsat.__all__` exports.

ROADMAP aim 2 states the public-name count; this test pins it, so a PR that
adds or drops a public name updates both in the same change.
"""

import cvsat

PUBLIC_NAMES = 46


def test_all_has_no_duplicates():
    assert len(set(cvsat.__all__)) == len(cvsat.__all__)


def test_every_name_resolves():
    missing = [name for name in cvsat.__all__ if not hasattr(cvsat, name)]
    assert missing == []


def test_public_name_count():
    assert len(cvsat.__all__) == PUBLIC_NAMES
