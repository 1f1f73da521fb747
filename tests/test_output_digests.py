"""The digest script's entries are stable: one run twice gives one digest."""

import re

from output_digests import verify


def test_verify_digest_strips_the_elapsed_times():
    first, second = verify(0), verify(0)
    assert list(first) == ["verify/seed0"]
    assert re.fullmatch("[0-9a-f]{64}", first["verify/seed0"])
    # whatever the two runs' elapsed= times, their digests agree
    assert first == second
