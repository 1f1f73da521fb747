"""The digest script's entries are stable: one run twice gives one digest;
and its comparison with a saved object names each entry that moved."""

import re

from output_digests import column_digests, differences, sha256, verify


def test_verify_digest_strips_the_elapsed_times():
    first, second = verify(0), verify(0)
    assert list(first) == ["verify/seed0"]
    assert re.fullmatch("[0-9a-f]{64}", first["verify/seed0"])
    # whatever the two runs' elapsed= times, their digests agree
    assert first == second


def test_column_digests_name_each_column_of_a_csv():
    digests = column_digests("run", "a,b\n1.0,2.0\n3.0,4.0\n")
    assert digests == {"run/functionals.csv#a": sha256(b"1.0\n3.0"),
                       "run/functionals.csv#b": sha256(b"2.0\n4.0")}


def test_differences_name_each_changed_missing_and_new_entry():
    saved = {"a": "1", "b": "2", "c": "3"}
    assert differences(dict(saved), saved) == []
    run = {"a": "1", "b": "9", "d": "4"}
    assert differences(run, saved) == ["differs: b", "missing: c", "new: d"]
