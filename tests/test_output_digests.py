"""The digest script's entries are stable: one run twice gives one digest;
and its comparison with a saved object names each entry that moved, and
says how far its recorded values moved."""

import math
import re

from output_digests import (
    column_digests,
    column_entries,
    differences,
    relative_change,
    sha256,
    verify,
)


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


def test_column_entries_record_each_columns_ends_and_extremes_beside_its_digest():
    entries = column_entries("run", "a,b\n1.0,2.0\n3.0,-4.0\n0.5,2.5\n", "monitor.csv")
    assert entries == {
        "run/monitor.csv#a": {"sha256": sha256(b"1.0\n3.0\n0.5"),
                              "first": 1.0, "last": 0.5, "min": 0.5, "max": 3.0},
        "run/monitor.csv#b": {"sha256": sha256(b"2.0\n-4.0\n2.5"),
                              "first": 2.0, "last": 2.5, "min": -4.0, "max": 2.5}}


def test_relative_change_of_equal_zero_and_nonfinite_values():
    assert relative_change(1.5, 1.5) == 0.0
    assert relative_change(math.nan, math.nan) == 0.0
    assert relative_change(-3.0, -2.0) == 0.5
    assert relative_change(1e-300, 0.0) == math.inf
    assert relative_change(1.0, math.nan) == relative_change(math.inf, 1.0) == math.inf


def test_differences_add_the_largest_relative_change_of_the_recorded_values():
    saved = {"c": {"sha256": "1", "first": 2.0, "last": 4.0}, "d": "x",
             "e": {"sha256": "3", "first": 1.0}}
    run = {"c": {"sha256": "2", "first": 2.0, "last": 5.0}, "d": "y",
           "e": {"sha256": "3", "first": 1.0}}
    assert differences(run, saved) == ["differs: c (largest relative change 0.25)",
                                       "differs: d"]
