"""``python tests/report_hashes.py --check`` names, for each stored golden
report that differs, the first JSON path at which it differs."""

import report_hashes


def test_first_difference_names_the_first_path_in_key_order():
    stored = {"exit_status": 0, "stages": {"normal_form": {"chain_residual": 1e-15,
                                                           "conditions": [1, 2]}}}
    assert report_hashes.first_difference(stored, stored) is None
    moved = {"exit_status": 0, "stages": {"normal_form": {"chain_residual": 2e-16,
                                                          "conditions": [1, 3]}}}
    assert report_hashes.first_difference(stored, moved) == "stages.normal_form.chain_residual"
    moved["stages"]["normal_form"]["chain_residual"] = 1e-15
    assert report_hashes.first_difference(stored, moved) == "stages.normal_form.conditions[1]"


def test_first_difference_of_a_missing_key_or_a_resized_list_is_its_path():
    assert report_hashes.first_difference({"a": 1}, {"a": 1, "b": 2}) == "b"
    assert report_hashes.first_difference({"a": [1]}, {"a": [1, 2]}) == "a"
    assert report_hashes.first_difference({"a": 1}, {"a": 1.0}) == "a"
