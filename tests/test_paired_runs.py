"""The paired-run summary of tools/paired_runs.py: quartiles, wins and the
claim rule (every change run correct, no larger failure share, wins in
>= 9/10 of pairs and a median gap wider than the parent's interquartile
range)."""

import pytest

from tools.paired_runs import failure_share, format_table, quartiles, summarize


def _result(metrics, correct=True, attempted=100, failed=0):
    """One run as perfbench/run.py prints it."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v} for name, v in metrics.items()},
    }


def _runs(name, values):
    return [_result({name: v}) for v in values]


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    def test_single_value(self):
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestSummarize:
    def test_higher_is_better_claim(self):
        base = _runs("rate", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        change = _runs("rate", [150, 149, 151, 150, 148, 152, 150, 151, 149, 150])
        (row,) = summarize(base, change, [("rate", "higher")])
        assert row.wins == 10
        assert row.base[1] == 100 and row.change[1] == 150
        assert row.ratio == pytest.approx(1.5)
        assert row.claimable

    def test_lower_is_better_direction(self):
        base = _runs("ms", [10, 11, 12, 10, 11])
        change = _runs("ms", [12, 13, 14, 12, 13])  # slower
        (row,) = summarize(base, change, [("ms", "lower")])
        assert row.wins == 0
        assert not row.claimable

    def test_ties_count_for_neither_side(self):
        base = _runs("x", [1.0, 2.0, 3.0])
        change = _runs("x", [1.0, 1.0, 4.0])
        (row,) = summarize(base, change, [("x", "lower")])
        assert row.wins == 1  # one tie, one win, one loss

    def test_eight_of_ten_wins_is_not_a_claim(self):
        base = _runs("rate", [100] * 10)
        change = _runs("rate", [200] * 8 + [90, 90])
        (row,) = summarize(base, change, [("rate", "higher")])
        assert row.wins == 8
        assert not row.claimable

    def test_gap_inside_parent_iqr_is_not_a_claim(self):
        base = _runs("rate", [80, 90, 100, 110, 120, 80, 90, 100, 110, 120])
        change = _runs("rate", [x + 5 for x in [80, 90, 100, 110, 120, 80, 90, 100, 110, 120]])
        (row,) = summarize(base, change, [("rate", "higher")])
        assert row.wins == 10
        assert row.base_iqr == 20
        assert not row.claimable

    def test_mismatched_sides_rejected(self):
        with pytest.raises(ValueError):
            summarize(_runs("x", [1]), _runs("x", [1, 2]), [("x", "lower")])

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            summarize(_runs("x", [1]), _runs("x", [2]), [("x", "sideways")])

    def test_table_lists_every_metric(self):
        base = [_result({"a": 1.0, "b": 2.0})] * 3
        change = [_result({"a": 0.5, "b": 2.0})] * 3
        text = format_table("w", summarize(base, change, [("a", "lower"), ("b", "lower")]))
        assert "== w (3 pairs)" in text
        assert "  a " in text and "  b " in text


class TestHealth:
    """A gain does not count when the change is incorrect or fails more."""

    BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    CHANGE = [150, 149, 151, 150, 148, 152, 150, 151, 149, 150]

    def test_incorrect_change_run_is_not_a_claim(self):
        change = _runs("rate", self.CHANGE)
        change[3]["correct"] = False
        (row,) = summarize(_runs("rate", self.BASE), change, [("rate", "higher")])
        assert row.wins == 10
        assert not row.healthy and not row.claimable

    def test_larger_failure_share_is_not_a_claim(self):
        base = _runs("rate", self.BASE)
        change = _runs("rate", self.CHANGE)
        base[0]["failed"] = 1
        change[0]["failed"] = 2
        (row,) = summarize(base, change, [("rate", "higher")])
        assert failure_share(change) > failure_share(base)
        assert not row.claimable

    def test_equal_failure_share_may_claim(self):
        base = _runs("rate", self.BASE)
        change = _runs("rate", self.CHANGE)
        base[0]["failed"] = change[5]["failed"] = 1
        (row,) = summarize(base, change, [("rate", "higher")])
        assert row.healthy and row.claimable

    def test_failure_share_sums_over_runs(self):
        runs = [_result({}, attempted=10, failed=1), _result({}, attempted=30)]
        assert failure_share(runs) == pytest.approx(0.025)
        assert failure_share([_result({}, attempted=0)]) == 0.0
