"""Tests for the consolidated experiment runner."""

import io

from repro.evaluation.runner import main, run_report


class TestRunner:
    def test_small_report_contains_all_sections(self):
        out = io.StringIO()
        run_report(
            db_size=96,
            days=128,
            queries=3,
            pairs=10,
            seed=2,
            budgets=(8,),
            out=out,
        )
        text = out.getvalue()
        for marker in (
            "figs 20/21 - bound tightness",
            "fig 22 - pruning power",
            "fig 23 - index vs linear scan",
            "fig 13 - significant periods",
            "figs 14/19 - bursts and query-by-burst",
            "best_min_error",
            "halloween long-term bursts",
        ):
            assert marker in text, marker
        # The headline qualitative results survive even at toy scale.
        assert "cinema" in text and "7.0" in text
        assert "pentagon attack" in text

    def test_main_parses_arguments(self, capsys):
        assert (
            main(
                [
                    "--db-size", "64",
                    "--days", "128",
                    "--queries", "2",
                    "--pairs", "5",
                    "--budgets", "8",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "bound tightness" in captured.out
