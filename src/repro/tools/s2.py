"""S2 — the interactive similarity tool (section 7.5), terminal edition.

The paper closes with S2, "an interactive exploratory data discovery tool
for the MSN query database" offering three major functionalities:
identification of important periods, similarity search, and burst
detection with query-by-burst.  This module is that tool over the
synthetic query-log substrate, as a readline REPL (the original was a C#
GUI):

.. code-block:: console

    $ s2 --synthetic 200
    s2> show cinema
    s2> periods cinema
    s2> search cinema
    s2> bursts halloween
    s2> burstsearch christmas
    s2> preview cinema 5

``--demo`` runs a scripted tour non-interactively (used by the examples
and tests).
"""

from __future__ import annotations

import argparse
import cmd
import datetime as _dt
import sys

from repro.bursts.compaction import compact_bursts
from repro.bursts.detection import BurstDetector
from repro.bursts.query import BurstDatabase
from repro.compression.best_k import BestMinErrorCompressor
from repro.datagen.generator import QueryLogGenerator
from repro.dtw.search import DTWSearch
from repro.exceptions import ReproError
from repro.index.vptree import VPTreeIndex
from repro.periods.aggregate import shared_periods
from repro.periods.detector import PeriodDetector
from repro.spectral.dft import Spectrum
from repro.tools.plotting import burst_chart, line_chart, sparkline

__all__ = ["S2Shell", "build_workspace", "main"]


class S2Workspace:
    """Everything the shell needs: data, index, burst DB, detectors.

    The index walks on its row codes; ``compressor_k`` sizes the sketch
    the ``preview`` command shows.
    """

    def __init__(self, collection, compressor_k: int = 14, seed: int = 0):
        self.collection = collection
        self.standardized = collection.standardize()
        self.index = VPTreeIndex(
            self.standardized.as_matrix(),
            names=list(collection.names),
            seed=seed,
        )
        self.burst_db = BurstDatabase()
        self.burst_db.add_collection(collection)
        self.period_detector = PeriodDetector(interpolate=True)
        self.compressor = BestMinErrorCompressor(compressor_k)
        self._dtw_search: DTWSearch | None = None  # built lazily

    def dtw_search(self) -> DTWSearch:
        """The (lazily built) DTW search structure over the database."""
        if self._dtw_search is None:
            self._dtw_search = DTWSearch(
                self.standardized.as_matrix(),
                band=0.05,
                names=list(self.collection.names),
            )
        return self._dtw_search


def build_workspace(
    seed: int = 0,
    days: int = 365,
    start: _dt.date = _dt.date(2002, 1, 1),
    synthetic: int = 0,
    compressor_k: int = 14,
) -> S2Workspace:
    """Generate the dataset and build the search structures."""
    generator = QueryLogGenerator(seed=seed, start=start, days=days)
    if synthetic:
        collection = generator.synthetic_database(
            synthetic, include_catalog=True
        )
    else:
        collection = generator.catalog_collection()
    return S2Workspace(collection, compressor_k=compressor_k, seed=seed)


class S2Shell(cmd.Cmd):
    """The interactive command loop."""

    intro = (
        "S2 similarity tool - periods, similarity search, bursts.\n"
        "Type 'help' for commands, 'list' for available queries, 'quit' to exit."
    )
    prompt = "s2> "

    def __init__(self, workspace: S2Workspace, stdout=None):
        super().__init__(stdout=stdout or sys.stdout)
        self.workspace = workspace

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _say(self, text: str) -> None:
        self.stdout.write(text + "\n")

    def _series(self, name: str):
        name = name.strip()
        if not name:
            raise ReproError("which query? e.g. 'show cinema'")
        if name not in self.workspace.collection:
            raise ReproError(
                f"unknown query {name!r}; 'list' shows what is loaded"
            )
        return self.workspace.collection[name]

    def onecmd(self, line: str) -> bool:  # noqa: D102 - cmd.Cmd hook
        try:
            return super().onecmd(line)
        except ReproError as exc:
            self._say(f"[error] {exc}")
            return False

    def emptyline(self) -> bool:  # noqa: D102 - cmd.Cmd hook
        # The cmd.Cmd default re-runs the last command on a bare Enter,
        # which surprises users mid-exploration; do nothing instead.
        return False

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def do_list(self, arg: str) -> None:
        """list — show the loaded query names."""
        names = self.workspace.collection.names
        self._say(f"{len(names)} queries loaded:")
        row: list[str] = []
        for name in names:
            row.append(name)
            if len(row) == 4:
                self._say("  " + " | ".join(row))
                row = []
        if row:
            self._say("  " + " | ".join(row))

    def do_show(self, arg: str) -> None:
        """show <query> — plot a query's demand curve."""
        series = self._series(arg)
        self._say(line_chart(series))

    def do_periods(self, arg: str) -> None:
        """periods <query> — detect the significant periods."""
        series = self._series(arg)
        result = self.workspace.period_detector.detect(series.standardize())
        self._say(line_chart(series))
        if not result.periods:
            self._say(
                f"no significant periods (threshold {result.threshold:.3f})"
            )
            return
        self._say(f"power threshold: {result.threshold:.3f}")
        for rank, period in enumerate(result.top(5), start=1):
            self._say(
                f"  P{rank} = {period.period:.2f} days "
                f"(power {period.power:.2f})"
            )

    def do_search(self, arg: str) -> None:
        """search <query> [k] — k nearest queries by demand shape."""
        parts = arg.rsplit(maxsplit=1)
        k = 5
        if len(parts) == 2 and parts[1].isdigit():
            arg, k = parts[0], int(parts[1])
        series = self._series(arg)
        query = self.workspace.standardized[series.name]
        neighbors, stats = self.workspace.index.search(
            query.values, k=min(k + 1, len(self.workspace.collection))
        )
        self._say(f"queries most similar to {series.name!r}:")
        shown = 0
        for neighbor in neighbors:
            if neighbor.name == series.name:
                continue
            self._say(
                f"  {neighbor.name:<32s} distance {neighbor.distance:7.2f}  "
                f"{sparkline(self.workspace.collection[neighbor.name].values, 40)}"
            )
            shown += 1
            if shown == k:
                break
        self._say(
            f"(examined {stats.full_retrievals} of "
            f"{len(self.workspace.collection)} uncompressed sequences)"
        )

    def do_sharedperiods(self, arg: str) -> None:
        """sharedperiods <query> [k] — periods common to a query's k-NN set."""
        parts = arg.rsplit(maxsplit=1)
        k = 5
        if len(parts) == 2 and parts[1].isdigit():
            arg, k = parts[0], int(parts[1])
        series = self._series(arg)
        query = self.workspace.standardized[series.name]
        neighbors, _ = self.workspace.index.search(
            query.values, k=min(k, len(self.workspace.collection))
        )
        members = [self.workspace.collection[n.name] for n in neighbors]
        found = shared_periods(members, self.workspace.period_detector)
        self._say(
            f"periods shared by the {len(members)} queries most similar to "
            f"{series.name!r}:"
        )
        if not found:
            self._say("  none are significant across the set")
            return
        for shared in found[:5]:
            self._say(
                f"  {shared.period:7.2f} days in {shared.support} of "
                f"{len(members)}: {', '.join(shared.members)}"
            )

    def do_dtwsearch(self, arg: str) -> None:
        """dtwsearch <query> [k] — k nearest queries under warped distance."""
        parts = arg.rsplit(maxsplit=1)
        k = 3
        if len(parts) == 2 and parts[1].isdigit():
            arg, k = parts[0], int(parts[1])
        series = self._series(arg)
        query = self.workspace.standardized[series.name]
        search = self.workspace.dtw_search()
        neighbors, stats = search.search(
            query.values, k=min(k + 1, len(self.workspace.collection))
        )
        self._say(f"queries DTW-closest to {series.name!r}:")
        shown = 0
        for neighbor in neighbors:
            if neighbor.name == series.name:
                continue
            self._say(
                f"  {neighbor.name:<32s} dtw distance {neighbor.distance:7.2f}"
            )
            shown += 1
            if shown == k:
                break
        self._say(
            f"(computed {stats.dtw_computations} full DTWs out of "
            f"{stats.candidates} candidates; the rest were pruned by "
            f"linear-cost bounds)"
        )

    def do_bursts(self, arg: str) -> None:
        """bursts <query> [short] — detect long- (or short-) term bursts."""
        short = False
        if arg.endswith(" short"):
            arg, short = arg[: -len(" short")], True
        series = self._series(arg)
        detector = (
            BurstDetector.short_term() if short else BurstDetector.long_term()
        )
        standardized = series.standardize()
        annotation = detector.detect(standardized)
        bursts = compact_bursts(standardized, annotation)
        self._say(burst_chart(series, annotation.mask))
        if not bursts:
            self._say("no bursts found")
            return
        for burst in bursts:
            self._say(
                f"  burst {burst.start_date(series.start)} .. "
                f"{burst.end_date(series.start)}  avg {burst.average:+.2f}"
            )

    def do_burstsearch(self, arg: str) -> None:
        """burstsearch <query> [short] — query-by-burst against the database."""
        window = None
        if arg.endswith(" short"):
            arg, window = arg[: -len(" short")], 7
        series = self._series(arg)
        matches = self.workspace.burst_db.query(series.name, top=5, window=window)
        if not matches:
            self._say("no overlapping bursts in the database")
            return
        self._say(f"queries bursting together with {series.name!r}:")
        for match in matches:
            self._say(f"  {match.name:<32s} BSim {match.similarity:6.2f}")

    def do_preview(self, arg: str) -> None:
        """preview <query> [k] — reconstruction from the k best coefficients."""
        parts = arg.rsplit(maxsplit=1)
        k = None
        if len(parts) == 2 and parts[1].isdigit():
            arg, k = parts[0], int(parts[1])
        series = self._series(arg)
        standardized = series.standardize()
        compressor = (
            BestMinErrorCompressor(k) if k else self.workspace.compressor
        )
        sketch = compressor.compress(Spectrum.from_series(standardized.values))
        approx = sketch.reconstruct()
        self._say(f"original      {sparkline(standardized.values, 64)}")
        self._say(f"{len(sketch):3d} best coeff {sparkline(approx, 64)}")
        self._say(f"approximation error: {sketch.error ** 0.5:.2f}")

    def do_quit(self, arg: str) -> bool:
        """quit — leave the tool."""
        return True

    do_exit = do_quit
    do_EOF = do_quit


DEMO_SCRIPT = (
    "list",
    "show cinema",
    "periods cinema",
    "periods full moon",
    "periods dudley moore",
    "search cinema 3",
    "sharedperiods cinema 4",
    "dtwsearch cinema 3",
    "bursts halloween",
    "bursts easter",
    "burstsearch christmas",
    "preview cinema 5",
    "quit",
)


def main(argv=None) -> int:
    """Command-line entry point (installed as ``s2``)."""
    parser = argparse.ArgumentParser(
        prog="s2", description="S2 similarity tool over synthetic query logs"
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--days", type=int, default=365, help="days of log data to generate"
    )
    parser.add_argument(
        "--start",
        type=_dt.date.fromisoformat,
        default=_dt.date(2002, 1, 1),
        help="first day of the generated logs (ISO format)",
    )
    parser.add_argument(
        "--synthetic",
        type=int,
        default=0,
        metavar="N",
        help="add N synthetic series on top of the named catalog",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a scripted, non-interactive tour and exit",
    )
    args = parser.parse_args(argv)

    print("building the S2 workspace (generating logs, compressing, indexing)...")
    workspace = build_workspace(
        seed=args.seed, days=args.days, start=args.start, synthetic=args.synthetic
    )
    shell = S2Shell(workspace)
    if args.demo:
        for command in DEMO_SCRIPT:
            print(f"{shell.prompt}{command}")
            if shell.onecmd(command):
                break
        return 0
    shell.cmdloop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
