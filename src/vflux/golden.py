"""Golden-file regression corpus.

Each case binds a checked-in configuration to the SHA-256 digests of its
CSV, stored as ``golden/csv/<case>.csv.gz``, and of its JSON (an empty cell
is ``""`` or ``null`` there, so it has its own digest).  A CSV mismatch
prints the first differing cell and, per column, the count and the largest
absolute and relative difference (:func:`report`).  Digests are exact per
BLAS/LAPACK build (README, "Determinism and golden files").  Regeneration
prints the same report, then rewrites the stored CSV and the digests; it
is refused without ``--maintainer``.  Run as a module::

    python -m vflux.golden (--verify | --regenerate --maintainer) [--case NAME]
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

from .config import load_config
from .errors import UsageError, VfluxError
from .runner import compute_rows, render_csv, render_json

DIGEST_SCHEMA = "vflux-golden/1"


def default_root() -> Path:
    """The repository's golden directory (another one is given with ``--root``)."""
    return Path(__file__).resolve().parents[2] / "golden"


@dataclass(frozen=True)
class GoldenCase:
    name: str
    config_path: Path
    digest: str
    json_digest: str
    csv_path: Path


def load_cases(root: Path | None = None) -> list[GoldenCase]:
    root = root or default_root()
    index = json.loads((root / "digests.json").read_text(encoding="utf-8"))
    if index.get("schema") != DIGEST_SCHEMA:
        raise UsageError(f"unexpected golden digest schema {index.get('schema')!r}")
    cases = index.get("cases")
    if not isinstance(cases, dict):
        raise UsageError("golden digests.json has no 'cases' object")
    for name, entry in cases.items():
        if not isinstance(entry, dict):
            raise UsageError(f"golden case {name!r} is not an object in digests.json")
        if missing := [key for key in ("config", "sha256", "json_sha256") if key not in entry]:
            raise UsageError(f"golden case {name!r} has no {missing[0]!r} in digests.json")
    return [GoldenCase(name, root / entry["config"], entry["sha256"], entry["json_sha256"],
                       root / "csv" / f"{name}.csv.gz") for name, entry in sorted(cases.items())]


def compute_outputs(case: GoldenCase) -> tuple[str, str]:
    """The CSV and the JSON text of ``case``'s table."""
    columns, table = compute_rows(load_config(case.config_path))
    return render_csv(columns, table), render_json(columns, table)


def stored_csv(case: GoldenCase) -> str:
    """The CSV text checked in for ``case``."""
    return gzip.decompress(case.csv_path.read_bytes()).decode("utf-8")


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify(case: GoldenCase, outputs: tuple[str, str] | None = None) -> dict[str, str]:
    """Check one case's :func:`compute_outputs` (computed unless given):
    the actual digest of each of ``"csv"`` and ``"json"`` that differs
    from the case's, so an empty dict when the case verifies."""
    texts = compute_outputs(case) if outputs is None else outputs
    wanted = {"csv": case.digest, "json": case.json_digest}
    return {kind: actual for kind, text in zip(wanted, texts)
            if (actual := digest_of(text)) != wanted[kind]}


def _differing_cells(a: str, b: str):
    """Each ``(row, column, cell_a, cell_b)`` whose texts differ, the rows read
    as CSV (a quoted cell may hold commas) and paired by header name: ``row``
    from 1 (0 is the header), None for no cell.  A column of one header only
    is reported once, at row 0; a text without rows takes the other's header."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(text))) for text in (a, b))
    head_a, head_b = ({name: col for col, name in enumerate(rows[0])} if rows else {}
                      for rows in (rows_a or rows_b, rows_b or rows_a))
    for row, (cells_a, cells_b) in enumerate(zip_longest(rows_a, rows_b, fillvalue=[])):
        for name in {**head_a, **head_b}:
            at = head_a.get(name), head_b.get(name)
            cell_a, cell_b = (cells[col] if col is not None and col < len(cells) else None
                              for cells, col in zip((cells_a, cells_b), at))
            if cell_a != cell_b and not (row and None in at):
                yield row, name, cell_a, cell_b


def _gap(cell_a, cell_b) -> tuple[float, float]:
    """``(|a - b|, |a - b| / max(|a|, |b|))`` of two float cells; inf for text."""
    try:
        a, b = float(cell_a), float(cell_b)
    except (TypeError, ValueError):
        return math.inf, math.inf
    return abs(a - b), abs(a - b) / (max(abs(a), abs(b)) or 1.0)


def compare_numeric(a: str, b: str, atol: float = 1e-12):
    """First cell of :func:`_differing_cells` that is not floats within
    ``atol`` on both sides, or None."""
    return next((cell for cell in _differing_cells(a, b) if not _gap(*cell[2:])[0] <= atol),
                None)


def column_diffs(a: str, b: str) -> dict:
    """Per column with a differing cell: the number of such cells and their
    largest absolute and relative difference (inf where one is text)."""
    diffs: dict = {}
    for _, column, cell_a, cell_b in _differing_cells(a, b):
        count, gap, rel = diffs.get(column, (0, 0.0, 0.0))
        new_gap, new_rel = _gap(cell_a, cell_b)
        diffs[column] = (count + 1, max(gap, new_gap), max(rel, new_rel))
    return diffs


def report(old: str, new: str) -> None:
    """Print the first differing cell and the :func:`column_diffs` of ``old`` against ``new``."""
    print(f"  first cell: {next(_differing_cells(old, new), None)}")
    for column, (cells, gap, rel) in column_diffs(old, new).items():
        print(f"  {column}: {cells} cells, max abs {gap:.3e}, max rel {rel:.3e}")


def regenerate(case: GoldenCase, maintainer: bool = False, root: Path | None = None) -> str:
    """Report (an absent stored CSV reads as empty), then refresh one case."""
    if not maintainer:
        raise UsageError("golden regeneration requires maintainer mode")
    index_path = (root or default_root()) / "digests.json"
    text, json_text = compute_outputs(case)
    old_text = stored_csv(case) if case.csv_path.exists() else ""
    index = json.loads(index_path.read_text(encoding="utf-8"))
    entry = index["cases"][case.name]
    entry["sha256"], entry["json_sha256"] = digest_of(text), digest_of(json_text)
    rows = text.count("\n") - 1
    print(f"{case.name}: digest {case.digest[:12]} -> {entry['sha256'][:12]}, "
          f"json {case.json_digest[:12]} -> {entry['json_sha256'][:12]} ({rows} data rows)")
    if old_text != text:
        report(old_text, text)
    case.csv_path.write_bytes(gzip.compress(text.encode("utf-8"), compresslevel=9, mtime=0))
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return entry["sha256"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m vflux.golden",
                                     description="golden regression corpus tooling")
    parser.add_argument("--root", type=Path, default=None, help="golden directory")
    parser.add_argument("--case", default=None, help="restrict to one case name")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--verify", action="store_true")
    mode.add_argument("--regenerate", action="store_true")
    parser.add_argument("--maintainer", action="store_true", help="enable regeneration")
    args = parser.parse_args(argv)

    try:
        cases = load_cases(args.root)
    except (OSError, VfluxError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.case is not None:
        cases = [c for c in cases if c.name == args.case]
        if not cases:
            print(f"error: no golden case named {args.case!r}", file=sys.stderr)
            return 2

    status = 0
    for case in cases:
        try:
            if args.regenerate:
                regenerate(case, maintainer=args.maintainer, root=args.root)
            else:
                outputs = compute_outputs(case)
                wrong = verify(case, outputs)
                mismatch = ", ".join(f"{kind} {actual}" for kind, actual in wrong.items())
                print(f"{case.name}: {'MISMATCH ' + mismatch if wrong else 'ok'}")
                if wrong:
                    status = max(status, 1)
                if "csv" in wrong:
                    report(stored_csv(case), outputs[0])
        except (OSError, EOFError, VfluxError) as exc:
            print(f"error: {case.name}: {exc}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
