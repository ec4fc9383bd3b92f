"""Compare scenario outputs written by two commits.

    python compare_csv.py BASE_DIR HEAD_DIR NAME...

For each NAME, reads NAME.csv and NAME.summary.json from both directories
and prints whether each pair of files is byte-identical. Exits 1 if a CSV
header, row count or row length differs, if the two summaries differ in
structure or in any non-numeric value, or if any CSV cell or numeric
summary value differs by more than TOLERANCE. The summary carries what
the CSV does not, such as fig7's per-trial maxima.
"""
import json
import sys
from pathlib import Path

TOLERANCE = 1e-12


def compare(base: Path, head: Path) -> str | None:
    """None if the two CSVs agree within TOLERANCE, else what differs."""
    old, new = base.read_text().splitlines(), head.read_text().splitlines()
    if old[:1] != new[:1] or len(old) != len(new):
        return f"header or row count differs: {old[:1]} x {len(old)} against {new[:1]} x {len(new)}"
    worst = 0.0
    for k, (a, b) in enumerate(zip(old[1:], new[1:]), start=2):
        cells_a, cells_b = a.split(","), b.split(",")
        if len(cells_a) != len(cells_b):
            return f"line {k} has {len(cells_a)} cells against {len(cells_b)}"
        for x, y in zip(cells_a, cells_b):
            dev = 0.0 if x == y else abs(float(x) - float(y))
            if not dev <= TOLERANCE:
                return f"line {k}: {x} against {y}"
            worst = max(worst, dev)
    print(f"  largest cell difference {worst:.3g}")
    return None


def leaf_gap(a, b, path: str = "") -> float:
    """Largest difference between two JSON values' numeric leaves; raises
    ValueError at the first place where their structure or another leaf
    differs, or where a numeric leaf differs by more than TOLERANCE."""
    number = (int, float)
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise ValueError(f"{path or 'top level'}: keys {list(a)} against {list(b)}")
        return max((leaf_gap(a[k], b[k], f"{path}/{k}") for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(f"{path}: {len(a)} entries against {len(b)}")
        return max((leaf_gap(x, y, f"{path}[{k}]") for k, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    if (isinstance(a, number) and isinstance(b, number)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        dev = 0.0 if a == b else abs(a - b)
        if not dev <= TOLERANCE:
            raise ValueError(f"{path}: {a!r} against {b!r}")
        return dev
    if type(a) is not type(b) or a != b:
        raise ValueError(f"{path}: {a!r} against {b!r}")
    return 0.0


def compare_summary(base: Path, head: Path) -> str | None:
    """None if the two summaries agree within TOLERANCE, else what differs."""
    try:
        worst = leaf_gap(json.loads(base.read_text()), json.loads(head.read_text()))
    except ValueError as exc:
        return str(exc)
    print(f"  largest numeric difference {worst:.3g}")
    return None


def main(argv) -> int:
    base, head, names = Path(argv[0]), Path(argv[1]), argv[2:]
    failed = False
    for name in names:
        for suffix, check in ((".csv", compare), (".summary.json", compare_summary)):
            a, b = base / f"{name}{suffix}", head / f"{name}{suffix}"
            if not a.exists() and not b.exists():
                continue
            if not (a.exists() and b.exists()):
                print(f"{name}{suffix}: FAIL, written by one commit only")
                failed = True
                continue
            same = a.read_bytes() == b.read_bytes()
            print(f"{name}{suffix}: {'byte-identical' if same else 'not byte-identical'}")
            problem = None if same else check(a, b)
            if problem:
                print(f"  FAIL: {problem}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
