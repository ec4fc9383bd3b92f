"""Compare scenario CSVs written by two commits.

    python compare_csv.py BASE_DIR HEAD_DIR NAME...

For each NAME, reads NAME.csv from both directories and prints whether the
files are byte-identical. Exits 1 if a header, a row count or a row length
differs, or if any cell differs by more than TOLERANCE.
"""
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


def main(argv) -> int:
    base, head, names = Path(argv[0]), Path(argv[1]), argv[2:]
    failed = False
    for name in names:
        a, b = base / f"{name}.csv", head / f"{name}.csv"
        same = a.read_bytes() == b.read_bytes()
        print(f"{name}.csv: {'byte-identical' if same else 'not byte-identical'}")
        problem = None if same else compare(a, b)
        if problem:
            print(f"  FAIL: {problem}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
