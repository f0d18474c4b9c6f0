"""Compare the output directories of tools/cli_outputs.py for two checkouts.

    python3 tools/cli_compare.py A B

`diff -r A B` cannot tell a change in the last digits of a float from a
real change in behaviour.  This compares by kind of output instead:

- both directories hold the same files, and exit_codes.txt is the same;
- table outputs are byte-identical;
- CSV outputs (a name ending in "csv") have the same rows, each with the
  same number of cells; a pair of cells that both read as one float
  literal, with no surrounding space, follows the float rule below, and
  every other pair of cells is equal as text;
- JSON outputs (a name ending in "json") are equal in every field that is
  not a float: keys, list lengths, statuses, iteration counts, flags;
- each pair of floats agrees within RTOL relative or ATOL absolute (two
  nan agree).

It prints one line per file that differs, with its first difference, and
exits 1 when any file differs, 0 otherwise.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-13


def file_set(root):
    """Paths of the files under root, relative to it."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def floats_agree(a, b):
    return (a == b or (math.isnan(a) and math.isnan(b))
            or math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL))


def as_float(cell):
    """The float a CSV cell spells, or None when it is not one float
    literal with no surrounding space."""
    if cell != cell.strip():
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def csv_agrees(ta, tb):
    """True when two CSV texts differ at most in float cells that agree."""
    ra = list(csv.reader(io.StringIO(ta.decode())))
    rb = list(csv.reader(io.StringIO(tb.decode())))
    if len(ra) != len(rb) or any(len(x) != len(y) for x, y in zip(ra, rb)):
        return False
    for x, y in zip(ra, rb):
        for cx, cy in zip(x, y):
            fx, fy = as_float(cx), as_float(cy)
            if cx != cy and (fx is None or fy is None
                             or not floats_agree(fx, fy)):
                return False
    return True


def json_diff(a, b, path="$"):
    """First difference between two parsed JSON values, or None."""
    if isinstance(a, float) and isinstance(b, float):
        return None if floats_agree(a, b) else f"{path}: {a!r} != {b!r}"
    if type(a) is not type(b):
        return f"{path}: {a!r} != {b!r}"
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(a)} != {sorted(b)}"
        pairs = [(a[k], b[k], f"{path}.{k}") for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        pairs = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return None if a == b else f"{path}: {a!r} != {b!r}"
    for x, y, p in pairs:
        d = json_diff(x, y, p)
        if d is not None:
            return d
    return None


def compare(a, b):
    """One message per difference between the output directories a and b."""
    fa, fb = file_set(a), file_set(b)
    out = [f"{name}: only in {a}" for name in sorted(fa - fb)]
    out += [f"{name}: only in {b}" for name in sorted(fb - fa)]
    for name in sorted(fa & fb):
        ta, tb = (a / name).read_bytes(), (b / name).read_bytes()
        if name.endswith("json"):
            d = json_diff(json.loads(ta), json.loads(tb))
            if d is not None:
                out.append(f"{name}: {d}")
        elif ta != tb and not (name.endswith("csv")
                               and csv_agrees(ta, tb)):
            out.append(f"{name}: bytes differ")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    diffs = compare(args.a, args.b)
    for line in diffs:
        print(line)
    print(f"{len(file_set(args.a))} files in {args.a}, {len(diffs)} "
          f"difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
