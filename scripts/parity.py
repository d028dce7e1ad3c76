#!/usr/bin/env python3
"""Op-by-op output parity between this tree and another checkout.

Generates one seeded round of a benchmark workload per seed with
perfbench/workloads.py, runs every op with ncmetric.cli.main on this
tree and on the tree at --base, each tree in its own subprocess, and
compares each op's exit code, stdout and --out file. Both trees read
the same input files. Prints every op that differs, with its label and
the first differing line of each stream that differs, then the number
of differing ops, and exits 1; prints the number of identical ops and
exits 0 when every op matches. A stream that differs only in
floating-point numbers, with all other text and every integer (such as
an iterations column) the same, is flagged as such next to its first
differing line, with how many numbers differ and their largest relative
difference, per column by header name in a CSV stream (a first line of
names, and as many comma-separated fields on every line): a change that
moves roundoff only shows as one, and a residual that moves by half its
size at 1e-16 does not hide how far a density moved.

    python scripts/parity.py --base /path/to/other/checkout
    python scripts/parity.py --base . --metric-seeds "" --props-seeds "" --density-seeds 1

The defaults are one metric round at each of seeds 1-3, one density
round at each of seeds 1-5 and `props` at seeds 2, 7 and 19. Every run
also compares the top-level --help and each command's --help.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("delta", "distance", "contract", "convolve", "props", "counterexample")
# a decimal number, split out of the text around it; an integer has no point and no exponent
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
INTEGER = re.compile(r"[-+]?\d+")


def _seeds(text):
    return [int(s) for s in text.split(",") if s.strip()]


def _ops(args, work):
    """(label, argv, out path or None) of every op, in run order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    ops = []
    for workload, seeds in (("metric", args.metric_seeds), ("density", args.density_seeds)):
        for seed in _seeds(seeds):
            # generate numbers its input files from 1, so each call gets its own directory
            sub = work / f"{workload}-{seed}"
            sub.mkdir()
            (ops_round,) = workloads.generate(workload, seed, 1, sub)
            for i, op in enumerate(ops_round):
                ops.append((f"{workload} seed {seed} op {i}", op.argv, op.out))
    for seed in _seeds(args.props_seeds):
        ops.append((f"props seed {seed}", ["props", "--seed", str(seed)], None))
    for argv in [["--help"]] + [[command, "--help"] for command in COMMANDS]:
        ops.append((" ".join(argv), argv, None))
    return ops


def _run_tree(tree, ops_file, results_file):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(ops_file), str(results_file)],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"running the ops on {tree} failed:\n{proc.stderr}")
    results = json.loads(results_file.read_text())
    src = Path(results["module"]).resolve()
    if not src.is_relative_to((tree / "src").resolve()):
        sys.exit(f"the ops for {tree} imported ncmetric from {src}")
    return results["outcomes"]


def _worker(ops_file, results_file):
    """Run every op in-process with the ncmetric on the path; write their outcomes."""
    from ncmetric import cli

    outcomes = []
    for _, argv, out_path in json.loads(Path(ops_file).read_text()):
        if out_path:
            Path(out_path).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "raised " + traceback.format_exc().splitlines()[-1]
        out_text = None
        if out_path and os.path.exists(out_path):
            out_text = Path(out_path).read_text()
            os.unlink(out_path)
        outcomes.append({"exit code": rc, "stdout": out.getvalue(), "--out file": out_text})
    Path(results_file).write_text(json.dumps({"module": cli.__file__, "outcomes": outcomes}))


def _first_difference(a, b):
    if a is None or b is None:
        return f"{a!r:.60} != {b!r:.60}"
    if not isinstance(a, str):
        return f"{a!r} != {b!r}"
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {n}: {x!r} != {y!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def _columns(text):
    """The header names of a CSV stream (see the module docstring), or None for any other text."""
    lines = text.splitlines()
    names = lines[0].split(",") if lines else []
    if len(names) < 2 or any(NUMBER.search(name) for name in names):
        return None
    return names if all(line.count(",") == len(names) - 1 for line in lines) else None


def _numbers_only(a, b):
    """(how many numbers differ, {column: their largest relative difference}) when the streams a and b
    differ in floating-point numbers only; None when any text or integer differs. The columns are a CSV
    stream's header names (see _columns); any other stream is one column, named ""."""
    if not (isinstance(a, str) and isinstance(b, str)):
        return None
    names = _columns(a)
    if names is None or _columns(b) != names or a.count("\n") != b.count("\n"):
        names, cells = [""], [(a, b, "")]
    else:
        rows = zip(a.splitlines(), b.splitlines())
        cells = [cell for x, y in rows for cell in zip(x.split(","), y.split(","), names)]
    count, worst = 0, {}
    for x, y, name in cells:
        parts_x, parts_y = NUMBER.split(x), NUMBER.split(y)  # text at even indices, numbers at odd ones
        if len(parts_x) != len(parts_y):
            return None
        for i, (p, q) in enumerate(zip(parts_x, parts_y)):
            if p == q:
                continue
            if i % 2 == 0 or INTEGER.fullmatch(p) or INTEGER.fullmatch(q):
                return None
            if float(p) != float(q):
                count += 1
                diff = abs(float(p) - float(q)) / max(abs(float(p)), abs(float(q)))
                worst[name] = max(worst.get(name, 0.0), diff)
    return count, {name: worst[name] for name in names if name in worst}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, help="root of the checkout to compare against")
    ap.add_argument("--metric-seeds", default="1,2,3", help="comma-separated seeds, one round each")
    ap.add_argument("--density-seeds", default="1,2,3,4,5", help="comma-separated seeds, one round each")
    ap.add_argument("--props-seeds", default="2,7,19", help="comma-separated seeds of extra props ops")
    ap.add_argument("--worker", nargs=2, metavar=("OPS", "RESULTS"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        _worker(*args.worker)
        return 0
    if args.base is None:
        ap.error("--base is required")

    with tempfile.TemporaryDirectory(prefix="ncmetric-parity-") as tmp:
        work = Path(tmp)
        ops = _ops(args, work)
        ops_file = work / "ops.json"
        ops_file.write_text(json.dumps(ops))
        here = _run_tree(ROOT, ops_file, work / "here.json")
        base = _run_tree(args.base.resolve(), ops_file, work / "base.json")

    differing = numbers_only = 0
    for (label, argv, _), mine, theirs in zip(ops, here, base):
        differ = [k for k in mine if mine[k] != theirs[k]]
        if differ:
            differing += 1
            print(f"{label}: {' '.join(argv)}")
            rounded = [_numbers_only(theirs[k], mine[k]) for k in differ]
            numbers_only += None not in rounded
            for k, numbers in zip(differ, rounded):
                note = ""
                if numbers:
                    figures = ", ".join(f"{name} {diff:.1e}".lstrip() for name, diff in numbers[1].items())
                    note = f"; only numbers differ: {numbers[0]}, by at most {figures or f'{0.0:.1e}'} relative"
                print(f"  {k}: {_first_difference(theirs[k], mine[k])} (base != this tree){note}")
    if differing:
        tail = f", {numbers_only} of them in floating-point numbers only" if numbers_only else ""
        print(f"{differing} of {len(ops)} ops differ (exit code, stdout, --out file){tail}")
        return 1
    print(f"{len(ops)} of {len(ops)} ops identical (exit code, stdout, --out file)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
