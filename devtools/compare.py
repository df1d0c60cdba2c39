"""Byte-for-byte comparison of the program's outputs at two git revisions.

From inside a checkout:

    python3 devtools/compare.py A B

exports revision A with ``git archive`` into ``DIR/tree``, where ``DIR`` is a
new temporary directory (``TMPDIR`` chooses where, never inside the
checkout), runs the corpus of :func:`corpus` in ``DIR/out`` and moves that
to ``DIR/A``; then the same for B.  Both sides therefore run at the same absolute paths, and every command
names its files relative to ``DIR/out``, so printed paths agree.  Each
command is a fresh interpreter, ``python -m mixflow.cli ...`` with the
revision's ``src`` on ``PYTHONPATH``; its stdout, stderr and exit code are
kept under ``log/`` beside the files it wrote.  Two independent command
sequences run at once.

The two trees are then compared byte for byte.  One line is printed,

    commands C, files F, identical I, differing D, only in A X, only in B Y, expected E

followed by every path that differs or exists on one side only and is not
expected.  ``--expect FILE`` names the intended moves: each line of FILE that
is neither blank nor a ``#`` comment reads ``PATTERN [FIELD ...]``, where
PATTERN is an ``fnmatch`` pattern over the printed relative paths, such as
``runs/*-rk4-*/*``.  A differing or one-sided path that a line without
FIELDs matches is expected; with FIELDs, a differing path is expected when
the two files differ in those fields alone: for a CSV file the headers are
equal and every other column's cells are equal as text, and two JSON
documents are equal once the dotted key paths (``audits.gronwall.margin``)
are removed from both.  A line that matches no differing or one-sided path
is printed as ``unused: <line>``.  The exit code is 1 when any path is
printed or any line unused, and ``DIR`` is then kept for a look, and 0
otherwise, ``DIR`` removed.  A corpus run may exit non-zero (an audit FAIL,
a blow-up): exit codes are compared, never required to be 0.  To compare
uncommitted work, pass ``$(git stash create)`` as a revision.  The stdlib is
all it uses.

``--bench WORKLOAD`` times the two revisions instead.  Both are exported
side by side, as ``DIR/A`` and ``DIR/B``, and in each tree

    python3 perfbench/run.py --workload WORKLOAD --seed k --seconds S --trace 0

runs for k = 1 to 10, A first when k is even and B first when it is odd,
with S the ``run_seconds`` of ``BENCHMARK.json``.  From each run's
``.perfbench_out/results-WORKLOAD-seed<k>-trace0.json`` it prints, for each
end-to-end metric of ``BENCHMARK.json``, both medians, A's quartiles and in
how many of the ten pairs B is lower; then each side's failed out of
attempted operations and its median ``record.import_s``, the raw time of
the benchmark's own ``import mixflow.cli``.  No bytes are compared.  The
exit code is 1 when a run leaves no record, each of which is printed, and 0
otherwise; ``DIR`` is removed either way.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import filecmp
import fnmatch
import glob
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join("..", "tree", "src", "mixflow", "data")  # relative to DIR/out

INIS = ("equal_velocity", "gaussian_bump", "near_vacuum", "random_smooth", "rest", "shear")
SCHEMES = ("rk2", "rk4", "semi-implicit")
FRAMES = ("both", "eulerian", "lagrangian")
#: shear.ini with one line replaced, each of which blows up: (name, key, value)
BLOWUPS = (("huge_u1", "u1", "sine:k=1,amp=1e200"),
           ("huge_friction", "friction", "[[0.0, 1e308], [1e308, 0.0]]"))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
PAIRS = 10


def corpus() -> dict[str, list[list[str]]]:
    """Named sequences of CLI argument lists; the commands of one sequence
    run in order, the sequences in any order."""
    jobs = {}
    for ini in INIS:
        for scheme in SCHEMES:
            for frame in FRAMES:
                traj = f"runs/{ini}-{scheme}-{frame}"
                jobs[traj] = [
                    ["run", "--config", os.path.join(DATA, f"{ini}.ini"), "--out-dir", traj,
                     "--scheme", scheme, "--frame", frame, "--n-cells", "48", "--t-end", "0.03"],
                    ["check", "--traj", traj],
                    ["report", "--traj", traj],
                ]
    jobs["runs/random_smooth-n100"] = [
        ["run", "--config", os.path.join(DATA, "random_smooth.ini"), "--out-dir",
         "runs/random_smooth-n100", "--n-cells", "100", "--t-end", "0.03"],
        ["check", "--traj", "runs/random_smooth-n100"]]
    # both transforms, of the final snapshots of a two-frame run
    jobs["runs/shear-rk2-both"] += [
        ["transform", "--snap", f"runs/shear-rk2-both/{frame}/snap_*.csv", "--frame", frame,
         "--out", f"runs/transformed_{frame}.csv"] for frame in ("eulerian", "lagrangian")]
    for name, _, _ in BLOWUPS:
        for scheme in SCHEMES:
            for frame in FRAMES:
                traj = f"blowup/{name}-{scheme}-{frame}"
                jobs[traj] = [["run", "--config", f"ini/{name}.ini", "--out-dir", traj,
                               "--scheme", scheme, "--frame", frame,
                               "--n-cells", "32", "--t-end", "0.001"]]
    for frame in ("eulerian", "lagrangian"):
        for advection in ("central", "upwind"):
            out = f"mms/{frame}-{advection}"
            jobs[out] = [["mms", "--frame", frame, "--advection", advection,
                          "--levels", "16,32", "--t-end", "0.05", "--out-dir", out]]
    return jobs


def export(rev: str, dest: str):
    """The tree of ``rev`` into the new directory ``dest``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_side(work: str, jobs: dict[str, list[list[str]]]):
    """Run every sequence in ``work/out`` with the code of ``work/tree``."""
    out = os.path.join(work, "out")
    os.makedirs(os.path.join(out, "ini"))
    with open(os.path.join(work, "tree", "src", "mixflow", "data", "shear.ini")) as fh:
        shear = fh.read().splitlines()
    for name, key, value in BLOWUPS:
        with open(os.path.join(out, "ini", f"{name}.ini"), "w") as fh:
            fh.writelines(f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
                          for line in shear)
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "tree", "src"),
               PYTHONDONTWRITEBYTECODE="1")

    def sequence(name):
        log = os.path.join(out, "log", name)
        os.makedirs(os.path.dirname(log), exist_ok=True)
        for k, args in enumerate(jobs[name]):
            args = [expand(out, a) for a in args]
            done = subprocess.run([sys.executable, "-m", "mixflow.cli", *args], cwd=out,
                                  env=env, capture_output=True, stdin=subprocess.DEVNULL)
            for suffix, data in (("stdout", done.stdout), ("stderr", done.stderr),
                                 ("exit", f"{done.returncode}\n".encode())):
                with open(f"{log}.{k}.{suffix}", "wb") as fh:
                    fh.write(data)

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        list(pool.map(sequence, jobs))  # raises the first failure


def expand(cwd: str, arg: str) -> str:
    """``arg`` with a ``*`` pattern replaced by its one match under ``cwd``."""
    if "*" not in arg:
        return arg
    matches = glob.glob(arg, root_dir=cwd)
    return matches[0] if len(matches) == 1 else arg


def files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top) for d, _, fs in os.walk(top) for f in fs}


def read_expect(path: str) -> list[tuple[str, str, list[str]]]:
    """(line, PATTERN, FIELDs) of each line of an expect file that is
    neither blank nor a comment."""
    rules = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                pattern, *fields = line.split()
                rules.append((line, pattern, fields))
    return rules


def differ_only_in(a: str, b: str, fields: list[str]) -> bool:
    """Whether the files ``a`` and ``b`` are equal but for the CSV columns
    or JSON key paths ``fields``; other kinds of file never are."""
    if a.endswith(".csv"):
        rows = []
        for path in (a, b):
            with open(path, "rb") as fh:
                rows.append([line.split(b",") for line in fh.read().splitlines()])
        if len(rows[0]) != len(rows[1]) or rows[0][:1] != rows[1][:1]:
            return False
        drop = {k for k, name in enumerate(rows[0][0]) if name.decode() in fields}
        return all([c for k, c in enumerate(x) if k not in drop]
                   == [c for k, c in enumerate(y) if k not in drop] for x, y in zip(*rows))
    if a.endswith(".json"):
        docs = []
        for path in (a, b):
            with open(path) as fh:
                doc = json.load(fh)
            for field in fields:
                *parents, last = field.split(".")
                node = doc
                for key in parents:
                    node = node.get(key) if isinstance(node, dict) else None
                if isinstance(node, dict):
                    node.pop(last, None)
            docs.append(doc)
        return docs[0] == docs[1]
    return False


def bench(work: str, revs: list[str], workload: str) -> int:
    """Run ``workload`` in alternated pairs at the revisions ``revs`` under
    ``work`` and print the comparison; 1 when a run leaves no record."""
    for side, rev in zip("AB", revs):
        export(rev, os.path.join(work, side))
    runs, missing = {}, []
    for k in range(1, PAIRS + 1):
        for side in "BA" if k % 2 else "AB":
            tree = os.path.join(work, side)
            subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                            str(k), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
                           cwd=tree, stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
            try:
                with open(os.path.join(tree, ".perfbench_out",
                                       f"results-{workload}-seed{k}-trace0.json")) as fh:
                    runs[side, k] = json.load(fh)
            except OSError:
                missing.append(f"no record: {side} seed {k}")
            print(f"{side} seed {k} done", file=sys.stderr)
    if missing:
        print("\n".join(missing))
        return 1

    def values(side, get):
        return [get(runs[side, k]) for k in range(1, PAIRS + 1)]
    for metric in BENCHMARK["end_to_end"]:
        a, b = (values(side, lambda r: r["result"]["metrics"][metric["name"]]["value"])
                for side in "AB")
        q1, _, q3 = statistics.quantiles(a, n=4)
        print(f"{metric['name']} ({metric['unit']}): A {statistics.median(a):.4g} (quartiles "
              f"{q1:.4g} to {q3:.4g}), B {statistics.median(b):.4g}, B lower in "
              f"{sum(y < x for x, y in zip(a, b))} of {PAIRS} pairs")
    failed, attempted, imports = ([values(side, get) for side in "AB"] for get in (
        lambda r: r["result"]["failed"], lambda r: r["result"]["attempted"],
        lambda r: r["record"]["import_s"]))
    print(f"failed: A {sum(failed[0])} of {sum(attempted[0])}, "
          f"B {sum(failed[1])} of {sum(attempted[1])}")
    print(f"import_s (raw): A {statistics.median(imports[0]):.4g}, "
          f"B {statistics.median(imports[1]):.4g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A")
    parser.add_argument("b", metavar="B")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--expect", metavar="FILE", help="the intended differences")
    mode.add_argument("--bench", metavar="WORKLOAD", help="time WORKLOAD instead",
                      choices=[w["name"] for w in BENCHMARK["workloads"]])
    args = parser.parse_args(argv)
    try:
        rules = read_expect(args.expect) if args.expect else []
    except OSError as exc:
        parser.error(f"cannot read {args.expect}: {exc.strerror}")
    revs = [subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                            f"{r}^{{commit}}"], capture_output=True, text=True).stdout.strip()
            for r in (args.a, args.b)]
    if not all(revs):
        parser.error(f"not a commit: {[r for r, h in zip((args.a, args.b), revs) if not h]}")
    work = tempfile.mkdtemp(prefix="mixflow-compare-")
    if os.path.commonpath([work, ROOT]) == ROOT:
        os.rmdir(work)
        parser.error(f"{work} lies inside the checkout: set TMPDIR elsewhere")
    if args.bench:
        try:
            return bench(work, revs, args.bench)
        finally:
            shutil.rmtree(work)
    jobs = corpus()
    for side, rev in zip("AB", revs):
        print(f"{side}: {rev}", file=sys.stderr)
        export(rev, os.path.join(work, "tree"))
        run_side(work, jobs)
        os.rename(os.path.join(work, "out"), os.path.join(work, side))
        shutil.rmtree(os.path.join(work, "tree"))
    a, b = (os.path.join(work, side) for side in "AB")
    fa, fb = files(a), files(b)
    both = sorted(fa & fb)
    differ = [p for p in both if not filecmp.cmp(os.path.join(a, p), os.path.join(b, p),
                                                 shallow=False)]
    unexpected, used = [], set()
    for label, paths in (("differs", differ), ("only in A", sorted(fa - fb)),
                         ("only in B", sorted(fb - fa))):
        for path in paths:
            hits = [(line, fields) for line, pattern, fields in rules
                    if fnmatch.fnmatchcase(path, pattern)]
            used.update(line for line, _ in hits)
            if not any(not fields or label == "differs" and differ_only_in(
                    os.path.join(a, path), os.path.join(b, path), fields) for _, fields in hits):
                unexpected.append(f"{label}: {path}")
    moved = len(differ) + len(fa ^ fb)
    print(f"commands {sum(map(len, jobs.values()))}, files {len(fa | fb)}, "
          f"identical {len(both) - len(differ)}, differing {len(differ)}, "
          f"only in A {len(fa - fb)}, only in B {len(fb - fa)}, "
          f"expected {moved - len(unexpected)}")
    unexpected += [f"unused: {line}" for line, _, _ in rules if line not in used]
    for line in unexpected:
        print(line)
    if unexpected:
        print(f"outputs kept in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
