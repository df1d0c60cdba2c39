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

    commands C, files F, identical I, differing D, only in A X, only in B Y

followed by every path that differs or exists on one side only; the exit
code is 1 when there is any such path, and ``DIR`` is then kept for a look,
and 0 otherwise, ``DIR`` removed.  A corpus run may
exit non-zero (an audit FAIL, a blow-up): exit codes are compared, never
required to be 0.  To compare uncommitted work, pass ``$(git stash create)``
as a revision.  The stdlib is all it uses.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import filecmp
import glob
import io
import os
import shutil
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A")
    parser.add_argument("b", metavar="B")
    args = parser.parse_args(argv)
    revs = [subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                            f"{r}^{{commit}}"], capture_output=True, text=True).stdout.strip()
            for r in (args.a, args.b)]
    if not all(revs):
        parser.error(f"not a commit: {[r for r, h in zip((args.a, args.b), revs) if not h]}")
    work = tempfile.mkdtemp(prefix="mixflow-compare-")
    if os.path.commonpath([work, ROOT]) == ROOT:
        os.rmdir(work)
        parser.error(f"{work} lies inside the checkout: set TMPDIR elsewhere")
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
    print(f"commands {sum(map(len, jobs.values()))}, files {len(fa | fb)}, "
          f"identical {len(both) - len(differ)}, differing {len(differ)}, "
          f"only in A {len(fa - fb)}, only in B {len(fb - fa)}")
    for label, paths in (("differs", differ), ("only in A", sorted(fa - fb)),
                         ("only in B", sorted(fb - fa))):
        for path in paths:
            print(f"{label}: {path}")
    if differ or fa != fb:
        print(f"outputs kept in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
