"""The statements of ``src/mixflow`` that the tier-1 tests never run.

From the root of a checkout:

    python3 devtools/unrun.py [PYTEST ARGS ...]

runs the tier-1 tests (``tests/``, or the pytest arguments given) in this
process under a ``sys.settrace`` line tracer that follows only frames of
code in ``src/mixflow``, threads included.  A worker forked by
``runner.concurrently`` inherits the tracer and writes the lines it ran to
a scratch directory when it leaves through ``os._exit``; a worker that is
killed, and every test that starts ``mixflow`` as a subprocess, is not
traced, so what only such runs execute counts as never run.

A statement counts as run when any of its own lines (those of its nested
statements excepted) is.  Every statement never run is printed as
``file:line: text``, unless ``EXEMPT`` lists its file and first line with
the reason no test runs it, as is every exemption that names no such
statement; the exit code is 1 when any line is printed and 0 otherwise.
Docstrings are not statements.  The stdlib is all it uses; a run takes about
twice tier-1's own time.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mixflow")

#: (file, first line of the statement, stripped): why no tier-1 test runs it
EXEMPT = {
    ("cli.py", "sys.exit(cli_main())"): "the installed script's entry, run by subprocess tests",
    ("cli.py", "main()"): "python -m mixflow.cli, run by subprocess tests",
    ("runner.py", "return"):
        "a worker whose caller ended before the worker could ask to die with it",
    ("model.py", "return NotImplemented"):
        "MixtureParams compared with another type: the program never does",
    ("timestepping.py",
     'raise MixflowError(f"tridiagonal system {k} is singular (zero pivot {info})")'):
        "the systems are diagonally dominant with unit walls, so no pivot is zero",
    ("field.py",
     "raise MixflowError(f\"U has shape {U.shape}, expected ({'R, ' * len(lead)}N, {n})\")"):
        "an internal invariant: every State and Trajectory gets arrays of its grid's shape",
    ("field.py", 'raise ValidationError(f"unknown frame {frame!r}")'):
        "an internal invariant: RunConfig, the CLI and load_trajectory refuse the frame first",
    ("mms.py", 'raise ValidationError("need one velocity amplitude per component")'):
        "an argument check: the program builds ManufacturedFields with its default amplitudes",
    ("mms.py", 'raise ValidationError("grid does not match the manufactured domain")'):
        "an argument check: the program samples the fields on their own domain",
}


def statements(path: str) -> list[tuple[int, str, set[int]]]:
    """(first line, its stripped text, own lines) of every statement of the
    module ``path``, docstrings left out."""
    with open(path) as fh:
        source = fh.read()
    text = source.splitlines()
    found = []

    def visit(node):
        children = [c for field in ("body", "orelse", "finalbody", "handlers")
                    for c in getattr(node, field, ())
                    if isinstance(c, (ast.stmt, ast.excepthandler))]
        for child in children:
            visit(child)
        if isinstance(node, ast.Module) or (isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant) and isinstance(node.value.value, str)):
            return
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in children:
            own -= set(range(child.lineno, child.end_lineno + 1))
        for deco in getattr(node, "decorator_list", ()):  # traced on their own lines
            own |= set(range(deco.lineno, deco.end_lineno + 1))
        found.append((node.lineno, text[node.lineno - 1].strip(), own))

    visit(ast.parse(source, path))
    return sorted(found)


def main(args: list[str]) -> int:
    seen: set[tuple[str, int]] = set()
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    dump_dir = tempfile.mkdtemp(prefix="unrun-")
    real_exit = os._exit

    def traced_exit(code):  # a forked worker leaves here: keep the lines it ran
        with open(os.path.join(dump_dir, f"{os.getpid()}.txt"), "w") as fh:
            fh.writelines(f"{name}\t{line}\n" for name, line in seen)
        real_exit(code)

    import pytest  # before the tracer: only mixflow's own frames are followed

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os._exit = traced_exit
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = real_exit
    for name in os.listdir(dump_dir):
        with open(os.path.join(dump_dir, name)) as fh:
            seen.update((path, int(line)) for path, line in (row.split("\t") for row in fh))
        os.remove(os.path.join(dump_dir, name))
    os.rmdir(dump_dir)

    unrun, exempt = [], set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            for line, text, own in statements(path):
                if any((path, k) in seen for k in own):
                    continue
                if (name, text) in EXEMPT:
                    exempt.add((name, text))
                else:
                    unrun.append(f"src/mixflow/{name}:{line}: {text}")
    unrun += [f"exempt but run or gone: src/mixflow/{name}: {text}"
              for name, text in EXEMPT if (name, text) not in exempt]
    print(f"tests exited {status}; {len(unrun)} statements never run outside the exemptions")
    for line in unrun:
        print(line)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
