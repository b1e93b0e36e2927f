"""Name every golden value that moves between two source trees, and by how much.

    python tests/golden_diff.py OLD_SRC [NEW_SRC]

Each argument is a ``src`` directory, such as a commit's, unpacked with
``git archive <commit> src | tar -x -C <dir>``; NEW_SRC defaults to this
checkout's.  Every case of ``golden_cases`` runs in a child process, once for
each tree, and its outputs are compared field by field: report and JSON fields
and CSV columns one by one, PGM files as pixel arrays, stdout line by line.
The markdown tables list each field that moved, with its largest absolute and
relative change, its count of changed elements and, for code fields, whether
any rint moved.  Every field they do not list is the same bytes in both trees.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
CODE_FIELDS = {"codes", "oracle"}  # and every PGM


def dump(src):
    """In the child: pickle each case's (name, outputs) to stdout as it runs."""
    import flexdog
    import golden_cases

    if Path(src) not in Path(flexdog.__file__).resolve().parents:
        sys.exit(f"golden_diff: {src} holds no flexdog; {flexdog.__file__} was imported")
    with os.fdopen(os.dup(1), "wb") as out:
        os.dup2(2, 1)  # anything a case prints goes to stderr
        for corpus in golden_cases.CORPORA:
            for case in golden_cases.cases(corpus):
                pickle.dump((f"{corpus}/{case}", golden_cases.outputs(corpus, case)), out)


def run(src):
    """Start a child that runs every case under the flexdog in ``src``."""
    return subprocess.Popen(
        [sys.executable, "-c", "import sys, golden_diff; golden_diff.dump(sys.argv[1])", src],
        stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{TESTS}"})


def records(child):
    """The child's records, read as it writes them; exit if it fails."""
    while True:
        try:
            yield pickle.load(child.stdout)
        except EOFError:
            if child.wait():
                sys.exit(f"golden_diff: the run under {child.args[-1]} failed")
            return


def _leaves(name, value):
    if isinstance(value, list) and any(isinstance(item, dict) for item in value):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(f"{name}/{key}", item)
        return
    try:
        yield name, np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        yield name, np.asarray(json.dumps(value))


def fields(outputs):
    """A case's outputs as comparable arrays, by field name."""
    for name, value in outputs.items():
        if isinstance(value, np.ndarray):
            yield name, value
        elif name.endswith(".json"):
            yield from _leaves(name, json.loads(value))
        elif name.endswith(".pgm"):
            _, size, _, pixels = value.split(b"\n", 3)
            w, h = map(int, size.split())
            yield name, np.frombuffer(pixels, np.uint8).reshape(h, w)
        elif name.endswith(".csv"):
            header, *rows = value.decode().splitlines()
            for column, values in zip(header.split(","), zip(*(r.split(",") for r in rows))):
                yield from _leaves(f"{name}/{column}", list(values))
        elif name == "stdout":
            yield name, np.asarray(value.splitlines())
        else:
            yield from _leaves(name, value)


def change(name, old, new):
    """None if old and new are the same bytes, else (max |Δ|, max relative Δ,
    changed elements, whether any rint moved), nan or None where not numeric."""
    if old.dtype == new.dtype and old.shape == new.shape and old.tobytes() == new.tobytes():
        return None
    if old.shape != new.shape:
        return np.nan, np.nan, f"shape {old.shape} -> {new.shape}", None
    if "U" in old.dtype.kind + new.dtype.kind:
        return np.nan, np.nan, f"{np.count_nonzero(old != new)} of {old.size}", None
    a, b = old.astype(float), new.astype(float)
    with np.errstate(all="ignore"):
        moved = (a != b) & ~(np.isnan(a) & np.isnan(b))
        if not moved.any():
            return np.nan, np.nan, f"same values, dtype {old.dtype} -> {new.dtype}", None
        abs_d = np.abs(a - b)[moved]
        rel_d = abs_d / np.maximum(np.abs(a), np.abs(b))[moved]
    code = name in CODE_FIELDS or name.endswith(".pgm")
    return (abs_d.max(), rel_d.max(), f"{moved.sum()} of {a.size}",
            bool(np.any(np.rint(a) != np.rint(b))) if code else None)


def diff(old_records, new_records):
    """Rows (case, field, change) for every field that moved, and every case."""
    rows, names = [], []
    for (case, old), (new_case, new) in zip(old_records, new_records, strict=True):
        assert case == new_case, (case, new_case)
        names.append(case)
        old, new = dict(fields(old)), dict(fields(new))
        for name in {**old, **new}:
            if name not in old or name not in new:
                side = "new" if name in new else "old"
                rows.append((case, name, (np.nan, np.nan, f"only in {side}", None)))
            elif (moved := change(name, old[name], new[name])) is not None:
                rows.append((case, name, moved))
    return rows, names


def _cells(abs_d, rel_d, changed, rint):
    figures = ["" if np.isnan(x) else f"{x:.2g}" for x in (abs_d, rel_d)]
    return " | ".join([*figures, changed, {True: "yes", False: "no", None: ""}[rint]])


def table(rows, names):
    """Markdown: the equal cases per corpus, each moved field's largest change
    over its corpus, then every moved field of every case."""
    moved = {case for case, _, _ in rows}
    lines = [f"{len(names) - len(moved)} of {len(names)} cases equal, {len(moved)} moved.", ""]
    corpora = {}
    for case in names:
        corpora.setdefault(case.split("/")[0], []).append(case not in moved)
    lines += [f"- `{corpus}`: {sum(equal)} of {len(equal)} cases equal"
              for corpus, equal in corpora.items()]
    if not rows:
        return "\n".join(lines)
    by_field = {}
    for case, name, (abs_d, rel_d, _, rint) in rows:
        key = case.split("/")[0], name
        n, a, r, any_rint = by_field.get(key, (0, np.nan, np.nan, None))
        by_field[key] = (n + 1, np.fmax(a, abs_d), np.fmax(r, rel_d),
                         None if rint is None else bool(any_rint or rint))
    lines += ["", "| corpus | field | max abs Δ | max rel Δ | cases moved | rint moved |",
              "| --- | --- | --- | --- | --- | --- |"]
    lines += [f"| `{corpus}` | `{name}` | {_cells(a, r, str(n), rint)} |"
              for (corpus, name), (n, a, r, rint) in by_field.items()]
    lines += ["", "| case | field | max abs Δ | max rel Δ | changed | rint moved |",
              "| --- | --- | --- | --- | --- | --- |"]
    lines += [f"| `{case}` | `{name}` | {_cells(*moved)} |" for case, name, moved in rows]
    return "\n".join(lines)


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    children = [run(str(Path(src).resolve())) for src in (*argv, TESTS.parent / "src")[:2]]
    try:
        print(table(*diff(*(records(child) for child in children))))
    finally:  # a failed run leaves the other one writing to a pipe no one reads
        for child in children:
            child.kill()


if __name__ == "__main__":
    main(sys.argv[1:])
