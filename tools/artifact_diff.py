"""Compare the artifacts that two source trees of this repository write on one corpus.

    python3 tools/artifact_diff.py PARENT_TREE CHANGE_TREE

Each tree runs the corpus in a subprocess of its own, with that tree's ``src`` on
``PYTHONPATH``:
  - every ``dnls …`` command of the tree's README CLI block, continuation lines joined;
  - the commands of ``REFUSALS``, each refused as a usage error in well under a second;
  - the argv of the benchmark's ``Sweep`` and ``Evolve`` workloads at seeds 0-3, from
    the tree's ``perfbench/workloads.py``;
  - ``json.dumps(sol.to_dict())`` and the profile CSV of every ``TinyCells`` and
    ``Ladder`` solve at seeds 0-3, and each ladder's own record;
  - the ``oracle_maximize(cfg, p, grid_points=2001)`` answer of every ``TinyCells`` job
    at seeds 0-3: its energy in JSON, its profile as CSV.
The report says which files are identical, manifests compared without ``wall_time``;
for each JSON field and CSV column that differs, the largest absolute and relative
difference; and each command whose exit code, stdout or stderr changed. Exit status 0
when everything is identical, 1 when something differs, 2 when a tree cannot run it.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SEEDS = range(4)
RUNS = "runs.json"  # exit code and output of each command, beside the artifacts
# commands refused before any work, so that a changed refusal shows in the report
REFUSALS = [shlex.split(argv) for argv in (
    "solve --potential quartic --alpha 1 --rho 1e-320 --N 5",
    "evolve --potential quartic --alpha 1 --rho 2 --dt 1e-300 --N 5",
    "evolve --potential quartic --alpha 1 --rho 2 --t-end 1e300 --dt 1e-300 --N 5",
    "homoclinic --potential quartic --alpha 0.3 --rho 2 --N-seq 17.5,33",
    "sweep --param rho --rho 5 --values 2,3 --potential quartic --alpha 1",
    "sweep --param N --values 9.4,17 --potential quartic --alpha 1 --rho 2",
)]


def readme_commands(tree: Path) -> list[list[str]]:
    """The argv of each ``dnls …`` command in the README's CLI block."""
    text = (tree / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dnls ")]


def load_workloads(tree: Path):
    """The tree's ``perfbench/workloads.py`` as a module."""
    spec = importlib.util.spec_from_file_location("workloads", tree / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def write_wave(prefix: str, sol) -> None:
    """A solve's ``to_dict()`` as ``prefix.json`` and its profile as ``prefix.profile.csv``."""
    from dnls.lattice import profile_to_csv

    Path(prefix + ".json").write_text(json.dumps(sol.to_dict()))
    profile_to_csv(sol.profile, prefix + ".profile.csv")


def write_tiny_cells(workloads, seed: int) -> None:
    """Under ``tiny_cells-s<seed>``, each ``TinyCells`` job's solve (``job<k>``) and oracle
    answer: ``job<k>.oracle.json`` holds its energy, ``job<k>.oracle.csv`` its profile."""
    import dnls.solver
    from dnls.lattice import profile_to_csv

    os.mkdir(f"tiny_cells-s{seed}")
    for k, job in enumerate(workloads.TinyCells().build(seed)):
        prefix = f"tiny_cells-s{seed}/job{k}"
        write_wave(prefix, dnls.solver.solve(job["cfg"], job["potential"]))
        best, p_best = dnls.solver.oracle_maximize(job["cfg"], job["potential"],
                                                   grid_points=2001)
        Path(prefix + ".oracle.json").write_text(json.dumps({"oracle_p": p_best}))
        profile_to_csv(best, prefix + ".oracle.csv")


def collect(tree: Path, out: Path) -> None:
    """Run the corpus with the ``dnls`` on ``sys.path`` and write its artifacts under out."""
    import dnls.cli

    workloads = load_workloads(tree)
    commands = [(f"readme-{k}", argv) for k, argv in enumerate(readme_commands(tree))]
    commands += [(f"refusal-{k}", argv) for k, argv in enumerate(REFUSALS)]
    commands += [(f"{w.__name__.lower()}-s{seed}", w().build(seed)[0]["argv"])
                 for w in (workloads.Sweep, workloads.Evolve) for seed in SEEDS]
    runs = {}
    for label, argv in commands:
        (out / label).mkdir()
        os.chdir(out / label)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = dnls.cli.main(argv)
        runs[label] = {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
                       "stderr": stderr.getvalue()}
    os.chdir(out)
    (out / RUNS).write_text(json.dumps(runs, indent=2) + "\n")

    for seed in SEEDS:
        write_tiny_cells(workloads, seed)
        ladder = workloads.Ladder()
        result = ladder.run(ladder.build(seed))[0]
        os.mkdir(f"ladder-s{seed}")
        for n, sol in zip(result.n_sequence, result.solutions):
            write_wave(f"ladder-s{seed}/N={n}", sol)
        Path(f"ladder-s{seed}/result.json").write_text(json.dumps(result.to_dict()))


def _leaves(obj, path=""):
    """(path, value) of every scalar in a JSON value; list indices become ``[]``."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def _json(path: Path):
    """A JSON artifact's value; a manifest's without its ``wall_time``."""
    data = json.loads(path.read_text())
    if path.name.endswith(".manifest.json"):
        data.pop("wall_time", None)
    return data


def _content(path: Path) -> bytes:
    """The bytes compared for identity: a manifest's without its ``wall_time``."""
    if path.name.endswith(".manifest.json"):
        return json.dumps(_json(path)).encode()
    return path.read_bytes()


def _csv_values(path: Path) -> dict:
    """``{(column, row): cell}``; the header itself is row 0 of a column named ``header``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, out = rows[0] if rows else [], {}
    for c, name in enumerate(header):
        out[("header", c)] = name
    for r, row in enumerate(rows[1:], start=1):
        for c, cell in enumerate(row):
            out[(header[c] if c < len(header) else f"#{c}", r)] = cell
    return out


def _number(v):
    """v as a float when it is a number (or a CSV cell holding one), else None."""
    if isinstance(v, bool) or v is None:
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _same(a, b) -> bool:
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return a == b
    return x == y or (math.isnan(x) and math.isnan(y))


def compare(parent: Path, change: Path) -> dict:
    """What differs between two collected corpora.

    ``groups`` maps each top-level directory to (files, differing files); ``only`` lists
    files found on one side; ``fields`` maps a JSON field path (list indices as ``[]``) or
    ``<kind>.csv:<column>`` to ``{"count", "files", "max_abs", "max_rel", "example"}``;
    ``runs`` lists (label, what, parent value, change value) of each changed command, of
    ``commands`` run.
    """
    files = {side: {p.relative_to(root).as_posix() for p in root.rglob("*")
                    if p.is_file() and p.name != RUNS}
             for side, root in (("parent", parent), ("change", change))}
    report = {"groups": {}, "fields": {}, "runs": [],
              "only": sorted((side, rel) for side, other in (("parent", "change"),
                                                              ("change", "parent"))
                             for rel in files[side] - files[other])}
    for rel in sorted(files["parent"] | files["change"]):
        group = rel.split("/", 1)[0]
        total, differ = report["groups"].get(group, (0, 0))
        report["groups"][group] = (total + 1, differ)
        if rel not in files["parent"] or rel not in files["change"]:
            continue
        a, b = parent / rel, change / rel
        if _content(a) == _content(b):
            continue
        report["groups"][group] = (total + 1, differ + 1)
        if rel.endswith(".json"):
            va, vb = dict(_leaves(_json(a))), dict(_leaves(_json(b)))
            keys = {k: re.sub(r"\[\d+\]", "[]", k) for k in va.keys() | vb.keys()}
        else:
            va, vb = _csv_values(a), _csv_values(b)
            kind = a.name.split(".")[-2] + ".csv"
            keys = {k: f"{kind}:{k[0]}" for k in va.keys() | vb.keys()}
        changed = [k for k in keys if k not in va or k not in vb or not _same(va[k], vb[k])]
        seen = set()
        for k in sorted(changed, key=str):
            stat = report["fields"].setdefault(keys[k], {"count": 0, "files": 0, "max_abs": 0.0,
                                                        "max_rel": 0.0, "example": None})
            stat["count"] += 1
            if keys[k] not in seen:
                seen.add(keys[k])
                stat["files"] += 1
            x, y = _number(va.get(k)), _number(vb.get(k))
            if x is not None and y is not None and math.isfinite(x - y):
                stat["max_abs"] = max(stat["max_abs"], abs(x - y))
                stat["max_rel"] = max(stat["max_rel"], abs(x - y) / max(abs(x), abs(y)))
            elif stat["example"] is None:
                stat["example"] = (rel, va.get(k), vb.get(k))
        if not changed:  # the bytes differ, yet every value reads the same
            report["fields"][f"{rel} (formatting or key order)"] = {
                "count": 0, "files": 1, "max_abs": 0.0, "max_rel": 0.0, "example": None}
    runs = [json.loads((root / RUNS).read_text()) for root in (parent, change)]
    report["commands"] = len(runs[0].keys() | runs[1].keys())
    for label in sorted(runs[0].keys() | runs[1].keys()):
        ra, rb = runs[0].get(label, {}), runs[1].get(label, {})
        for what in ("argv", "exit", "stdout", "stderr"):
            if ra.get(what) != rb.get(what):
                report["runs"].append((label, what, ra.get(what), rb.get(what)))
    return report


def format_report(report: dict, parent: Path, change: Path) -> str:
    groups = report["groups"]
    n_files = sum(total for total, _ in groups.values())
    n_differ = sum(differ for _, differ in groups.values())
    lines = [f"parent: {parent}", f"change: {change}",
             f"{n_files - n_differ - len(report['only'])} of {n_files} files identical "
             f"(manifests without wall_time), {n_differ} differ, "
             f"{len(report['only'])} on one side only"]
    lines += [f"  {group:<16} {total:>4} files  "
              + ("identical" if not differ else f"{differ} differ")
              for group, (total, differ) in groups.items()]
    lines += [f"  only in {side}: {rel}" for side, rel in report["only"]]
    if report["fields"]:
        lines.append("fields and columns that differ (largest absolute / relative difference):")
        for key, s in sorted(report["fields"].items()):
            line = (f"  {key:<40} {s['count']:>5} values in {s['files']:>4} files  "
                    f"abs {s['max_abs']:.3g}  rel {s['max_rel']:.3g}")
            if s["example"] is not None:
                rel, a, b = s["example"]
                line += f"  e.g. {rel}: {a!r} -> {b!r}"
            lines.append(line)
    changed = {label for label, *_ in report["runs"]}
    lines.append(f"{report['commands'] - len(changed)} of {report['commands']} commands ran alike "
                 f"(argv, exit code, stdout, stderr)")
    lines += [f"  {label} {what}: {a!r} -> {b!r}" for label, what, a, b in report["runs"]]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--collect":  # the child of one tree
        collect(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as work:
        outs = [Path(work) / side for side in ("parent", "change")]
        children = []
        for tree, out in zip(trees, outs):
            out.mkdir()
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            children.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree), str(out)],
                env=env, cwd=out, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        errors = [child.communicate()[1] for child in children]  # both end before either is read
        for tree, child, stderr in zip(trees, children, errors):
            if child.returncode:
                print(f"collecting {tree} failed:\n{stderr}", file=sys.stderr)
                return 2
        report = compare(*outs)
        print(format_report(report, *trees))
    return 1 if report["only"] or report["fields"] or report["runs"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
