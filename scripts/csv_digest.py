#!/usr/bin/env python3
"""Run every CLI command on short configs and print a sha256 per CSV.

Two checkouts that print the same lines write byte-identical CSVs for these
runs. Compare a change against its parent with

    python3 scripts/csv_digest.py --against <parent checkout>/src

which runs each tree's own copy of this script, with that tree's short
configs and `configs/*.json`, in a subprocess.  It prints this tree's lines,
then every line that differs, the line counts of both trees' `viaplan/*.py`
(with and without `cli.py`, then per module as `timing.py 358 -> 332`, the
other tree's count first), the number of public names each tree's `viaplan`
package exports and the number of config keys each of their commands
accepts, and exits 1 when any line differs.  Lines are compared by name: a
CSV line's name is its path, a `digest` line's is the line without its
digest, and an exit line `<run> exit=<code>` or `viabench <workload>
exit=<code>` is named without its `=<code>`, its codes standing for the
digests.  A name whose digest differs, or that only one tree prints, is a
difference, printed as the entry that would list it.  A planned difference
is listed in `scripts/digest_changes.json` as {name: {"from": base digest,
"to": new digest}}, with null for the tree that prints no such line; it is
printed as accepted and does not fail the comparison.  An entry whose
`from` is not the base's digest matches nothing, so once the change is in
the base the list has no effect; each listed entry that matched no
differing line is printed as `unused: …`, which does not change the exit
code, so that stale entries show.  With --against, each tree's lines also
hold the exit code and `digest` lines of

    python3 viabench/run.py --workload <w> --seed 1 --seconds 1 --trace 1

for every workload, run from the checkout that holds that tree's src.

The short configs are the bundled ones in `configs/` with fewer runs,
iterations and steps, and a run is its command and config alone: the
disturbed closed loop sets `mpc.disturb`, and the greedy baseline is the
`greedy` command.  The whole set takes about ten seconds on two cores, and
the viabench runs about twenty seconds per tree.
"""

import argparse
import ast
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, command, bundled config, section overrides)
RUNS = (
    ("plan_1d", "plan", "timeopt1d.json",
     {"optimizer": {"runs": 2, "max_iterations": 80}}),
    ("plan_2d", "plan", "cluttered2d.json",
     {"optimizer": {"runs": 2, "max_iterations": 40, "pop_size": 16}}),
    ("plan_custom", "plan", "cluttered2d.json",
     {"optimizer": {"runs": 2, "max_iterations": 40, "pop_size": 16},
      "world": {"type": "custom", "disks": [[0.5, 0.5, 0.15]],
                "rects": [[0.25, 0.65, 0.35, 0.95]], "robot_radius": 0.02}}),
    ("mpc", "mpc", "mpc2d.json",
     {"mpc": {"iterations_per_step": 4, "pop_size": 16, "max_steps": 60}}),
    ("mpc_disturb", "mpc", "mpc2d.json",
     {"mpc": {"iterations_per_step": 4, "pop_size": 16, "max_steps": 60,
              "disturb": {"step": 5, "dq": [0.05, 0]}}}),
    ("mpc_lag", "mpc", "mpc2d.json",
     {"mpc": {"iterations_per_step": 4, "pop_size": 16, "max_steps": 60,
              "plant": "lag"}}),
    ("mpc_greedy", "greedy", "mpc2d.json", {"mpc": {"max_steps": 40}}),
    # Few iterations: its invalid steps run their own plan as well as replay one.
    ("mpc_sparse", "mpc", "mpc2d.json",
     {"mpc": {"iterations_per_step": 1, "pop_size": 4, "seed": 1, "max_steps": 60}}),
    ("ablate_nvia", "ablate-nvia", "ablate_nvia.json",
     {"optimizer": {"n_list": [1, 2, 4], "seeds": 2, "max_iterations": 80}}),
    ("ablate_chol", "ablate-chol", "ablate_chol.json",
     {"optimizer": {"seeds": 2, "max_iterations": 30}}),
)


# The planned digest changes that --against accepts.
CHANGES = ROOT / "scripts" / "digest_changes.json"

# The viabench workloads whose traced digests --against compares.
WORKLOADS = ("offline_2d", "timeopt_1d", "mpc_2d")


# The config schemas each command reads, by their names in viaplan.cli.
SCHEMAS = {
    "plan": ("PROBLEM_KEYS", "PLAN_OPT_KEYS", "COSTS_KEYS", "WORLD_KEYS"),
    "mpc": ("PROBLEM_KEYS", "MPC_KEYS", "COSTS_KEYS", "WORLD_KEYS"),
    "greedy": ("PROBLEM_KEYS", "MPC_KEYS", "COSTS_KEYS", "WORLD_KEYS"),
    "ablate-nvia": ("PROBLEM_KEYS", "NVIA_OPT_KEYS", "COSTS_KEYS"),
    "ablate-chol": ("PROBLEM_KEYS", "CHOL_OPT_KEYS", "COSTS_KEYS", "WORLD_KEYS"),
}


def short_config(name: str, overrides: dict) -> dict:
    cfg = json.loads((ROOT / "configs" / name).read_text())
    for section, values in overrides.items():
        cfg[section].update(values)
    return cfg


def digests(src: str) -> list[str]:
    """The output of the csv_digest.py of the checkout that holds src, run on
    that src in a subprocess: its config-key line, then its digest lines."""
    script = Path(src).resolve().parent / "scripts" / "csv_digest.py"
    out = subprocess.run([sys.executable, str(script), "--src", src],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def bench_digests(src: str) -> list[str]:
    """The exit code and `digest` lines of a traced viabench run of each
    workload, from the checkout that holds src."""
    lines = []
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, "viabench/run.py", "--workload", workload,
                              "--seed", "1", "--seconds", "1", "--trace", "1"],
                             cwd=Path(src).resolve().parent, capture_output=True, text=True)
        lines.append(f"viabench {workload} exit={out.returncode}")
        lines.extend(line for line in out.stdout.splitlines() if line.startswith("digest "))
    return lines


def module_lines(src: str) -> dict[str, int]:
    """Lines of each module of the viaplan package in src, by file name."""
    return {f.name: len(f.read_text().splitlines())
            for f in Path(src, "viaplan").glob("*.py")}


def exports(src: str) -> int:
    """The public names that the `from . import` lines of the viaplan
    package's `__init__.py` in src bind."""
    tree = ast.parse(Path(src, "viaplan", "__init__.py").read_text())
    return sum(not (alias.asname or alias.name).startswith("_")
               for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names)


def line_counts(counts: dict[str, int]) -> str:
    """The total of module_lines' counts, and the total without cli.py."""
    total = sum(counts.values())
    return f"{total} ({total - counts.get('cli.py', 0)} without cli.py)"


def per_module(mine: dict[str, int], theirs: dict[str, int]) -> str:
    """Each module's line count in the other tree, then in this one; 0 for a
    module that a tree does not have."""
    return ", ".join(f"{name} {theirs.get(name, 0)} -> {mine.get(name, 0)}"
                     for name in sorted(mine.keys() | theirs.keys()))


def named_digest(line: str) -> tuple[str, str]:
    """(name, digest) of a CSV digest line or a viabench `digest` line, or of
    an exit line `<run> exit=<code>` as (`<run> exit`, code).  Any other line
    is its own name, with an empty digest."""
    if line.startswith("digest "):
        name, _, digest = line.rpartition(" ")
        return name, digest
    run, sep, code = line.rpartition(" exit=")
    if sep:
        return f"{run} exit", code
    digest, _, name = line.rpartition("  ")
    return name, digest


def differences(mine: list[str], theirs: list[str], changes: dict) -> tuple[dict, dict]:
    """Every name whose digest differs between this tree's lines and the
    base's, as {name: {"from": base digest, "to": this tree's}} with None for
    a tree that prints no such line: (those that changes lists exactly as
    they differ, the others)."""
    new, base = (dict(map(named_digest, lines)) for lines in (mine, theirs))
    differ = {name: {"from": base.get(name), "to": new.get(name)}
              for name in {**new, **base} if base.get(name) != new.get(name)}
    listed = {name: entry for name, entry in differ.items() if changes.get(name) == entry}
    return listed, {name: entry for name, entry in differ.items() if name not in listed}


def compare(src: str, other: str) -> int:
    (my_keys, *mine), (their_keys, *theirs) = (digests(tree) + bench_digests(tree)
                                               for tree in (src, other))
    print("\n".join(mine))
    changes = json.loads(CHANGES.read_text())
    listed, differ = differences(mine, theirs, changes)
    unused = {name: entry for name, entry in changes.items() if name not in listed}
    for verdict, entries in (("accepted", listed), ("differs", differ), ("unused", unused)):
        for name, entry in entries.items():
            print(f"{verdict}: {json.dumps({name: entry})[1:-1]}")
    lines, their_lines = module_lines(src), module_lines(other)
    print(f"viaplan/*.py lines: {line_counts(lines)}, against {line_counts(their_lines)}")
    print(f"viaplan/*.py lines per module: {per_module(lines, their_lines)}")
    print(f"viaplan exports: {exports(src)} names, against {exports(other)}")
    print(f"{my_keys}, against {their_keys.partition(': ')[2]}")
    print(f"{len(differ)} lines differ" if differ else
          f"every CSV identical but {len(listed)} listed changes" if listed else
          "every CSV identical")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the viaplan package to run")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="also run the copy of this script in OTHER_SRC's "
                             "checkout on OTHER_SRC and exit 1 if any line, "
                             "by name, differs but those listed in "
                             "scripts/digest_changes.json")
    args = parser.parse_args()
    if args.against:
        return compare(args.src, args.against)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from viaplan import cli

    print("config keys: " + ", ".join(
        f"{command} {sum(len(getattr(cli, name)[0]) for name in names)}"
        for command, names in SCHEMAS.items()))
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, config, overrides in RUNS:
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            cfg_path = run_dir / "config.json"
            cfg_path.write_text(json.dumps(short_config(config, overrides)))
            code = cli.main([command, str(cfg_path), "--out-dir",
                             str(run_dir / "out"), "--quiet"])
            print(f"{name} exit={code}")
            for csv in sorted((run_dir / "out").glob("*.csv")):
                digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{csv.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
