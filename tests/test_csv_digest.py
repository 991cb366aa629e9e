"""The planned-change list of `scripts/csv_digest.py --against`: a differing
line passes only when an entry names it with the base's digest (or exit
code) as `from` and this tree's as `to`.  Also the line and export counts it prints for
both trees."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def csv_digest():
    spec = importlib.util.spec_from_file_location(
        "csv_digest", ROOT / "scripts" / "csv_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHANGES = {"mpc/episode.csv": {"from": "aa11", "to": "bb22"},
           "digest mpc_2d first 6 inputs": {"from": "cc33", "to": "dd44"},
           "mpc_lag exit": {"from": "1", "to": "0"},
           "viabench mpc_2d exit": {"from": "0", "to": "1"}}


def test_a_listed_change_is_accepted(csv_digest):
    assert csv_digest.accepted("bb22  mpc/episode.csv", "aa11  mpc/episode.csv", CHANGES)
    assert csv_digest.accepted("digest mpc_2d first 6 inputs dd44",
                               "digest mpc_2d first 6 inputs cc33", CHANGES)


def test_a_listed_exit_change_is_accepted(csv_digest):
    # A CLI run's and a viabench workload's exit line, the codes as digests.
    assert csv_digest.named_digest("mpc_lag exit=0") == ("mpc_lag exit", "0")
    assert csv_digest.accepted("mpc_lag exit=0", "mpc_lag exit=1", CHANGES)
    assert csv_digest.accepted("viabench mpc_2d exit=1", "viabench mpc_2d exit=0",
                               CHANGES)


def test_an_unlisted_exit_change_fails(csv_digest):
    # Another run, another workload, or the listed codes on another line.
    assert not csv_digest.accepted("mpc exit=0", "mpc exit=1", CHANGES)
    assert not csv_digest.accepted("viabench offline_2d exit=1",
                                   "viabench offline_2d exit=0", CHANGES)
    assert not csv_digest.accepted("mpc_lag exit=0", "mpc exit=1", CHANGES)


def test_a_wrong_exit_code_fails(csv_digest):
    # A `from` that is not the base's code, and a `to` that is not this tree's.
    assert not csv_digest.accepted("mpc_lag exit=0", "mpc_lag exit=2", CHANGES)
    assert not csv_digest.accepted("mpc_lag exit=1", "mpc_lag exit=0", CHANGES)
    assert not csv_digest.accepted("mpc_lag exit=2", "mpc_lag exit=1", CHANGES)


def test_an_unlisted_change_fails(csv_digest):
    assert not csv_digest.accepted("bb22  mpc/summary.csv", "aa11  mpc/summary.csv",
                                   CHANGES)
    # A listed digest pair on another line, an exit code or a line count.
    assert not csv_digest.accepted("bb22  mpc_lag/episode.csv",
                                   "aa11  mpc/episode.csv", CHANGES)
    assert not csv_digest.accepted("mpc exit=1", "mpc exit=0", CHANGES)
    assert not csv_digest.accepted("digest mpc_2d first 7 inputs dd44",
                                   "digest mpc_2d first 6 inputs cc33", CHANGES)


def test_a_wrong_digest_fails(csv_digest):
    # A wrong `to`, and a `from` that is not the base's: once the change is
    # in the base, the entry matches nothing and identity is strict again.
    assert not csv_digest.accepted("ee55  mpc/episode.csv", "aa11  mpc/episode.csv",
                                   CHANGES)
    assert not csv_digest.accepted("ff66  mpc/episode.csv", "bb22  mpc/episode.csv",
                                   CHANGES)


def test_the_committed_list_names_digest_lines(csv_digest):
    changes = json.loads(csv_digest.CHANGES.read_text())
    for name, entry in changes.items():
        assert set(entry) == {"from", "to"} and entry["from"] != entry["to"]
        for digest in entry.values():
            line = (f"{name}={digest}" if name.endswith(" exit") else
                    f"{digest}  {name}" if "/" in name else f"{name} {digest}")
            assert csv_digest.named_digest(line) == (name, digest)


def test_line_counts_per_module(csv_digest, tmp_path):
    # The totals, and each module's count in the other tree, then in this
    # one; a module that only one tree has counts 0 in the other.
    trees = {"mine": {"timing.py": 3, "cli.py": 2, "new.py": 4},
             "theirs": {"timing.py": 5, "cli.py": 2, "old.py": 1}}
    for tree, files in trees.items():
        package = tmp_path / tree / "viaplan"
        package.mkdir(parents=True)
        for name, lines in files.items():
            (package / name).write_text("x = 1\n" * lines)
    mine, theirs = (csv_digest.module_lines(str(tmp_path / tree)) for tree in trees)
    assert mine == trees["mine"] and theirs == trees["theirs"]
    assert csv_digest.line_counts(mine) == "9 (7 without cli.py)"
    assert csv_digest.per_module(mine, theirs) == (
        "cli.py 2 -> 2, new.py 0 -> 4, old.py 1 -> 0, timing.py 5 -> 3")


def test_exports_count_public_package_names(csv_digest, tmp_path):
    # Every name that __init__.py imports from the package's own modules,
    # under its bound name, but not private names or outside imports.
    package = tmp_path / "viaplan"
    package.mkdir()
    (package / "__init__.py").write_text(
        '"""Doc."""\n'
        "import numpy as np\n"
        "from typing import Any\n"
        "from .worlds import World2D, bundled_start_goal\n"
        "from .mpc import (LagPlant, _step_result,\n"
        "                  run_closed_loop as run)\n"
        "from .spline import _private as public\n"
        '__version__ = "0.1.0"\n')
    assert csv_digest.exports(str(tmp_path)) == 5
    # On this tree: the package's public attributes that are not modules.
    import types

    import viaplan

    public = [name for name, value in vars(viaplan).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert csv_digest.exports(str(ROOT / "src")) == len(public) > 0
