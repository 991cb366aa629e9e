"""The name-keyed comparison of `scripts/csv_digest.py --against`: a line
that differs, or that only one tree prints, passes only when
`scripts/digest_changes.json` names it with the base's digest (or exit
code, or null for no line) as `from` and this tree's as `to`; a listed
entry that matches no difference is printed as unused.  Also the line and
export counts it prints for both trees."""

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

BASE = ["mpc exit=0", "aa11  mpc/episode.csv", "aa12  mpc/summary.csv", "mpc_lag exit=1",
        "viabench offline_2d exit=0", "viabench mpc_2d exit=0",
        "digest mpc_2d first 6 inputs cc33"]


def changed(replace: dict, lines=BASE) -> list[str]:
    """lines with each key of replace replaced by its value."""
    return [replace.get(line, line) for line in lines]


def verdicts(csv_digest, mine, theirs=BASE, changes=CHANGES):
    """The names differences() accepts and the names it fails."""
    listed, differ = csv_digest.differences(mine, theirs, changes)
    return list(listed), list(differ)


def test_identical_lines_differ_nowhere(csv_digest):
    assert csv_digest.differences(BASE, list(BASE), CHANGES) == ({}, {})


def test_a_listed_change_is_accepted(csv_digest):
    mine = changed({"aa11  mpc/episode.csv": "bb22  mpc/episode.csv",
                    "digest mpc_2d first 6 inputs cc33": "digest mpc_2d first 6 inputs dd44"})
    assert csv_digest.differences(mine, BASE, CHANGES) == (
        {name: CHANGES[name] for name in ("mpc/episode.csv", "digest mpc_2d first 6 inputs")},
        {})


def test_a_listed_exit_change_is_accepted(csv_digest):
    # A CLI run's and a viabench workload's exit line, the codes as digests.
    assert csv_digest.named_digest("mpc_lag exit=0") == ("mpc_lag exit", "0")
    mine = changed({"mpc_lag exit=1": "mpc_lag exit=0",
                    "viabench mpc_2d exit=0": "viabench mpc_2d exit=1"})
    assert verdicts(csv_digest, mine) == (["mpc_lag exit", "viabench mpc_2d exit"], [])


def test_an_unlisted_exit_change_fails(csv_digest):
    # Another run, another workload, or the listed codes on another line.
    assert verdicts(csv_digest, changed({"viabench offline_2d exit=0":
                                         "viabench offline_2d exit=1"})) == (
        [], ["viabench offline_2d exit"])
    assert verdicts(csv_digest, changed({"mpc exit=0": "mpc exit=1"})) == ([], ["mpc exit"])
    assert verdicts(csv_digest, BASE, changed({"mpc exit=0": "mpc exit=1"})) == (
        [], ["mpc exit"])


def test_a_wrong_exit_code_fails(csv_digest):
    # A `from` that is not the base's code, a `to` that is not this tree's,
    # and the listed codes the wrong way round.
    assert verdicts(csv_digest, changed({"mpc_lag exit=1": "mpc_lag exit=0"}),
                    changed({"mpc_lag exit=1": "mpc_lag exit=2"})) == ([], ["mpc_lag exit"])
    assert verdicts(csv_digest, changed({"mpc_lag exit=1": "mpc_lag exit=2"})) == (
        [], ["mpc_lag exit"])
    assert verdicts(csv_digest, BASE, changed({"mpc_lag exit=1": "mpc_lag exit=0"})) == (
        [], ["mpc_lag exit"])


def test_an_unlisted_change_fails(csv_digest):
    # Reported with both sides, as the entry that would list it.
    assert csv_digest.differences(changed({"aa12  mpc/summary.csv": "bb22  mpc/summary.csv"}),
                                  BASE, CHANGES) == (
        {}, {"mpc/summary.csv": {"from": "aa12", "to": "bb22"}})
    # The listed digest pair on another line.
    assert verdicts(csv_digest, changed({"aa12  mpc/summary.csv": "bb22  mpc/summary.csv"}),
                    changed({"aa12  mpc/summary.csv": "aa11  mpc/summary.csv"})) == (
        [], ["mpc/summary.csv"])
    # A renamed line is one line removed and another added.
    mine = changed({"digest mpc_2d first 6 inputs cc33": "digest mpc_2d first 7 inputs dd44"})
    assert verdicts(csv_digest, mine) == (
        [], ["digest mpc_2d first 7 inputs", "digest mpc_2d first 6 inputs"])


def test_a_wrong_digest_fails(csv_digest):
    # A wrong `to`, and a `from` that is not the base's: once the change is
    # in the base, the entry matches nothing and identity is strict again.
    assert verdicts(csv_digest, changed({"aa11  mpc/episode.csv": "ee55  mpc/episode.csv"})) \
        == ([], ["mpc/episode.csv"])
    merged = changed({"aa11  mpc/episode.csv": "bb22  mpc/episode.csv"})
    assert verdicts(csv_digest, changed({"bb22  mpc/episode.csv": "ff66  mpc/episode.csv"},
                                        merged), merged) == ([], ["mpc/episode.csv"])


def test_a_line_only_in_this_tree_needs_a_null_from(csv_digest):
    mine = BASE + ["ab01  new/out.csv"]
    assert verdicts(csv_digest, mine) == ([], ["new/out.csv"])
    assert verdicts(csv_digest, mine, changes={"new/out.csv": {"from": "ab01", "to": "ab01"}}) \
        == ([], ["new/out.csv"])
    assert verdicts(csv_digest, mine, changes={"new/out.csv": {"from": None, "to": "ab02"}}) \
        == ([], ["new/out.csv"])
    assert verdicts(csv_digest, mine, changes={"new/out.csv": {"from": None, "to": "ab01"}}) \
        == (["new/out.csv"], [])


def test_a_line_only_in_the_base_needs_a_null_to(csv_digest):
    mine = [line for line in BASE if line != "mpc_lag exit=1"]
    assert verdicts(csv_digest, mine) == ([], ["mpc_lag exit"])
    assert verdicts(csv_digest, mine, changes={"mpc_lag exit": {"from": "1", "to": "0"}}) \
        == ([], ["mpc_lag exit"])
    assert verdicts(csv_digest, mine, changes={"mpc_lag exit": {"from": "1", "to": None}}) \
        == (["mpc_lag exit"], [])


def test_a_run_inserted_mid_list_reports_only_its_own_lines(csv_digest):
    # Pairing by position would shift every later line; by name, the rest
    # still pair with themselves.
    run = ["new exit=0", "ab01  new/episode.csv"]
    mine = BASE[:3] + run + BASE[3:]
    assert verdicts(csv_digest, mine, changes={}) == ([], ["new exit", "new/episode.csv"])
    dropped = BASE[:1] + BASE[3:]
    assert verdicts(csv_digest, dropped, changes={}) == (
        [], ["mpc/episode.csv", "mpc/summary.csv"])


def test_a_line_without_a_name_is_never_dropped(csv_digest):
    # Any other line is its own name, so one that only a tree prints differs.
    assert csv_digest.named_digest("Traceback (most recent call last):") == (
        "Traceback (most recent call last):", "")
    assert verdicts(csv_digest, BASE + ["boom"]) == ([], ["boom"])
    assert verdicts(csv_digest, BASE, BASE + ["boom"]) == ([], ["boom"])


def test_the_committed_list_names_digest_lines(csv_digest):
    # Every entry names a line, and a null side stands for no such line.
    changes = json.loads(csv_digest.CHANGES.read_text())
    for name, entry in changes.items():
        assert set(entry) == {"from", "to"} and entry["from"] != entry["to"]
        for digest in filter(None, entry.values()):
            line = (f"{name}={digest}" if name.endswith(" exit") else
                    f"{digest}  {name}" if "/" in name else f"{name} {digest}")
            assert csv_digest.named_digest(line) == (name, digest)


def test_a_listed_entry_that_matches_nothing_is_printed_unused(csv_digest, monkeypatch,
                                                              tmp_path, capsys):
    # A stale entry shows, but only a difference that no entry lists fails.
    changes = tmp_path / "changes.json"
    changes.write_text(json.dumps(CHANGES))
    monkeypatch.setattr(csv_digest, "CHANGES", changes)
    monkeypatch.setattr(csv_digest, "bench_digests", lambda tree: [])
    monkeypatch.setattr(csv_digest, "module_lines", lambda tree: {"cli.py": 1})
    monkeypatch.setattr(csv_digest, "exports", lambda tree: 1)
    episode = changed({"aa11  mpc/episode.csv": "bb22  mpc/episode.csv"})
    summary = changed({"aa12  mpc/summary.csv": "bb22  mpc/summary.csv"}, episode)
    for mine, code in ((episode, 0), (summary, 1)):
        lines = {"mine": ["config keys: mpc 1", *mine], "base": ["config keys: mpc 1", *BASE]}
        monkeypatch.setattr(csv_digest, "digests", lines.get)
        assert csv_digest.compare("mine", "base") == code
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("accepted: ", "unused: "))]
        assert verdicts == ['accepted: "mpc/episode.csv": {"from": "aa11", "to": "bb22"}'] + [
            f"unused: {json.dumps({name: CHANGES[name]})[1:-1]}"
            for name in list(CHANGES)[1:]]


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
        "from .mpc import (LagPlant, _at_goal,\n"
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
