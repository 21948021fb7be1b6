"""State groupings: explicit lists, label keys, module owners."""

from pathlib import Path

import pytest

from conftest import diamond_example

from respgame import (GroupingSpec, InputError, PlayerSet, expand_program,
                      parse_program, resolve_grouping)
from respgame.grouping import BY_LABEL, BY_MODULE, EXPLICIT_LIST

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_explicit_groups_three_blocks():
    ts, _obj, _run = diamond_example()
    spec = GroupingSpec(EXPLICIT_LIST, blocks={
        "left": ["s0", "s1"], "mid": ["s2"], "sink": ["s3"]})
    players = resolve_grouping(spec, ts)
    assert len(players) == 3
    assert players.kind == "blocks"
    members = dict(zip(players.names, players.members))
    assert members["left"] == frozenset({0, 1})
    union = frozenset().union(*players.members)
    assert union == frozenset(range(4))


def singleton_grouping(ts):
    return PlayerSet.of_blocks(list(ts.names),
                               [frozenset([i]) for i in range(len(ts))])


def test_singleton_grouping():
    ts, _obj, _run = diamond_example()
    players = singleton_grouping(ts)
    assert len(players) == len(ts)
    assert all(len(m) == 1 for m in players.members)


def test_explicit_groups_must_partition():
    ts, _obj, _run = diamond_example()
    with pytest.raises(InputError, match="missing: s3"):
        resolve_grouping(GroupingSpec(EXPLICIT_LIST, blocks={
            "left": ["s0", "s1"], "mid": ["s2"]}), ts)
    with pytest.raises(InputError, match="overlaps"):
        resolve_grouping(GroupingSpec(EXPLICIT_LIST, blocks={
            "left": ["s0", "s1"], "rest": ["s1", "s2", "s3"]}), ts)


def test_by_label_grouping_two_blocks():
    prog = parse_program("""
module m
  x : [0..3] init 0;
  [] x < 3 -> (x' = x + 1);
  [] x = 3 -> (x' = 0);
endmodule
label "odd" = x = 1 | x = 3;
""")
    expanded = expand_program(prog)
    players = resolve_grouping(GroupingSpec(BY_LABEL, label_names=("odd",)),
                               expanded.ts, labels=expanded.labels)
    assert len(players) == 2
    members = dict(zip(players.names, players.members))
    # evaluate the label by hand on each valuation
    odd = frozenset(expanded.ts.index_of(f"x={v}") for v in (1, 3))
    assert members["odd"] == odd
    assert members["!odd"] == frozenset(range(4)) - odd


def test_by_module_grouping_from_owners():
    expanded = expand_program(parse_program((MODELS / "toggle.prism").read_text()))
    players = resolve_grouping(GroupingSpec(BY_MODULE), expanded.ts,
                               owners=expanded.owners)
    assert set(players.names) == {"left", "right"}
    union = frozenset().union(*players.members)
    assert union == frozenset(range(len(expanded.ts)))


def test_by_module_grouping_requires_exact_owner():
    prog = parse_program("""
module m1
  a : bool init false;
  [] true -> (a' = !a);
endmodule
owner m1 = a;
""")
    expanded = expand_program(prog)
    with pytest.raises(InputError, match="without an owner"):
        resolve_grouping(GroupingSpec(BY_MODULE), expanded.ts,
                         owners=expanded.owners)


def test_block_count_invariants():
    ts, _obj, _run = diamond_example()
    spec = GroupingSpec(EXPLICIT_LIST, blocks={
        "a": ["s0"], "b": ["s1", "s2"], "c": ["s3"]})
    players = resolve_grouping(spec, ts)
    assert len(players) == 3
    for i, m in enumerate(players.members):
        for j in range(i + 1, len(players)):
            assert not m & players.members[j]
