"""State groupings: explicit block lists, by-module owners, by-label keys."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InputError, decode_json, read_text
from .model import TransitionSystem
from .shapley import PlayerSet

EXPLICIT_LIST = "explicit-list"
BY_MODULE = "by-module"
BY_LABEL = "by-label"


@dataclass(frozen=True)
class GroupingSpec:
    """How to partition the state space into blocks.

    explicit-list: `blocks` maps block names to state-name lists.
    by-module: use the owner predicates declared in the program; every
    state must satisfy exactly one of them.
    by-label: key states by the truth values of the named labels.
    """

    mode: str
    blocks: Optional[Dict[str, List[str]]] = None
    label_names: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.mode not in (EXPLICIT_LIST, BY_MODULE, BY_LABEL):
            raise InputError(f"unknown grouping mode {self.mode!r}")


def resolve_grouping(spec: GroupingSpec, ts: TransitionSystem,
                     labels: Optional[Dict[str, frozenset]] = None,
                     owners: Optional[Dict[str, frozenset]] = None) -> PlayerSet:
    """Materialize the grouping as block players partitioning the states."""
    n = len(ts)
    if spec.mode == EXPLICIT_LIST:
        if not spec.blocks:
            raise InputError("explicit-list grouping needs blocks")
        return PlayerSet.of_blocks(
            list(spec.blocks),
            _partition(spec.blocks, ts.index_of, ts.names))
    if spec.mode == BY_MODULE:
        if not owners:
            raise InputError("by-module grouping needs owner declarations")
        assigned = {}
        for mod_name in sorted(owners):
            for s in owners[mod_name]:
                if s in assigned:
                    raise InputError(
                        f"state {ts.names[s]} owned by both "
                        f"{assigned[s]!r} and {mod_name!r}")
                assigned[s] = mod_name
        unowned = sorted(ts.names[s] for s in range(n) if s not in assigned)
        if unowned:
            raise InputError("states without an owner: " + ", ".join(unowned))
        blocks = {name: states for name, states in owners.items() if states}
        return PlayerSet.of_blocks(list(blocks), list(blocks.values()))
    # by-label
    if not spec.label_names:
        raise InputError("by-label grouping needs label names")
    labels = labels or {}
    for name in spec.label_names:
        if name not in labels:
            raise InputError(f"unknown label {name!r}")
    blocks = {}
    for s in range(n):
        key = "&".join(name if s in labels[name] else f"!{name}"
                       for name in spec.label_names)
        blocks.setdefault(key, set()).add(s)
    return PlayerSet.of_blocks(list(blocks), list(blocks.values()))


def _partition(groups: Dict[str, List[str]], resolve, names) -> List[frozenset]:
    """The member index sets of the blocks in `groups` (block name -> state
    names, mapped by `resolve(name, where)`); an InputError unless every
    block is non-empty, no two overlap and together they cover `names`."""
    members = []
    covered = set()
    for block, states in groups.items():
        where = f"group {block!r}"
        idx = frozenset([resolve(s, where) for s in states])
        if not idx:
            raise InputError(f"{where} must be a non-empty list")
        if idx & covered:
            overlap = sorted(names[s] for s in idx & covered)
            raise InputError(f"{where} overlaps: " + ", ".join(overlap))
        covered |= idx
        members.append(idx)
    if len(covered) != len(names):
        missing = sorted(set(names) - {names[s] for s in covered})
        raise InputError("groups do not partition the states; missing: "
                         + ", ".join(missing))
    return members


def load_grouping_file(path) -> GroupingSpec:
    """Explicit-list grouping document: block name -> state-name array."""
    raw = decode_json(read_text(path))
    if not isinstance(raw, dict) or not all(
            isinstance(v, list) for v in raw.values()):
        raise InputError("grouping file must map block names to state lists")
    for block, members in raw.items():
        if not all(isinstance(name, str) for name in members):
            raise InputError(f"group {block!r} must list state names")
    return GroupingSpec(EXPLICIT_LIST, blocks=raw)
