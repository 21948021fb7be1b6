"""State groupings: explicit block lists, by-module owners, by-label keys."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InputError, read_text
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
        names, members = [], []
        covered = set()
        for block, states in spec.blocks.items():
            idx = frozenset(ts.index_of(s) for s in states)
            if not idx:
                raise InputError(f"group {block!r} is empty")
            if idx & covered:
                overlap = sorted(ts.names[s] for s in idx & covered)
                raise InputError(
                    f"group {block!r} overlaps: " + ", ".join(overlap))
            covered |= idx
            names.append(block)
            members.append(idx)
        if covered != set(range(n)):
            missing = sorted(ts.names[s] for s in set(range(n)) - covered)
            raise InputError("groups do not partition the states; missing: "
                             + ", ".join(missing))
        return PlayerSet.of_blocks(names, members)
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
        blocks: Dict[str, set] = {}
        for s, mod_name in assigned.items():
            blocks.setdefault(mod_name, set()).add(s)
        return PlayerSet.of_blocks(list(blocks),
                                   [frozenset(v) for v in blocks.values()])
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
    return PlayerSet.of_blocks(list(blocks),
                               [frozenset(v) for v in blocks.values()])


def load_grouping_file(path) -> GroupingSpec:
    """Explicit-list grouping document: block name -> state-name array."""
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(raw, dict) or not all(
            isinstance(v, list) for v in raw.values()):
        raise InputError("grouping file must map block names to state lists")
    return GroupingSpec(EXPLICIT_LIST, blocks=raw)
