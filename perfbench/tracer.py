"""Spans around respgame's layer functions, recorded from outside the package.

`Tracer.install()` wraps the public function of each layer listed in
TRACED.  The package's modules import with `from .games import build_game`,
which copies the binding into the importing module, so the wrapper replaces
the function under every name in every `respgame` module that refers to it
(games.build_game, shapley.build_game, refinement.build_game, ...).
`PayoffGame.gamma` is replaced on the class.

A span is [name, start, end, parent index, payload].  Spans stay in memory
while the program runs; `layer_metrics()` turns them into the per-layer
metrics once it has returned.  Self time is a span's duration minus the
durations of its direct children, which nest inside it and do not overlap
because the program runs on one thread.
"""

from __future__ import annotations

import sys
import time


def _arena_size(args, game):
    succ = game.arena.succ
    return len(succ), sum(map(len, succ))


def _expanded_size(args, expanded):
    return len(expanded.ts), expanded.ts.num_edges()


# (module, function, payload taken from (args, result) after the call)
TRACED = (
    ("explicit", "load_explicit", None),
    ("explicit", "build_system", None),
    ("modlang", "expand_program", _expanded_size),
    ("model", "find_violating_run", None),
    ("grouping", "resolve_grouping", lambda args, players: len(players)),
    ("shapley", "prune_dummies", None),
    ("shapley", "shapley_exact", lambda args, report: len(args[0].players)),
    ("games", "build_game", _arena_size),
    ("games", "engrave", None),
    ("games", "solve", None),
    ("refinement", "refine_loop", None),
    ("refinement", "find_witness", None),
    ("refinement", "refine_block", None),
    ("refinement", "responsibility_via_refinement", None),
    ("positivity", "rho_order", None),
    ("positivity", "positivity_buechi_opt", None),
    ("exports", "render_table", None),
    ("exports", "records_document", None),
    ("exports", "render_trace_text", None),
    ("exports", "dot_document", None),
)

GAMMA = "shapley.PayoffGame.gamma"


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def _wrap(self, name, fn, payload=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if payload is not None:
                span[4] = payload(args, result)
            return result

        return traced

    def _wrap_gamma(self, gamma):
        """gamma with a payload that is True when the memo answered."""
        spans, traced = self.spans, self._wrap(GAMMA, gamma)

        def counted(pg, mask):
            hits, index = pg.memo_hits, len(spans)
            value = traced(pg, mask)
            spans[index][4] = pg.memo_hits > hits
            return value

        return counted

    def install(self) -> None:
        """Replace every binding of each traced function with its wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "respgame" or name.startswith("respgame.")]
        for module_name, attr, payload in TRACED:
            original = getattr(sys.modules[f"respgame.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, payload)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        payoff_game = sys.modules["respgame.shapley"].PayoffGame
        payoff_game.gamma = self._wrap_gamma(payoff_game.gamma)


def layer_metrics(spans) -> dict:
    """Per-layer metrics from a finished list of spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def under(index, names) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def outer(*names):
        """Indices of spans named in `names` with no such span above them."""
        wanted = set(names)
        return [i for i, s in enumerate(spans)
                if s[0] in wanted and not under(i, wanted)]

    def total(*names) -> float:
        return sum(spans[i][2] - spans[i][1] for i in outer(*names))

    def payloads(name):
        return [s[4] for s in spans if s[0] == name]

    def minus_children(name, child) -> float:
        """Duration of `name` spans minus their direct `child` spans."""
        out = sum(s[2] - s[1] for s in spans if s[0] == name)
        out -= sum(s[2] - s[1] for s in spans
                   if s[0] == child and s[3] >= 0 and spans[s[3]][0] == name)
        return out

    gammas = [i for i, s in enumerate(spans) if s[0] == GAMMA]
    solved = sum(1 for i in gammas if not spans[i][4])
    searches = {"positivity.positivity_buechi_opt"}
    probes = [i for i in gammas if under(i, searches)]
    expanded = payloads("modlang.expand_program")
    arenas = payloads("games.build_game")
    solve_s = total("games.solve")
    solve_calls = len(payloads("games.solve"))
    return {
        "modlang.expand_s": total("modlang.expand_program"),
        "modlang.states": sum(s for s, _ in expanded),
        "modlang.edges": sum(e for _, e in expanded),
        "explicit.load_s": total("explicit.load_explicit",
                                 "explicit.build_system"),
        "model.run_search_s": total("model.find_violating_run"),
        "model.run_search_calls": len(payloads("model.find_violating_run")),
        "grouping.resolve_s": total("grouping.resolve_grouping"),
        "grouping.blocks": sum(payloads("grouping.resolve_grouping")),
        "shapley.prune_s": total("shapley.prune_dummies"),
        "shapley.players": max(payloads("shapley.shapley_exact"), default=0),
        "shapley.exact_s": total("shapley.shapley_exact"),
        "shapley.aggregate_self_s": sum(
            spans[i][2] - spans[i][1] - child_time[i]
            for i in outer("shapley.shapley_exact")),
        "shapley.gamma_calls": len(gammas),
        "shapley.games_solved": solved,
        "shapley.memo_hits": len(gammas) - solved,
        "shapley.memo_hit_ratio": ((len(gammas) - solved) / len(gammas)
                                   if gammas else 0.0),
        "games.build_s": total("games.build_game"),
        "games.engrave_s": total("games.engrave"),
        "games.build_calls": len(arenas),
        "games.arena_states_total": sum(s for s, _ in arenas),
        "games.arena_edges_total": sum(e for _, e in arenas),
        "games.solve_s": solve_s,
        "games.solve_calls": solve_calls,
        "games.solve_us_per_call": (solve_s / solve_calls * 1e6
                                    if solve_calls else 0.0),
        "refinement.loop_s": total("refinement.refine_loop"),
        "refinement.witness_s": total("refinement.find_witness"),
        "refinement.witness_calls": len(payloads("refinement.find_witness")),
        "refinement.refine_block_s": total("refinement.refine_block"),
        "refinement.splits": len(payloads("refinement.refine_block")),
        "refinement.values_s": minus_children(
            "refinement.responsibility_via_refinement",
            "refinement.refine_loop"),
        "positivity.rho_order_s": total("positivity.rho_order"),
        "positivity.search_s": total("positivity.positivity_buechi_opt"),
        "positivity.probes": len(probes),
        "positivity.games_solved": sum(1 for i in probes if not spans[i][4]),
        "exports.render_s": total("exports.render_table",
                                  "exports.records_document",
                                  "exports.render_trace_text",
                                  "exports.dot_document"),
        "trace.spans": len(spans),
    }
