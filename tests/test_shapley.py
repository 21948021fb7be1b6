"""Coalition games, exact Shapley values, pruning and the oracle."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from conftest import (Budget, recurrence_example, diamond_example,
                      refinement_example, instances, is_switching_pair,
                      spy_everywhere, system)

from respgame import (BUECHI, FORWARD, MODES, OPTIMISTIC, PARITY,
                      PESSIMISTIC, REACHABILITY, SAFETY, AnalysisTimeout,
                      LassoRun, Objective, PlayerCapExceeded, PlayerSet,
                      find_violating_run, generate,
                      oracle_shapley, oracle_shapley_and_minimal,
                      prune_dummies, shapley_exact)
from respgame import games, model, shapley
from respgame.explicit import build_system
from respgame.games import build_game, game_value, solve, solve_bounds
from respgame.shapley import PayoffGame


def _pg(ts, obj, run, mode, indices=None):
    indices = range(len(ts)) if indices is None else indices
    return PayoffGame(ts, obj, run, mode, PlayerSet.of_states(ts, indices))


def test_gamma_examples():
    ts, obj, run = recurrence_example()
    pg = _pg(ts, obj, run, OPTIMISTIC)
    index = pg.players.names.index
    assert pg.gamma(1 << index("s0") | 1 << index("s1")) == 1
    assert pg.gamma(1 << index("s1")) == 0
    # a full coalition still loses an unwinnable objective
    ts2 = system(["a", "island"], [(0, 0), (1, 1)])
    obj2 = Objective(REACHABILITY, target=frozenset({1}))
    pg2 = _pg(ts2, obj2, LassoRun((), (0,)), PESSIMISTIC)
    assert pg2.gamma(pg2.full_mask()) == 0


def test_gamma_memoised():
    ts, obj, run = recurrence_example()
    pg = _pg(ts, obj, run, OPTIMISTIC)
    pg.gamma(3)
    solved = pg.games_solved
    pg.gamma(3)
    assert pg.games_solved == solved and pg.memo_hits == 1


def test_switching_pair_examples():
    ts, obj, run = recurrence_example()
    pg = _pg(ts, obj, run, OPTIMISTIC)
    s0, s1 = 1 << 0, 0
    assert is_switching_pair(pg, 1 << 0, 1)
    assert not is_switching_pair(pg, 0, 1)
    with pytest.raises(ValueError):
        is_switching_pair(pg, 1 << 1, 1)
    ts2 = system(["a", "island"], [(0, 0), (1, 1)])
    pg2 = _pg(ts2, Objective(REACHABILITY, target=frozenset({1})),
              LassoRun((), (0,)), PESSIMISTIC)
    assert not is_switching_pair(pg2, pg2.full_mask() & ~1, 0)


def test_shapley_exact_buechi_example_both_modes():
    ts, obj, run = recurrence_example()
    opt = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
    assert opt.values == (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3),
                          0, 0, 0)
    pes = shapley_exact(_pg(ts, obj, run, PESSIMISTIC))
    assert pes.values == (Fraction(1, 12), Fraction(1, 12), Fraction(3, 4),
                          0, Fraction(1, 12), 0)


def test_shapley_cap_refusal():
    ts, obj, run = recurrence_example()
    with pytest.raises(PlayerCapExceeded):
        shapley_exact(_pg(ts, obj, run, OPTIMISTIC), cap=3)


def _boundary_sizes(ts, obj, run, mode, players):
    """(|minimal winning|, |maximal losing|) from a table of every game."""
    n = len(players)
    table = [game_value(build_game(
        ts, obj, run, set().union(*(players.members[i] for i in range(n)
                                    if mask >> i & 1)), mode))
        for mask in range(1 << n)]
    bits = [1 << p for p in range(n)]
    minimal = sum(1 for mask in range(1 << n) if table[mask]
                  and not any(table[mask ^ b] for b in bits if mask & b))
    maximal = sum(1 for mask in range(1 << n) if not table[mask]
                  and all(table[mask | b] for b in bits if not mask & b))
    return minimal, maximal


@pytest.mark.parametrize("mode", (PESSIMISTIC, OPTIMISTIC))
@pytest.mark.parametrize("size", (3, 4, 5, 6))
def test_monotone_fill_matches_oracle_within_boundary_bound(size, mode):
    ts, obj, run = build_system(generate("exp-coalitions", size))
    players = prune_dummies(ts, obj, run, mode)
    pg = PayoffGame(ts, obj, run, mode, players)
    rep = shapley_exact(pg)
    indices = [ts.names.index(name) for name in players.names]
    assert rep.values == oracle_shapley(ts, obj, run, mode, indices).values
    n = len(players)
    minimal, maximal = _boundary_sizes(ts, obj, run, mode, players)
    assert pg.games_solved <= (n + 1) * (minimal + maximal)
    assert pg.games_solved < 1 << n


def test_unwinnable_grand_coalition_builds_only_the_two_bounds():
    ts = system(["a", "b", "island"],
                [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    obj = Objective(REACHABILITY, target=frozenset({2}))
    for mode in (OPTIMISTIC, PESSIMISTIC, FORWARD):
        pg = _pg(ts, obj, LassoRun((), (0,)), mode)
        # W(full) loses, so the one gamma query reads it and no coalition
        # game is built beyond the two bounds
        with spy_everywhere(games, "build_game") as spy:
            rep = shapley_exact(pg)
        assert pg.games_solved == 1 and spy.call_count == 2
        assert rep.values == (0, 0, 0)


def test_empty_coalition_winning_gives_zero_values():
    # every path reaches b, so Sat wins while controlling nothing
    ts = system(["a", "b", "c"],
                [(0, 1), (0, 2), (1, 0), (1, 1), (2, 1)])
    obj = Objective(REACHABILITY, target=frozenset({1}))
    pg = _pg(ts, obj, None, FORWARD)
    assert pg.gamma(0) == 1
    rep = shapley_exact(pg)
    assert rep.values == (0, 0, 0)


def test_diamond_example_true_values_and_blocks():
    # the four-state diamond: pessimistic values are (2/3, 1/6, 1/6, 0)
    # and the {s0,s1} block carries full block responsibility, both
    # confirmed by the oracle
    ts, obj, run = diamond_example()
    rep = shapley_exact(_pg(ts, obj, run, PESSIMISTIC))
    assert rep.values == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6), 0)
    assert oracle_shapley(ts, obj, run, PESSIMISTIC).values == rep.values
    blocks = PlayerSet.of_blocks(
        ["left", "mid", "sink"],
        [frozenset({0, 1}), frozenset({2}), frozenset({3})])
    brep = shapley_exact(PayoffGame(ts, obj, run, PESSIMISTIC, blocks))
    assert brep.as_dict() == {"left": Fraction(1), "mid": Fraction(0),
                              "sink": Fraction(0)}


def test_prune_dummies_optimistic_restricted_to_run():
    ts, obj, run = recurrence_example()
    players = prune_dummies(ts, obj, run, OPTIMISTIC)
    assert set(players.names) <= {"s0", "s1", "s2", "s3"}


def test_prune_dummies_deterministic_system_empty():
    ts = system(["a", "b"], [(0, 1), (1, 0)])
    obj = Objective(REACHABILITY, target=frozenset())
    players = prune_dummies(ts, obj, LassoRun((), (0, 1)), PESSIMISTIC)
    assert len(players) == 0


def test_prune_dummies_keeps_responsible_states():
    ts, obj, run = refinement_example()
    players = prune_dummies(ts, obj, run, PESSIMISTIC)
    assert {"s2", "s3", "s6", "s8"} <= set(players.names)


def test_pruned_states_are_null():
    for ts, obj, run, mode in instances(101, 120):
        players = prune_dummies(ts, obj, run, mode)
        full = oracle_shapley(ts, obj, run, mode)
        for name, value in zip(full.names, full.values):
            if name not in players.names:
                assert value == 0, (name, mode)


def test_pruning_preserves_values():
    for ts, obj, run, mode in instances(55, 80, max_states=8):
        players = prune_dummies(ts, obj, run, mode)
        pruned = shapley_exact(PayoffGame(ts, obj, run, mode, players))
        full = oracle_shapley(ts, obj, run, mode)
        for name in players.names:
            assert pruned.as_dict()[name] == full.as_dict()[name]


def test_efficiency_sums_to_full_gamma():
    for ts, obj, run, mode in instances(7, 120, max_states=8):
        pg = _pg(ts, obj, run, mode)
        rep = shapley_exact(pg)
        total = sum(rep.values, Fraction(0))
        assert total == pg.gamma(pg.full_mask())


def test_optimistic_positives_lie_on_run():
    for ts, obj, run, _mode in instances(21, 120, max_states=8):
        rep = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
        on_run = {ts.names[s] for s in run.states()}
        assert rep.positivity() <= on_run


def test_optimistic_reachability_values_all_equal():
    count = 0
    for ts, obj, run, _mode in instances(33, 150, max_states=8,
                                         kind=REACHABILITY):
        rep = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
        positive = {v for v in rep.values if v > 0}
        assert len(positive) <= 1
        count += bool(positive)
    assert count > 10


def test_threshold_examples():
    ts, obj, run = recurrence_example()
    opt = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
    assert opt.as_dict()["s2"] > Fraction(1, 2)
    assert not opt.as_dict()["s2"] > Fraction(1)
    pes = shapley_exact(_pg(ts, obj, run, PESSIMISTIC))
    assert not pes.as_dict()["s0"] > Fraction(1, 12)  # strict comparison


def test_oracle_matches_exact_on_examples():
    ts, obj, run = recurrence_example()
    for mode in (OPTIMISTIC, PESSIMISTIC, FORWARD):
        assert (oracle_shapley(ts, obj, run, mode).values
                == shapley_exact(_pg(ts, obj, run, mode)).values)


def test_oracle_empty_player_set():
    ts, obj, run = recurrence_example()
    rep = oracle_shapley(ts, obj, run, OPTIMISTIC, [])
    assert rep.names == () and rep.values == ()


def test_oracle_minimal_winning_ladder():
    doc = generate("exp-coalitions", 3)
    ts, obj, run = build_system(doc)
    minimal = oracle_shapley_and_minimal(ts, obj, run, OPTIMISTIC)[1]
    assert len(minimal) == 8
    for coalition in minimal:
        assert "s0" in coalition
        for i in (1, 2, 3):
            assert len(coalition & {f"s{i}a", f"s{i}b"}) == 1


def test_oracle_minimal_winning_single_pair():
    doc = generate("exp-coalitions", 1)
    ts, obj, run = build_system(doc)
    assert len(oracle_shapley_and_minimal(ts, obj, run, OPTIMISTIC)[1]) == 2


def test_oracle_cap():
    doc = generate("clouds", 10)
    ts, obj, run = build_system(doc)
    with pytest.raises(PlayerCapExceeded):
        oracle_shapley(ts, obj, run, PESSIMISTIC)


def test_report_accessors():
    ts, obj, run = recurrence_example()
    rep = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
    assert rep.positivity() == {"s0", "s1", "s2"}
    assert rep.as_dict()["s2"] == Fraction(2, 3)


def test_gamma_values_on_arenas_sharing_the_model_predecessor_lists():
    # d and e form a component that a, b and c never reach; it holds a
    # target of every objective and an edge back into the reachable part,
    # and every game is solved on the whole arena, d and e included
    ts = system(["a", "b", "c", "d", "e"],
                [(0, 1), (0, 2), (1, 0), (2, 2), (3, 3), (3, 4),
                 (3, 0), (4, 3)])
    objectives = (Objective(SAFETY, target=frozenset({2, 4})),
                  Objective(REACHABILITY, target=frozenset({4})),
                  Objective(BUECHI, target=frozenset({1, 3})),
                  Objective(PARITY, colours=(1, 0, 1, 2, 2)))
    arenas = []
    expected = 0

    def recording(*args, **kwargs):
        game = build_game(*args, **kwargs)
        arenas.append(game.arena)
        return game

    with mock.patch.object(model, "predecessors",
                           wraps=model.predecessors) as built, \
            mock.patch.object(games, "build_game", recording), \
            mock.patch.object(shapley, "build_game", recording):
        for obj in objectives:
            run = find_violating_run(ts, obj)
            for mode in MODES:
                pg = _pg(ts, obj, run, mode)
                for mask in range(1 << len(ts)):
                    cold = build_game(ts, obj, run, pg.flatten(mask), mode)
                    value = int(ts.initial in solve(cold))
                    assert pg.gamma(mask) == value, (obj.kind, mode, mask)
                    assert game_value(cold) == value
                prune_dummies(ts, obj, run, mode)
                oracle_shapley(ts, obj, run, mode)
                # the two bounds and the 30 other gamma games, or only the
                # two bounds where the grand coalition loses; 2 pruning
                # games and 32 oracle games
                lost = not pg.gamma(pg.full_mask())
                expected += (2 if lost else 32) + 2 + 32
        # every game on the predecessor lists built once for ts
        assert 0 < len(arenas) == expected
        assert all(arena.preds is ts.preds() for arena in arenas)
        assert built.call_count == 1


@pytest.mark.parametrize("kind", (REACHABILITY, SAFETY, BUECHI, PARITY))
def test_seeded_solves_equal_cold_solves(kind):
    # pg.region and pg.gamma read the extreme coalitions off the bounds,
    # and start each reachability or safety attractor from W(0) or from
    # the complement of W(full); the players are a random subset of the
    # states (possibly none), so W(full) need not be the all-states region
    rng = random.Random(11)
    for ts, obj, run, _ in instances(29, 150, max_states=8, kind=kind):
        indices = sorted(rng.sample(range(len(ts)),
                                    rng.randint(0, len(ts))))
        for mode in MODES:
            pg = _pg(ts, obj, run, mode, indices)
            masks = list(range(pg.full_mask() + 1))
            rng.shuffle(masks)
            for mask in masks:
                cold = build_game(ts, obj, run, pg.flatten(mask), mode)
                assert pg.region(mask) == solve(cold), (mode, mask)
                assert pg.gamma(mask) == game_value(cold), (mode, mask)


@pytest.mark.parametrize("kind", (REACHABILITY, SAFETY, BUECHI, PARITY))
def test_solve_bounds_equal_cold_solves(kind):
    # W(0) and W(full) against cold solves, for full = every state and a
    # random subset of them; for reachability and safety the seed is W(0)
    # or the complement of W(full), and the border is the seed states with
    # a model predecessor outside the seed
    rng = random.Random(len(kind))
    for ts, obj, run, _ in instances(43, 40, max_states=8, kind=kind):
        everything = frozenset(range(len(ts)))
        preds = ts.preds()
        for mode in MODES:
            subset = frozenset(rng.sample(sorted(everything),
                                          rng.randint(0, len(ts))))
            for full_states in (everything, subset):
                bounds = solve_bounds(ts, obj, run, mode, full_states)
                assert bounds.empty == solve(
                    build_game(ts, obj, run, (), mode)), mode
                assert bounds.full == solve(
                    build_game(ts, obj, run, full_states, mode)), mode
                if kind in (BUECHI, PARITY):
                    assert bounds.seed is bounds.border is None
                    continue
                seed = (bounds.empty if kind == REACHABILITY
                        else everything - bounds.full)
                assert bounds.seed == seed, mode
                assert sorted(bounds.border) == [
                    s for s in sorted(seed) if set(preds[s]) - seed], mode


@pytest.mark.parametrize("kind", (REACHABILITY, SAFETY, BUECHI, PARITY))
def test_pruned_players_hand_their_regions_to_the_payoff_game(kind):
    # prune_dummies solves W(0) and W(all states); every pruned state is a
    # null player for regions, so over the players it keeps they are this
    # game's W(0) and W(full), and no bound is solved again
    def border(bounds):
        return None if bounds.border is None else sorted(bounds.border)

    handed = 0
    for ts, obj, run, _ in instances(37, 100, max_states=8, kind=kind):
        for mode in MODES:
            players = prune_dummies(ts, obj, run, mode)
            pg = PayoffGame(ts, obj, run, mode, players)
            fresh = _pg(ts, obj, run, mode,
                        [ts.index_of(name) for name in players.names])
            with spy_everywhere(games, "build_game") as spy:
                bounds = pg._bounds
            if players._bounds is not None:
                handed += 1
                assert spy.call_count == 0
            full = solve(fresh.game(fresh.full_mask()))
            assert bounds.full == full, mode
            assert bounds.empty == solve(fresh.game(0)), mode
            assert bounds.seed == fresh._bounds.seed, mode
            assert border(bounds) == border(fresh._bounds), mode
            for mask in range(pg.full_mask() + 1):
                cold = build_game(ts, obj, run, pg.flatten(mask), mode)
                assert pg.gamma(mask) == game_value(cold), (mode, mask)
                assert pg.region(mask) == solve(cold), (mode, mask)
            # regions solved for another mode are not this game's: it
            # builds its own two bounding games
            for other in MODES:
                if other != mode:
                    with spy_everywhere(games, "build_game") as spy:
                        PayoffGame(ts, obj, run, other, players)._bounds
                    assert spy.call_count == 2
    assert handed > 200


def test_flatten_is_the_union_of_the_chosen_players_members():
    n = 150
    ts = system([f"s{i}" for i in range(n)],
                [(i, min(i + 1, n - 1)) for i in range(n)])
    obj = Objective(REACHABILITY, target=frozenset({n - 1}))
    run = LassoRun(tuple(range(n - 1)), (n - 1,))
    blocks = [frozenset(range(i, min(i + 2, n))) for i in range(0, n, 2)]
    names = [f"b{i:03}" for i in range(len(blocks))]
    player_sets = (PlayerSet.of_states(ts, range(3, 140)),
                   PlayerSet.of_blocks(names, blocks))
    for players in player_sets:
        pg = PayoffGame(ts, obj, run, OPTIMISTIC, players)
        full = pg.full_mask()
        masks = [0, 1, full, full & ~1, 1 << 70, 0x5555 << 60,
                 full ^ (1 << 64), (1 << 64) | 1, 1 << (len(players) - 1)]
        for mask in masks:
            expected = set()
            for p in range(len(players)):
                if mask >> p & 1:
                    expected |= players.members[p]
            assert pg.flatten(mask) == expected


def test_prune_dummies_checks_the_deadline_before_each_game():
    # Buechi solves both games cold; reachability and safety seed the
    # second game's attractor from the first game's region
    ts, buechi, run = recurrence_example()

    def expired():
        raise AnalysisTimeout("timeout")

    for kind in (BUECHI, REACHABILITY, SAFETY):
        obj = Objective(kind, target=buechi.target)
        ticks = []
        with spy_everywhere(games, "build_game") as spy:
            with pytest.raises(AnalysisTimeout):
                prune_dummies(ts, obj, run, PESSIMISTIC, deadline=expired)
            assert spy.call_count == 0
            players = prune_dummies(
                ts, obj, run, PESSIMISTIC,
                deadline=lambda: ticks.append(spy.call_count))
        assert ticks == [0, 1], kind
        assert players == prune_dummies(ts, obj, run, PESSIMISTIC)


def test_shapley_exact_stops_within_its_budget():
    # the budget rides on the game: every coalition query calls it first
    ts, obj, run = build_system(generate("exp-coalitions", 3))
    players = PlayerSet.of_states(ts, range(len(ts)))
    for k in (0, 5):
        with spy_everywhere(games, "solve") as spy:
            with pytest.raises(AnalysisTimeout):
                shapley_exact(PayoffGame(ts, obj, run, PESSIMISTIC, players,
                                         deadline=Budget(k)))
        assert spy.call_count <= k


def test_oracle_sum_and_minimal_scan_honour_the_budget():
    # budgets that let the table finish: the sum, then the scan, must stop
    ts, obj, run = build_system(generate("exp-coalitions", 2))
    n = len(ts)
    table, terms = 1 << n, n << (n - 1)
    with mock.patch.object(shapley, "game_value",
                           wraps=game_value) as spy:
        with pytest.raises(AnalysisTimeout):
            oracle_shapley(ts, obj, run, OPTIMISTIC, deadline=Budget(table))
        assert spy.call_count == table
        with pytest.raises(AnalysisTimeout):
            oracle_shapley_and_minimal(ts, obj, run, OPTIMISTIC,
                                       deadline=Budget(table + terms))
    oracle_shapley_and_minimal(ts, obj, run, OPTIMISTIC,
                               deadline=Budget(2 * table + terms))


def _per_size_values(win, n):
    """Reference: the Shapley sum with one `Fraction` weight per coalition
    size, 1 / (n * C(n-1, k)), summed term by term."""
    weights = [Fraction(1, n * math.comb(n - 1, k)) for k in range(n)]
    layers = shapley._layers(n)
    return tuple(
        sum((weights[k] * (shapley._swings(win, p, n) & layers[k]).bit_count()
             for k in range(n)), Fraction(0))
        for p in range(n))


def _random_monotone_table(rng, n):
    """Bit table of the up-closure of a few random coalitions of n players
    (empty, everything or in between)."""
    generators = [rng.getrandbits(n) for _ in range(rng.randrange(4))]
    return sum(1 << mask for mask in range(1 << n)
               if any(g & mask == g for g in generators))


@pytest.mark.parametrize("n", range(1, 11))
def test_shapley_values_equal_the_per_size_fraction_sum(n):
    rng = random.Random(n)
    for _ in range(8):
        win = _random_monotone_table(rng, n)
        assert shapley.shapley_values(win, n) == _per_size_values(win, n)


@pytest.mark.parametrize("n", range(0, 9))
def test_known_answers_preset_the_fill_and_are_never_queried(n):
    # answers already known, such as those refinement carries across
    # splits, leave the table unchanged and spare every coalition they
    # decide by monotonicity
    rng = random.Random(40 + n)
    preset = 0
    for _ in range(25):
        win = _random_monotone_table(rng, n)
        density = rng.random()
        winners = [m for m in range(1 << n)
                   if win >> m & 1 and rng.random() < density]
        losers = [m for m in range(1 << n)
                  if not win >> m & 1 and rng.random() < density]
        asked = []

        def gamma(mask):
            asked.append(mask)
            return win >> mask & 1

        assert shapley._winning_table(gamma, n) == win
        assert asked[0] == (1 << n) - 1
        asked.clear()
        assert shapley._winning_table(gamma, n, winners, losers) == win
        assert len(set(asked)) == len(asked)
        assert not [m for m in asked
                    if any(not w & ~m for w in winners)
                    or any(not m & ~lose for lose in losers)]
        preset += bool(winners or losers)
    assert preset >= 10


def _reference_fill(gamma, n, winners=(), losers=()):
    """The boundary fill with all four membership tests and a shrink in
    every winning round, kept as the reference for
    `shapley._winning_table`.  Returns the table, how often the shrink
    step's known-winning test or the grow step's known-losing test held,
    and how many shrink candidates not known to lose it met in winning
    rounds that started at the lowest unknown coalition."""
    subsets = shapley._subsets
    held = open_below = 0
    full = (1 << n) - 1
    everything = (1 << (1 << n)) - 1
    win = lose = 0
    for mask in winners:
        win |= subsets(full ^ mask) << mask
    for mask in losers:
        lose |= subsets(mask)

    def query(mask):
        nonlocal win, lose
        if gamma(mask):
            win |= subsets(full ^ mask) << mask
            return True
        lose |= subsets(mask)
        return False

    def lowest(table):
        return (table & -table).bit_length() - 1

    unknown = everything & ~(win | lose)
    mask = full if unknown >> full & 1 else lowest(unknown)
    while unknown:
        at_lowest = mask == lowest(unknown)
        if query(mask):
            for p in range(n):
                smaller = mask & ~(1 << p)
                if smaller == mask or lose >> smaller & 1:
                    continue
                held += win >> smaller & 1
                open_below += at_lowest
                if win >> smaller & 1 or query(smaller):
                    mask = smaller
        else:
            for p in range(n):
                larger = mask | 1 << p
                if larger == mask or win >> larger & 1:
                    continue
                held += lose >> larger & 1
                if lose >> larger & 1 or not query(larger):
                    mask = larger
        unknown = everything & ~(win | lose)
        mask = lowest(unknown)
    return win, held, open_below


@pytest.mark.parametrize("n", range(0, 10))
def test_fill_asks_the_reference_fills_coalitions_in_its_order(n):
    # the reference's known-winning shrink test and known-losing grow test
    # never hold, and a winning round that starts at the lowest unknown
    # coalition meets only known losers below it, so the fill that drops
    # those tests and that shrink asks exactly the same
    rng = random.Random(70 + n)
    for trial in range(40):
        win = _random_monotone_table(rng, n)
        winners = losers = ()
        if trial % 2:
            density = rng.random()
            winners = [m for m in range(1 << n)
                       if win >> m & 1 and rng.random() < density]
            losers = [m for m in range(1 << n)
                      if not win >> m & 1 and rng.random() < density]
        reference, asked = [], []

        def asking(log):
            return lambda mask: log.append(mask) or win >> mask & 1

        assert _reference_fill(asking(reference), n,
                               winners, losers) == (win, 0, 0)
        assert shapley._winning_table(asking(asked), n,
                                      winners, losers) == win
        assert asked == reference


@pytest.fixture(scope="module", params=[7, 8])
def exp_coalitions_table(request):
    """Player count and winning table of `analyze` on exp-coalitions of the
    given size (15 and 17 players), filled once by the reference."""
    ts, obj, run = build_system(generate("exp-coalitions", request.param))
    players = prune_dummies(ts, obj, run, PESSIMISTIC)
    pg = PayoffGame(ts, obj, run, PESSIMISTIC, players)
    n = len(players)
    assert n == 2 * request.param + 1
    return n, _reference_fill(pg.gamma, n)[0]


def test_fill_replays_the_reference_fill_on_exp_coalitions(
        exp_coalitions_table):
    n, win = exp_coalitions_table
    reference, asked = [], []

    def asking(log):
        return lambda mask: log.append(mask) or win >> mask & 1

    assert _reference_fill(asking(reference), n) == (win, 0, 0)
    assert shapley._winning_table(asking(asked), n) == win
    assert asked == reference


def test_fill_shrinks_in_its_first_round_only(exp_coalitions_table,
                                              monkeypatch):
    # a pass (one call of `bits`) follows the query that starts its round:
    # a shrink after a winning one, a grow after a losing one
    n, win = exp_coalitions_table
    answers, passes = [], []

    def gamma(mask):
        answers.append(win >> mask & 1)
        return answers[-1]

    def spy(mask, bits=shapley.bits):
        passes.append((mask, answers[-1]))
        return bits(mask)

    monkeypatch.setattr(shapley, "bits", spy)
    assert shapley._winning_table(gamma, n) == win
    losing_rounds = sum(not won for _, won in passes)
    assert len(passes) <= 1 + losing_rounds
    assert passes[0] == ((1 << n) - 1, 1)
