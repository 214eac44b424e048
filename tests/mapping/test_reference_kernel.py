"""The reference kernel against an independent eager oracle.

The oracle is the DP step spelled out naively: every feasible pair of
operand tuples is combined into a fully built :class:`MapTuple` (in
both stacking orders where the ordering rule asks for them) and offered
to :meth:`TupleTable.insert`.  The reference kernel prices candidates
from scalars, keeps slot incumbents in flat per-call lists and builds a
tuple only for each slot's final winner, so the comparison checks all
of that against first principles: slot insertion order, every scalar
field, the selection key, the provenance of every survivor (the very
same operand objects), and the ``tuples_created`` / ``tuples_pruned``
/ ``bound_skips`` counters.  Runs without numpy.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.domino.structure import Leaf
from repro.mapping import CostModel, DepthCost, MapperConfig
from repro.mapping.kernel import ReferenceKernel, metric_fast_path
from repro.mapping.tuples import MapTuple, TupleTable
from repro.pipeline import MappingStats


class OpaqueKeyModel(CostModel):
    """Overrides ``tuple_key`` itself: no scalar fast path."""

    def tuple_key(self, t):
        return t.wcost + t.levels / 7.0


def _random_tuple(rng, idx, config, fractional):
    width = rng.randint(1, config.w_max)
    height = rng.randint(1, config.h_max)
    trans = rng.randint(1, width * height + 1)
    wcost = float(trans)
    if fractional:
        wcost += rng.randint(0, 6) / 7.0
    par_b = rng.random() < 0.5
    p_dis = rng.randint(0, width * height)
    return MapTuple(width=width, height=height, wcost=wcost, trans=trans,
                    disch=rng.randint(0, 2), levels=rng.randint(0, 5),
                    p_dis=p_dis, par_b=par_b, has_pi=rng.random() < 0.5,
                    p_tail=rng.randint(0, p_dis),
                    ends_par=par_b or rng.random() < 0.3,
                    structure=Leaf(f"t{idx}"))


# ---------------------------------------------------------------------------
# the eager oracle
# ---------------------------------------------------------------------------
def _stack_orders(a, b, config):
    """(top, bottom) pairs the ordering rule stacks for one pair."""
    pbe = config.pbe_aware
    if config.ordering == "exhaustive" and pbe:
        return [(a, b), (b, a)]
    if config.ordering == "naive":
        return [(a, b)]
    if config.ordering == "adverse" or not pbe:
        return [(b, a)] if b.ends_par and not a.ends_par else [(a, b)]
    if a.par_b != b.par_b:
        return [(b, a)] if a.par_b else [(a, b)]
    return [(b, a)] if a.p_dis >= b.p_dis else [(a, b)]


def _series(top, bottom, pbe, discharge):
    if pbe and top.par_b:
        committed = top.p_tail + 1
        p_dis = top.p_dis - top.p_tail + bottom.p_dis
    elif pbe:
        committed = 0
        p_dis = top.p_dis + 1 + bottom.p_dis
    else:
        committed = 0
        p_dis = 0
    return MapTuple(max(top.width, bottom.width),
                    top.height + bottom.height,
                    top.wcost + bottom.wcost + committed * discharge,
                    top.trans + bottom.trans + committed,
                    top.disch + bottom.disch + committed,
                    max(top.levels, bottom.levels), p_dis,
                    bottom.par_b if pbe else False,
                    top.has_pi or bottom.has_pi,
                    p_tail=bottom.p_tail if pbe else 0,
                    ends_par=bottom.ends_par, op="ser",
                    left=top, right=bottom)


def _parallel(a, b, pbe):
    p_dis = a.p_dis + b.p_dis if pbe else 0
    return MapTuple(a.width + b.width, max(a.height, b.height),
                    a.wcost + b.wcost, a.trans + b.trans, a.disch + b.disch,
                    max(a.levels, b.levels), p_dis, True,
                    a.has_pi or b.has_pi, p_tail=p_dis, ends_par=True,
                    op="par", left=a, right=b)


def _oracle(config, model, table, is_or, view_a, view_b):
    pbe = config.pbe_aware
    discharge = model.discharge_cost()
    created = pruned = 0
    for a in view_a:
        for b in view_b:
            if is_or:
                if a.width + b.width > config.w_max:
                    continue
                cands = [_parallel(a, b, pbe)]
            else:
                if a.height + b.height > config.h_max:
                    continue
                cands = [_series(top, bottom, pbe, discharge)
                         for top, bottom in _stack_orders(a, b, config)]
            for cand in cands:
                created += 1
                if not table.insert(cand):
                    pruned += 1
    skips = pruned if metric_fast_path(model) is not None else 0
    return created, pruned, skips


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
def _snapshot(table):
    def provenance(t):
        if t.op is None:
            return ("leaf", id(t))
        return (t.op, id(t.left), id(t.right))

    return [(shape, [(key, t.width, t.height, t.wcost, t.trans, t.disch,
                      t.levels, t.p_dis, t.p_tail, t.par_b, t.ends_par,
                      t.has_pi, provenance(t))
                     for key, t in entries])
            for shape, entries in table.raw_slots().items()]


def _seeded_table(model, config, seeds, max_front):
    table = TupleTable(model.tuple_key, pareto=config.pareto,
                       max_front=max_front)
    for t in seeds:
        table.insert(t)
    return table


def _compare(config, model, view_a, view_b, is_or, seeds=(), max_front=4):
    expected = _seeded_table(model, config, seeds, max_front)
    counters = _oracle(config, model, expected, is_or, view_a, view_b)

    engine = SimpleNamespace(config=config, model=model,
                             stats=MappingStats(),
                             _metric_key=metric_fast_path(model))
    kernel = ReferenceKernel()
    kernel.build(engine)
    actual = _seeded_table(model, config, seeds, max_front)
    kernel.combine(actual, is_or, view_a, view_b)
    stats = engine.stats
    assert _snapshot(actual) == _snapshot(expected)
    assert (stats.tuples_created, stats.tuples_pruned,
            stats.bound_skips) == counters
    return actual


def _views(rng, config, fractional, size=24):
    view_a = [_random_tuple(rng, i, config, fractional)
              for i in range(rng.randint(1, size))]
    view_b = [_random_tuple(rng, 100 + i, config, fractional)
              for i in range(rng.randint(1, size))]
    return view_a, view_b


ORDERINGS = ["paper", "naive", "adverse", "exhaustive"]

#: Pareto front caps every pareto case runs at: one survivor per slot
#: (every accept truncates), two, the default four, and one no view
#: here ever fills (truncation never runs).
FRONT_CAPS = (1, 2, 4, 64)


def _caps(config):
    return FRONT_CAPS if config.pareto else (4,)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("pbe", [True, False], ids=["pbe", "bulk"])
@pytest.mark.parametrize("fractional", [False, True],
                         ids=["integral", "fractional"])
@pytest.mark.parametrize("pareto", [False, True], ids=["single", "pareto"])
def test_fuzzed_views_match_eager_oracle(ordering, pbe, fractional, pareto):
    model = CostModel()
    seed_base = (ORDERINGS.index(ordering) * 8 + pbe * 4 + fractional * 2
                 + pareto)
    for seed in range(6):
        rng = random.Random(100 * seed_base + seed)
        config = MapperConfig(w_max=rng.randint(3, 8),
                              h_max=rng.randint(4, 10), ordering=ordering,
                              pbe_aware=pbe, pareto=pareto)
        view_a, view_b = _views(rng, config, fractional)
        for is_or in (True, False):
            for max_front in _caps(config):
                _compare(config, model, view_a, view_b, is_or,
                         max_front=max_front)


@pytest.mark.parametrize("model", [DepthCost(), DepthCost(level_weight=2.5),
                                   OpaqueKeyModel()],
                         ids=["depth", "depth2.5", "opaque-key"])
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_non_plain_keys_match_eager_oracle(model, ordering):
    for seed in range(4):
        rng = random.Random(500 + 10 * ORDERINGS.index(ordering) + seed)
        config = MapperConfig(w_max=6, h_max=8, ordering=ordering,
                              pareto=seed % 2 == 1)
        view_a, view_b = _views(rng, config, True, size=16)
        for is_or in (True, False):
            for max_front in _caps(config):
                _compare(config, model, view_a, view_b, is_or,
                         max_front=max_front)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("pareto", [False, True], ids=["single", "pareto"])
def test_seeded_table_matches_eager_oracle(ordering, pareto):
    """A table already holding tuples: incumbents come from its slots."""
    model = CostModel()
    for seed in range(6):
        rng = random.Random(900 + 10 * ORDERINGS.index(ordering) + seed)
        config = MapperConfig(w_max=5, h_max=8, ordering=ordering,
                              pareto=pareto)
        # cheap seeds win some slots outright, dear ones get replaced
        seeds = [_random_tuple(rng, 200 + i, config, seed % 2 == 0)
                 for i in range(rng.randint(1, 12))]
        for t in seeds[::2]:
            t.wcost = rng.randint(0, 3) / 2.0
        view_a, view_b = _views(rng, config, seed % 2 == 0, size=14)
        for is_or in (True, False):
            for max_front in _caps(config):
                _compare(config, model, view_a, view_b, is_or, seeds=seeds,
                         max_front=max_front)


def _tie_heavy_tuple(rng, idx, config):
    # Keys from a two-value set and p_dis from a narrow band: truncation
    # keeps landing on exact (key, p_dis) ties, which only the stable
    # sort's arrival order breaks.
    width = rng.randint(1, config.w_max)
    height = rng.randint(1, config.h_max)
    trans = rng.choice((3, 4))
    par_b = rng.random() < 0.5
    p_dis = rng.randint(0, 2)
    return MapTuple(width=width, height=height, wcost=float(trans),
                    trans=trans, disch=rng.randint(0, 1),
                    levels=rng.randint(0, 2), p_dis=p_dis, par_b=par_b,
                    has_pi=rng.random() < 0.5, p_tail=rng.randint(0, p_dis),
                    ends_par=par_b or rng.random() < 0.3,
                    structure=Leaf(f"t{idx}"))


@pytest.mark.parametrize("max_front", [1, 2, 4])
@pytest.mark.parametrize("ordering", ["paper", "exhaustive"])
def test_exact_key_ties_at_truncation_match_eager_oracle(max_front,
                                                         ordering):
    """Slots full of exact (key, p_dis) duplicates truncate in order."""
    model = CostModel()
    for seed in range(6):
        rng = random.Random(1300 + 31 * max_front + seed)
        config = MapperConfig(w_max=3, h_max=4, ordering=ordering,
                              pareto=True)
        view_a = [_tie_heavy_tuple(rng, i, config)
                  for i in range(rng.randint(6, 24))]
        view_b = [_tie_heavy_tuple(rng, 100 + i, config)
                  for i in range(rng.randint(6, 24))]
        for is_or in (True, False):
            _compare(config, model, view_a, view_b, is_or,
                     max_front=max_front)


def test_parallel_candidate_keeps_series_ending_seed():
    """An OR candidate (par_b True) never evicts a series-ending entry,
    however much cheaper it is: par_b is a dominance field too."""
    def leaf(name, wcost):
        return MapTuple(width=1, height=1, wcost=wcost, trans=1, disch=0,
                        levels=0, p_dis=0, par_b=False, has_pi=False,
                        structure=Leaf(name))

    config = MapperConfig(w_max=4, h_max=4, pareto=True)
    seed = MapTuple(width=2, height=1, wcost=9.0, trans=9, disch=0,
                    levels=0, p_dis=0, par_b=False, has_pi=False,
                    structure=Leaf("s"))
    table = _compare(config, CostModel(), [leaf("a", 1.0)],
                     [leaf("b", 1.0)], True, seeds=[seed])
    assert [t.par_b for t in table.get(2, 1)] == [False, True]
