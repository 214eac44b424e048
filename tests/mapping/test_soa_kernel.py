"""The structure-of-arrays kernel: bit-identity, routing, and fallbacks.

Three layers of checks:

* **Direct kernel fuzz** — seeded random cone tables pushed through
  :class:`ReferenceKernel` and :class:`SoAKernel` side by side, across
  orderings x table modes x cost models, comparing the resulting slot
  maps *exactly*: slot insertion order, per-slot entry order, selection
  keys, and every scalar field of every surviving tuple.  This covers
  the vectorized selection paths (packed prefix-min, radix-digit sort)
  and the calls soa hands to the scalar loop (PBE-Pareto and seeded
  tables) far from the corners real circuits visit.
* **Engine-level equivalence** — ``kernel="soa"``/``"auto"`` reproduce
  the reference digests and stats on real networks (the broader sweep
  lives in ``test_lazy_equivalence.py``, which runs every pinned seed
  digest under both kernels).
* **Resolution edges** — auto-threshold routing, the vectorizability
  fallback (custom ``tuple_key`` -> reference kernel +
  ``kernel_fallbacks``), and ``kernel="soa"`` without numpy being a
  hard :class:`MappingError` rather than a silent downgrade.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from repro.bench_suite import load_circuit  # noqa: E402
from repro.domino.structure import Leaf  # noqa: E402
from repro.errors import MappingError  # noqa: E402
from repro.mapping import CostModel, DepthCost, MapperConfig  # noqa: E402
from repro.mapping import map_network  # noqa: E402
from repro.mapping.kernel import (AutoKernel, ReferenceKernel,  # noqa: E402
                                  metric_fast_path, resolve_kernel)
from repro.mapping.soa import SoAKernel, make_soa_kernel  # noqa: E402
from repro.mapping.tuples import MapTuple, TupleTable  # noqa: E402
from repro.network import network_from_expression  # noqa: E402
from repro.pipeline import MappingStats  # noqa: E402


# ---------------------------------------------------------------------------
# direct kernel fuzz
# ---------------------------------------------------------------------------
def _fake_engine(config: MapperConfig, model: CostModel):
    return SimpleNamespace(config=config, model=model,
                           stats=MappingStats(),
                           _metric_key=metric_fast_path(model))


def _random_tuple(rng: random.Random, idx: int, config: MapperConfig,
                  fractional: bool) -> MapTuple:
    width = rng.randint(1, config.w_max)
    height = rng.randint(1, config.h_max)
    trans = rng.randint(1, width * height + 1)
    wcost = float(trans)
    if fractional:
        # fanout-amortized area flow: binary-infinite fractions, the
        # regime that defeats the integer/f32 pack and exercises the
        # f64 radix-digit sort path
        wcost += rng.randint(0, 6) / 7.0
    par_b = rng.random() < 0.5
    p_dis = rng.randint(0, width * height)
    p_tail = rng.randint(0, p_dis) if par_b else rng.randint(0, p_dis)
    return MapTuple(width=width, height=height, wcost=wcost,
                    trans=trans, disch=rng.randint(0, 2),
                    levels=rng.randint(0, 5), p_dis=p_dis,
                    par_b=par_b, has_pi=rng.random() < 0.5,
                    p_tail=p_tail, ends_par=par_b or rng.random() < 0.3,
                    structure=Leaf(f"t{idx}"))


def _snapshot(table: TupleTable):
    return [(shape, [(key, t.width, t.height, t.wcost, t.trans, t.disch,
                      t.levels, t.p_dis, t.p_tail, t.par_b, t.ends_par,
                      t.has_pi)
                     for key, t in entries])
            for shape, entries in table.raw_slots().items()]


def _run_both(config, model, view_a, view_b, is_or, seed_table=None,
              max_front=4):
    outs = []
    for make_kernel in (ReferenceKernel, make_soa_kernel):
        engine = _fake_engine(config, model)
        kernel = make_kernel()
        kernel.build(engine)
        table = TupleTable(key_fn=model.tuple_key, pareto=config.pareto,
                           max_front=max_front)
        if seed_table is not None:
            for shape, entries in seed_table:
                table.raw_slots()[shape] = list(entries)
        kernel.combine(table, is_or, view_a, view_b)
        kernel.finalize()
        outs.append((_snapshot(table),
                     (engine.stats.tuples_created,
                      engine.stats.tuples_pruned,
                      engine.stats.bound_skips)))
    return outs


@pytest.mark.parametrize("ordering",
                         ["paper", "naive", "adverse", "exhaustive"])
@pytest.mark.parametrize("pareto", [False, True])
@pytest.mark.parametrize("fractional", [False, True])
def test_fuzzed_cone_tables_bit_identical(ordering, pareto, fractional):
    model = CostModel()
    for seed in range(6):
        rng = random.Random(1000 * seed + hash((ordering, pareto,
                                                fractional)) % 997)
        config = MapperConfig(w_max=rng.randint(3, 8),
                              h_max=rng.randint(4, 10),
                              ordering=ordering, pareto=pareto,
                              pbe_aware=True)
        view_a = [_random_tuple(rng, i, config, fractional)
                  for i in range(rng.randint(1, 24))]
        view_b = [_random_tuple(rng, 100 + i, config, fractional)
                  for i in range(rng.randint(1, 24))]
        for is_or in (True, False):
            (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
                config, model, view_a, view_b, is_or)
            assert soa_slots == ref_slots, (
                f"slot divergence: seed={seed} is_or={is_or}")
            assert soa_stats == ref_stats, (
                f"stats divergence: seed={seed} is_or={is_or}")


@pytest.mark.parametrize("model", [DepthCost(), DepthCost(level_weight=2.5)],
                         ids=["depth", "depth2.5"])
def test_fuzzed_tables_other_models(model):
    rng = random.Random(7)
    config = MapperConfig(w_max=6, h_max=8, ordering="exhaustive",
                          pareto=True, pbe_aware=True)
    view_a = [_random_tuple(rng, i, config, True) for i in range(20)]
    view_b = [_random_tuple(rng, 50 + i, config, True) for i in range(20)]
    for is_or in (True, False):
        (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
            config, model, view_a, view_b, is_or)
        assert soa_slots == ref_slots
        assert soa_stats == ref_stats


@pytest.mark.parametrize("max_front", [1, 2, 64])
def test_pareto_front_bounds_bit_identical(max_front):
    """Degenerate and oversized front caps reproduce the reference.

    ``max_front=1`` keeps a single survivor per slot (every accept is a
    truncation decision), ``max_front=2`` runs with the columnwise
    pre-reject disabled (it requires ``max_front >= 4``), and
    ``max_front=64`` never truncates at all on these view sizes, so the
    sort-truncate path must stay a no-op.
    """
    model = CostModel()
    for seed in range(4):
        rng = random.Random(9000 + 31 * max_front + seed)
        config = MapperConfig(w_max=5, h_max=7, ordering="exhaustive",
                              pareto=True, pbe_aware=True)
        view_a = [_random_tuple(rng, i, config, seed % 2 == 0)
                  for i in range(rng.randint(4, 20))]
        view_b = [_random_tuple(rng, 100 + i, config, seed % 2 == 0)
                  for i in range(rng.randint(4, 20))]
        for is_or in (True, False):
            (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
                config, model, view_a, view_b, is_or, max_front=max_front)
            assert soa_slots == ref_slots, (
                f"slot divergence: max_front={max_front} seed={seed} "
                f"is_or={is_or}")
            assert soa_stats == ref_stats, (
                f"stats divergence: max_front={max_front} seed={seed} "
                f"is_or={is_or}")


def _tie_heavy_tuple(rng: random.Random, idx: int,
                     config: MapperConfig) -> MapTuple:
    # keys drawn from a two-value set and p_dis from a narrow band, so
    # the sort-truncate at max_front constantly lands on exact
    # (key, p_dis) ties and the arrival-order tie-break is what decides
    # which entries survive
    width = rng.randint(1, config.w_max)
    height = rng.randint(1, config.h_max)
    trans = rng.choice((3, 4))
    par_b = rng.random() < 0.5
    p_dis = rng.randint(0, 2)
    return MapTuple(width=width, height=height, wcost=float(trans),
                    trans=trans, disch=rng.randint(0, 1),
                    levels=rng.randint(0, 2), p_dis=p_dis,
                    par_b=par_b, has_pi=rng.random() < 0.5,
                    p_tail=rng.randint(0, p_dis),
                    ends_par=par_b or rng.random() < 0.3,
                    structure=Leaf(f"t{idx}"))


@pytest.mark.parametrize("max_front", [2, 4])
def test_pareto_exact_key_ties_at_truncation_boundary(max_front):
    """Slots full of exact (key, p_dis) duplicates truncate identically.

    The reference truncation is a *stable* sort on ``(key, p_dis)``
    followed by a cut, so among tied entries survival is decided purely
    by arrival order — the subtlest contract the columnwise front has
    to honor.
    """
    model = CostModel()
    for seed in range(6):
        rng = random.Random(7000 + 31 * max_front + seed)
        config = MapperConfig(w_max=3, h_max=4, ordering="exhaustive",
                              pareto=True, pbe_aware=True)
        view_a = [_tie_heavy_tuple(rng, i, config)
                  for i in range(rng.randint(6, 24))]
        view_b = [_tie_heavy_tuple(rng, 100 + i, config)
                  for i in range(rng.randint(6, 24))]
        for is_or in (True, False):
            (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
                config, model, view_a, view_b, is_or, max_front=max_front)
            assert soa_slots == ref_slots, (
                f"tie-break divergence: max_front={max_front} "
                f"seed={seed} is_or={is_or}")
            assert soa_stats == ref_stats


def test_seeded_table_path_bit_identical():
    """A pre-populated table routes through the exact fallback path."""
    model = CostModel()
    rng = random.Random(11)
    config = MapperConfig(w_max=5, h_max=8, ordering="paper", pareto=True,
                          pbe_aware=True)
    seeds = [_random_tuple(rng, 200 + i, config, True) for i in range(4)]
    seed_table = [((t.width, t.height), [(model.tuple_key(t), t)])
                  for t in seeds]
    view_a = [_random_tuple(rng, i, config, True) for i in range(12)]
    view_b = [_random_tuple(rng, 60 + i, config, True) for i in range(12)]
    for is_or in (True, False):
        (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
            config, model, view_a, view_b, is_or, seed_table=seed_table)
        assert soa_slots == ref_slots
        assert soa_stats == ref_stats


@pytest.mark.parametrize("case, batches", [
    ("pbe-pareto", 0), ("seeded", 0), ("single", 1)])
def test_scalar_front_calls_delegate_to_reference(case, batches):
    """PBE-Pareto and pre-seeded tables run on the scalar loop and count
    no soa batch; a single-best call counts one.  Tables and work
    counters are the reference's either way."""
    model = CostModel()
    rng = random.Random(23)
    config = MapperConfig(w_max=5, h_max=8, ordering="exhaustive",
                          pareto=case == "pbe-pareto", pbe_aware=True)
    seed_table = None
    if case == "seeded":
        seeds = [_random_tuple(rng, 200 + i, config, True) for i in range(4)]
        seed_table = [((t.width, t.height), [(model.tuple_key(t), t)])
                      for t in seeds]
    view_a = [_random_tuple(rng, i, config, True) for i in range(12)]
    view_b = [_random_tuple(rng, 60 + i, config, True) for i in range(12)]
    for is_or in (True, False):
        (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
            config, model, view_a, view_b, is_or, seed_table=seed_table)
        assert soa_slots == ref_slots
        assert soa_stats == ref_stats
        assert ref_stats[0] > 0
        engine = _fake_engine(config, model)
        kernel = make_soa_kernel()
        kernel.build(engine)
        table = TupleTable(key_fn=model.tuple_key, pareto=config.pareto)
        for shape, entries in seed_table or ():
            table.raw_slots()[shape] = list(entries)
        kernel.combine(table, is_or, view_a, view_b)
        assert kernel.stats()["soa_batches"] == batches
        assert engine.stats.soa_batches == batches


# ---------------------------------------------------------------------------
# engine-level equivalence and instrumentation
# ---------------------------------------------------------------------------
def test_map_network_soa_matches_reference_digest_and_stats():
    circuit = load_circuit("9symml")
    runs = {}
    for kernel in ("reference", "soa", "auto"):
        cfg = MapperConfig(w_max=8, h_max=10, ordering="exhaustive",
                           pareto=False, kernel=kernel)
        r = map_network(circuit, config=cfg)
        runs[kernel] = (r.circuit.digest(), r.stats.tuples_created,
                        r.stats.tuples_pruned, r.stats.bound_skips)
    assert runs["reference"] == runs["soa"] == runs["auto"]


def test_soa_kernel_records_activity():
    r = map_network(load_circuit("mux"),
                    config=MapperConfig(kernel="soa"))
    assert r.mapping.kernel == "soa"
    assert r.stats.soa_batches > 0
    assert r.stats.soa_candidates >= r.stats.soa_batches
    assert r.stats.soa_max_batch > 0
    assert r.stats.combine_time_s > 0.0


def test_reference_kernel_records_no_soa_activity():
    r = map_network(load_circuit("mux"),
                    config=MapperConfig(kernel="reference"))
    assert r.mapping.kernel == "reference"
    assert r.stats.soa_batches == 0


# ---------------------------------------------------------------------------
# kernel resolution and routing
# ---------------------------------------------------------------------------
class _SpyKernel:
    def __init__(self, tag, calls):
        self.tag = tag
        self.calls = calls

    def build(self, engine):
        pass

    def combine(self, table, is_or, view_a, view_b):
        self.calls.append(self.tag)

    def finalize(self):
        pass

    def stats(self):
        return {"active": self.tag}


def test_auto_kernel_routes_by_view_product():
    calls = []
    auto = AutoKernel(_SpyKernel("ref", calls), _SpyKernel("soa", calls),
                      threshold=10)
    auto.combine(None, False, [None] * 3, [None] * 3)    # 9 < 10
    auto.combine(None, False, [None] * 5, [None] * 2)    # 10 >= 10
    assert calls == ["ref", "soa"]


def test_auto_kernel_sends_only_series_grids_to_soa():
    """Series grids at or above the cutoff go to soa; OR never does."""
    calls = []
    auto = AutoKernel(_SpyKernel("ref", calls), _SpyKernel("soa", calls),
                      threshold=10)
    auto.combine(None, False, [None] * 5, [None] * 2)    # series, at cutoff
    auto.combine(None, False, [None] * 9, [None] * 1)    # series, below
    auto.combine(None, True, [None] * 5, [None] * 2)     # OR, at cutoff
    auto.combine(None, True, [None] * 300, [None] * 300)  # OR, huge
    assert calls == ["soa", "ref", "ref", "ref"]
    assert auto.stats()["routed_soa"] == 1
    assert auto.stats()["routed_reference"] == 3


@pytest.mark.parametrize("config, routed", [
    ({"pareto": True}, "ref"),                              # 54 slots
    ({"pareto": True, "w_max": 22, "h_max": 26}, "ref"),    # 621 slots
    ({}, "soa"),                                            # 54, single
], ids=["pareto-w5h8", "pareto-w22h26", "single-w5h8"])
def test_built_auto_kernel_gates_pareto_runs_by_slot_count(config, routed):
    """Pareto runs keep even large series grids scalar at any slot
    count; single-best runs use the cutoff."""
    calls = []
    auto = AutoKernel(_SpyKernel("ref", calls), _SpyKernel("soa", calls),
                      threshold=10)
    auto.build(SimpleNamespace(config=MapperConfig(**config),
                               stats=MappingStats()))
    auto.combine(None, False, [None] * 5, [None] * 2)    # series, at cutoff
    auto.combine(None, False, [None] * 9, [None] * 1)    # series, below
    auto.combine(None, True, [None] * 5, [None] * 2)     # OR, at cutoff
    assert calls == [routed, "ref", "ref"]


@pytest.mark.parametrize("circuit", ["c432", "9symml"])
def test_paper_limit_pareto_run_stays_scalar(circuit):
    # 9symml has series grids past the cutoff (17 went to soa under the
    # series-only rule); c432 has none
    r = map_network(load_circuit(circuit),
                    config=MapperConfig(ordering="exhaustive", pareto=True))
    assert r.mapping.kernel == "hybrid"
    assert r.stats.auto_routed_soa == 0
    assert r.stats.auto_routed_reference > 0


def test_default_cutoff_keeps_paper_limits_scalar():
    """At W5/H8 single-best grids never reach the default cutoff."""
    r = map_network(load_circuit("c432"), config=MapperConfig())
    assert r.mapping.kernel == "hybrid"
    assert r.stats.auto_routed_soa == 0
    assert r.stats.auto_routed_reference > 0


def test_auto_kernel_mixes_both_kernels_on_real_circuit():
    r = map_network(load_circuit("9symml"),
                    config=MapperConfig(w_max=8, h_max=10, kernel="auto"))
    assert r.mapping.kernel == "hybrid"
    # the hybrid genuinely used the soa kernel for the big batches and
    # left the small ones to the reference kernel
    assert 0 < r.stats.soa_batches < r.stats.combine_calls


def test_custom_tuple_key_falls_back_to_reference():
    class OpaqueModel(CostModel):
        def tuple_key(self, t):  # overrides the base delegation
            return (t.wcost, t.levels)

    r = map_network(network_from_expression("(a + b) * (c + d)"),
                    cost_model=OpaqueModel(),
                    config=MapperConfig(kernel="soa"))
    assert r.mapping.kernel == "reference"
    assert r.stats.kernel_fallbacks == 1
    assert r.stats.soa_batches == 0


def test_custom_tuple_key_auto_falls_back_with_counter():
    class FractionalModel(CostModel):
        def tuple_key(self, t):  # fanout-amortized fractional key
            return t.wcost + t.levels / 7.0

    r = map_network(network_from_expression("(a + b) * (c + d) + e"),
                    cost_model=FractionalModel(),
                    config=MapperConfig(kernel="auto", pareto=True))
    assert r.mapping.kernel == "reference"
    assert r.stats.kernel_fallbacks == 1
    assert r.stats.soa_batches == 0


def test_soa_without_numpy_is_hard_error(monkeypatch):
    import repro.mapping.kernel as kernel_mod

    monkeypatch.setattr(kernel_mod, "np", None)
    # the error points at the registry so the fix is discoverable
    with pytest.raises(MappingError,
                       match=r"numpy.*available_kernels\(\).*reference"):
        map_network(network_from_expression("a * b + c"),
                    config=MapperConfig(kernel="soa"))
    # auto degrades silently instead
    r = map_network(network_from_expression("a * b + c"),
                    config=MapperConfig(kernel="auto"))
    assert r.mapping.kernel == "reference"


def test_resolve_kernel_shapes():
    engine = SimpleNamespace(config=MapperConfig(kernel="reference"),
                             model=CostModel(), stats=MappingStats(),
                             _metric_key=None)
    assert isinstance(resolve_kernel(engine), ReferenceKernel)
    engine = SimpleNamespace(config=MapperConfig(kernel="soa"),
                             model=CostModel(), stats=MappingStats(),
                             _metric_key=None)
    assert isinstance(resolve_kernel(engine), SoAKernel)
    engine = SimpleNamespace(config=MapperConfig(kernel="auto"),
                             model=CostModel(), stats=MappingStats(),
                             _metric_key=None)
    assert isinstance(resolve_kernel(engine), AutoKernel)


def test_kernel_config_validation():
    with pytest.raises(Exception):
        MapperConfig(kernel="simd")
    # the kernel is execution strategy, not semantics: fingerprints of
    # different kernels must collide so cache entries stay shared
    fp = MapperConfig(kernel="reference").fingerprint()
    assert MapperConfig(kernel="soa").fingerprint() == fp
