"""Endurance-aware placement and effective-lifetime tests."""

import math

import numpy as np
import pytest

from faultlab.neurorel import (
    CrossbarConfig,
    EnduranceMap,
    build_endurance_map,
    effective_lifetime,
    place_synapses,
)


def _map_from(endurances):
    e = np.asarray(endurances, dtype=np.float64)
    return EnduranceMap(temperature=np.full_like(e, 300.0), endurance=e)


def _place(activations, emap) -> dict:
    """``place_synapses`` as synapse index -> (row, col)."""
    return dict(enumerate(map(tuple, place_synapses(activations, emap).tolist())))


def _lifetime(assign: dict, activations, emap) -> float:
    return effective_lifetime([assign[k] for k in sorted(assign)], activations, emap)


def test_busiest_synapse_gets_most_durable_cell():
    emap = _map_from([[1e6, 1e8], [1e9, 1e10]])
    synapses = [5.0, 1.0, 3.0]
    assign = _place(synapses, emap)
    assert assign[0] == (1, 1)  # activation 5 -> 1e10 cell
    assert assign[2] == (1, 0)  # activation 3 -> 1e9
    assert assign[1] == (0, 1)  # activation 1 -> 1e8


def test_equal_activations_follow_tiebreak_order():
    emap = _map_from([[10.0, 10.0], [10.0, 10.0]])
    synapses = [2.0] * 4
    assign = _place(synapses, emap)
    # synapse index order onto cell (row, col) order
    assert assign == {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}


def test_single_synapse_takes_best_cell():
    emap = build_endurance_map(CrossbarConfig(n=8))
    assign = _place([9.0], emap)
    assert assign[0] == (7, 7)  # far corner has the highest endurance


def test_placement_is_injective(rng):
    emap = build_endurance_map(CrossbarConfig(n=8))
    synapses = [float(rng.integers(0, 50)) for _ in range(40)]
    assign = _place(synapses, emap)
    assert len(set(assign.values())) == len(synapses)


def test_placement_has_no_inversion_pairs(rng):
    emap = build_endurance_map(CrossbarConfig(n=8))
    synapses = [float(rng.integers(0, 100)) for _ in range(30)]
    assign = _place(synapses, emap)
    for a in range(len(synapses)):
        for b in range(len(synapses)):
            if synapses[a] > synapses[b]:
                ea = emap.endurance[assign[a]]
                eb = emap.endurance[assign[b]]
                assert ea >= eb


def test_cluster_too_large_rejected():
    emap = _map_from([[1.0, 1.0], [1.0, 1.0]])
    synapses = [1.0] * 5
    with pytest.raises(ValueError):
        place_synapses(synapses, emap)


def test_effective_lifetime_definition():
    emap = _map_from([[1e6, 1e8], [1e9, 1e10]])
    synapses = [10.0]
    assign = _place(synapses, emap)
    assert _lifetime(assign, synapses, emap) == pytest.approx(1e10 / 10.0)
    assert _lifetime({0: (0, 0)}, synapses, emap) == pytest.approx(1e5)


def test_unmapped_spare_cells_change_nothing():
    emap = _map_from([[1e6, 1e8], [1e9, 1e10]])
    synapses = [10.0, 2.0]
    assign = {0: (0, 0), 1: (0, 1)}
    with_spares = _lifetime(assign, synapses, emap)
    emap2 = _map_from([[1e6, 1e8], [1.0, 1.0]])  # spares differ, mapped cells same
    assert _lifetime(assign, synapses, emap2) == with_spares


def test_zero_activation_cells_excluded():
    emap = _map_from([[1e6, 1e8], [1e9, 1e10]])
    synapses = [0.0, 4.0]
    assign = _place(synapses, emap)
    life = _lifetime(assign, synapses, emap)
    assert life == pytest.approx(1e10 / 4.0)
    idle = [0.0]
    assert _lifetime({0: (0, 0)}, idle, emap) == math.inf
    with pytest.raises(ValueError):
        _lifetime({}, synapses, emap)


def test_sorted_placement_beats_reversed_on_random_clusters(rng):
    emap = build_endurance_map(CrossbarConfig(n=8))
    for trial in range(20):
        synapses = [
            float(rng.integers(1, 200)) for _ in range(int(rng.integers(3, 30)))
        ]
        assign = _place(synapses, emap)
        # reversed: busiest synapse onto the weakest of the used cells
        cells = [assign[k] for k in sorted(assign)]
        by_act = sorted(range(len(synapses)), key=lambda k: (-synapses[k], k))
        by_end = sorted(cells, key=lambda rc: (-emap.endurance[rc], rc[0], rc[1]))
        reversed_assign = {k: cell for k, cell in zip(by_act, reversed(by_end))}
        good = _lifetime(assign, synapses, emap)
        bad = _lifetime(reversed_assign, synapses, emap)
        assert good >= bad
