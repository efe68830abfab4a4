"""Array seeding, FSR deactivation protocol, and faulty inference."""

import itertools

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from faultlab.macfault import (
    ArrayConfig,
    ArrayState,
    DeactivationInfeasible,
    FaultMap,
    SignatureMix,
    apply_fault_to_products,
    build_fsr,
    deactivate,
    per_column_fault_count,
    run_array,
    save_fault_map,
    seed_fault_map,
)
from faultlab.macfault.mapfile import cone_bits, cone_masks
from faultlab.netcore import evaluate, init_mlp


def _non_crit(pe, carry=False):
    return (*pe, 0, 0b1, carry)  # bit 0 stuck at 1


def _crit(pe):
    return (*pe, 0, 1 << 7, False)  # bit 7 stuck at 1


def _by_pe(faults):
    """{(row, col): (stuck0, stuck1, carry)} of a fault map."""
    return {(r, c): (s0, s1, carry) for r, c, s0, s1, carry in faults.entries()}


# --- seeding ---------------------------------------------------------------


def test_per_column_fault_count_rounding():
    assert per_column_fault_count(7.5, 128) == 10  # round(9.6)
    assert per_column_fault_count(0, 128) == 0
    assert per_column_fault_count(100, 128) == 128
    assert per_column_fault_count(0.5, 100) == 1  # round half up: 0.5 -> 1


@pytest.mark.parametrize("fr, n_row, count", [
    (14.5, 100, 15), (29, 50, 15), (58, 25, 15), (2.8, 125, 4), (2.5, 128, 3),
])
def test_per_column_fault_count_rounds_exact_halves_up(fr, n_row, count):
    # at the first four, 0.01 * fr * n_row is a float just below the exact half;
    # the last is the bench's count at FR 2.5 (3.2 faults)
    assert per_column_fault_count(fr, n_row) == count


def test_seed_fault_map_counts_and_determinism():
    cfg = ArrayConfig(n_row=32, n_col=16)
    mix = SignatureMix(critical_fraction=0.3, carry_fraction=0.4)
    faults = seed_fault_map(cfg, 12.5, mix, seed=5)
    per_col = {}
    for r, c in faults:
        per_col[c] = per_col.get(c, 0) + 1
    assert set(per_col.values()) == {per_column_fault_count(12.5, 32)}
    assert len(per_col) == 16
    assert _by_pe(seed_fault_map(cfg, 12.5, mix, seed=5)) == _by_pe(faults)
    assert _by_pe(seed_fault_map(cfg, 12.5, mix, seed=6)) != _by_pe(faults)


def test_seed_fault_map_rejects_bad_rate():
    with pytest.raises(ValueError):
        seed_fault_map(ArrayConfig(), -1, SignatureMix(), 0)
    with pytest.raises(ValueError):
        seed_fault_map(ArrayConfig(), 101, SignatureMix(), 0)


def test_seeded_rows_pass_chi_square_uniformity():
    # pooled row histogram over 200 seeds (the acceptance suite runs 1000)
    cfg = ArrayConfig(n_row=64, n_col=16)
    mix = SignatureMix()
    counts = np.zeros(64)
    for seed in range(200):
        for r, _ in seed_fault_map(cfg, 10, mix, seed=seed):
            counts[r] += 1
    stat, p = stats.chisquare(counts)
    assert p >= 0.01


def test_signature_mix_confinement():
    mix = SignatureMix(critical_fraction=0.0, lsb_bits=3, carry_fraction=0.0)
    faults = seed_fault_map(ArrayConfig(n_row=16, n_col=16), 25, mix, seed=2)
    for max_bit, carry in zip(faults.max_bit, faults.carry):
        assert max_bit < 3
        assert not carry


@pytest.mark.parametrize("lsb_bits", [1, 2, 4, 7, 20])
@pytest.mark.parametrize("fmt", ["int8", "bfloat16"])
def test_seed_fault_map_matches_frozen_per_pe_seeding(fmt, lsb_bits):
    # same PEs, signatures and carry flags as the per-PE loop, stored row-major;
    # lsb_bits 7 and 20 reach or pass the product width of one or both formats
    from frozen_seeding import seed_fault_map as frozen_seed

    cfg = ArrayConfig(n_row=40, n_col=24, fmt=fmt)
    for fr, crit, carry, seed in itertools.product(
            (2.5, 7.5, 25), (0.0, 0.1, 1.0), (0.0, 0.5), range(3)):
        mix = SignatureMix(critical_fraction=crit, lsb_bits=lsb_bits,
                           carry_fraction=carry)
        faults = seed_fault_map(cfg, fr, mix, seed=seed)
        expected = frozen_seed(cfg, fr, mix, seed=seed)
        assert _by_pe(faults) == expected
        assert list(faults) == sorted(expected)


def test_fault_map_lists_each_pe_and_its_signature():
    faults = FaultMap.from_entries([_non_crit((0, 3), carry=True), _crit((2, 1))])
    assert list(faults) == [(0, 3), (2, 1)]
    assert faults.entries()[1] == _crit((2, 1))
    assert (1, 1) not in faults and (0, 3) in faults
    assert faults.max_bit.tolist() == [0, 7]
    assert faults.carry.tolist() == [True, False]


def test_fault_map_rejects_duplicate_pe():
    with pytest.raises(ValueError, match=r"duplicate fault for PE \(1, 2\)"):
        FaultMap.from_entries([_non_crit((1, 2)), _crit((1, 2))])


@pytest.mark.parametrize("entries, message", [
    ([_non_crit((0, 1)), _non_crit((1, 0)), _crit((1, 0))],
     r"duplicate fault for PE \(1, 0\)"),
    ([_non_crit((0, 1)), _non_crit((2, 0)), _crit((1, 3))],
     r"fault for PE \(1, 3\) out of \(row, col\) order"),
    ([_non_crit((0, 1)), (0, 2, 0b101, 0b100, False)],
     r"bits stuck at both 0 and 1 for PE \(0, 2\)"),
    ([_crit((0, 1)), (3, 2, 0, 0, True)], r"empty fault signature for PE \(3, 2\)"),
    ([_crit((0, 1)), (1, 1, 1 << 16, 0, False)],
     r"cone bit 16 outside every product width for PE \(1, 1\)"),
], ids=["repeated-pe", "unsorted-pes", "overlapping-masks", "empty-signature", "bit-16"])
def test_fault_map_names_the_pe_of_a_broken_invariant(entries, message):
    with pytest.raises(ValueError, match=message):
        FaultMap.from_entries(entries)
    rows, cols, stuck0, stuck1, carry = np.array(entries, dtype=np.int64).T
    with pytest.raises(ValueError, match=message):
        FaultMap(rows=rows, cols=cols, stuck0=stuck0, stuck1=stuck1,
                 carry=carry.astype(bool))


def test_array_state_rejects_cone_bit_beyond_product_width():
    faults = FaultMap.from_entries([_non_crit((0, 0)), _crit((1, 1))])
    ArrayState(config=ArrayConfig(n_row=4, n_col=4), faults=faults)
    with pytest.raises(ValueError, match="cone bit 7 outside bfloat16 product width 7"):
        ArrayState(config=ArrayConfig(n_row=4, n_col=4, fmt="bfloat16"), faults=faults)
    with pytest.raises(ValueError, match="outside every product width"):
        FaultMap.from_entries([(0, 0, 0, 1 << 16, False)])  # bit 16 stuck at 1


def test_array_state_rejects_fault_outside_array():
    with pytest.raises(ValueError, match=r"fault site \(4, 0\) outside the array"):
        ArrayState(config=ArrayConfig(n_row=4, n_col=4),
                   faults=FaultMap.from_entries([_non_crit((4, 0))]))


# --- FSR and deactivation ----------------------------------------------------


def test_build_fsr_classifies_each_entry():
    faults = FaultMap.from_entries([_non_crit((0, 0)), _crit((1, 1))])
    fsr = build_fsr(faults, "int8", fr_max_non_crit=0.5)
    by_pe = dict(zip(faults, fsr.critical.tolist()))
    assert by_pe == {(0, 0): False, (1, 1): True}


def test_deactivate_already_satisfied_is_noop():
    cfg = ArrayConfig(n_row=4, n_col=4)
    faults = FaultMap.from_entries([_non_crit((0, 0)), _non_crit((2, 2))])
    state = ArrayState(config=cfg, faults=faults)
    mask = deactivate(state, build_fsr(faults, "int8", 0.5))
    assert mask.all()


def test_deactivate_fr_max_zero_disables_every_fault():
    cfg = ArrayConfig(n_row=4, n_col=4)
    faults = FaultMap.from_entries([_non_crit((0, 0)), _non_crit((2, 3))])
    state = ArrayState(config=cfg, faults=faults)
    mask = deactivate(state, build_fsr(faults, "int8", 0.0))
    assert not mask[0, 0] and not mask[2, 3]
    assert mask.sum() == 14


def test_deactivate_critical_always_disabled():
    cfg = ArrayConfig(n_row=4, n_col=4)
    faults = FaultMap.from_entries([_crit((1, 1)), _non_crit((3, 0))])
    state = ArrayState(config=cfg, faults=faults)
    mask = deactivate(state, build_fsr(faults, "int8", 1.0))
    assert not mask[1, 1]
    assert mask[3, 0]
    assert state.active.all()


def test_deactivate_2x2_block_example():
    # four non-critical faults in a 2x2 block, FR_max 20%: breaking the
    # adjacency costs exactly two PEs and already satisfies the rate
    cfg = ArrayConfig(n_row=4, n_col=4)
    faults = FaultMap.from_entries(_non_crit(pe) for pe in [(0, 0), (0, 1), (1, 0), (1, 1)])
    state = ArrayState(config=cfg, faults=faults)
    mask = deactivate(state, build_fsr(faults, "int8", 0.2))
    assert mask.sum() == 14
    live = [pe for pe in faults if mask[pe]]
    assert len(live) == 2
    (r0, c0), (r1, c1) = live
    assert abs(r0 - r1) + abs(c0 - c1) > 1  # not adjacent
    assert len(live) / mask.sum() <= 0.2


def test_deactivate_infeasible_when_everything_faulty():
    cfg = ArrayConfig(n_row=2, n_col=2)
    faults = FaultMap.from_entries(_non_crit(pe)
                                   for pe in itertools.product(range(2), range(2)))
    state = ArrayState(config=cfg, faults=faults)
    with pytest.raises(DeactivationInfeasible):
        deactivate(state, build_fsr(faults, "int8", 0.0))


def brute_force_min_deactivations(fault_set, fr_max, n=4):
    """Oracle: try every subset of faulty PEs, smallest one first."""
    faults = sorted(fault_set)
    total_pes = n * n
    for size in range(len(faults) + 1):
        for combo in itertools.combinations(faults, size):
            removed = set(combo)
            live = [pe for pe in faults if pe not in removed]
            adjacent = any(
                abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                for a, b in itertools.combinations(live, 2)
            )
            if adjacent:
                continue
            remaining = total_pes - size
            if remaining == 0 or len(live) / remaining > fr_max:
                continue
            return size
    return None


@pytest.mark.parametrize("fr_max", [0.1, 0.25])
def test_deactivation_matches_brute_force_on_samples(rng, fr_max):
    # randomized spot check; the acceptance suite sweeps every <=6-fault map
    cfg = ArrayConfig(n_row=4, n_col=4)
    cells = list(itertools.product(range(4), range(4)))
    for trial in range(150):
        k = int(rng.integers(1, 7))
        picks = rng.choice(16, size=k, replace=False)
        fault_set = {cells[i] for i in picks}
        faults = FaultMap.from_entries(_non_crit(pe) for pe in sorted(fault_set))
        state = ArrayState(config=cfg, faults=faults)
        expected = brute_force_min_deactivations(fault_set, fr_max)
        mask = deactivate(state, build_fsr(faults, "int8", fr_max))
        assert 16 - int(mask.sum()) == expected


def _assert_protocol_holds(faults, fsr, mask):
    """No critical PE stays active, the rate cap holds, and no two active
    faulty PEs are adjacent."""
    crit = {pe for pe, critical in zip(faults, fsr.critical.tolist()) if critical}
    live = [pe for pe in faults if mask[pe]]
    assert not any(pe in crit for pe in live)
    assert len(live) / mask.sum() <= fsr.fr_max_non_crit
    live_set = set(live)
    for r, c in live:
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            assert nb not in live_set


def test_deactivation_protocol_invariants_at_scale():
    cfg = ArrayConfig(n_row=64, n_col=64)
    mix = SignatureMix(critical_fraction=0.25, carry_fraction=0.3)
    faults = seed_fault_map(cfg, 10, mix, seed=11)
    state = ArrayState(config=cfg, faults=faults)
    fsr = build_fsr(faults, "int8", fr_max_non_crit=0.05)
    _assert_protocol_holds(faults, fsr, deactivate(state, fsr))


@pytest.mark.parametrize("critical_fraction, component", [(0.0, 121), (0.05, 88)])
def test_deactivation_past_the_exact_cover_limit(monkeypatch, critical_fraction,
                                                 component):
    # at FR 60% the live faulty PEs of a 16x16 array form one component too
    # large for the exact search, which the greedy cover takes instead
    from faultlab.macfault import array

    sizes, greedy = [], array._greedy_cover
    monkeypatch.setattr(array, "_greedy_cover",
                        lambda adj: sizes.append(len(adj)) or greedy(adj))
    cfg = ArrayConfig(n_row=16, n_col=16)
    faults = seed_fault_map(cfg, 60, SignatureMix(critical_fraction=critical_fraction),
                            seed=4)
    fsr = build_fsr(faults, "int8", fr_max_non_crit=0.2)
    mask = deactivate(ArrayState(config=cfg, faults=faults), fsr)
    assert sizes == [component] and component > array._EXACT_COVER_LIMIT
    assert fsr.critical.any() == (critical_fraction > 0)
    _assert_protocol_holds(faults, fsr, mask)


def _outcome(deactivate_fn, state, fsr):
    """The mask ``deactivate_fn`` returns, or the infeasibility it raises."""
    try:
        return deactivate_fn(state, fsr).tolist()
    except DeactivationInfeasible as e:
        return f"infeasible: {e}"


@pytest.mark.parametrize("shape", [(4, 4), (1, 8), (8, 1), (16, 16), (16, 40), (40, 16),
                                   (128, 128)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_deactivation_equals_frozen_tuple_graph(shape):
    # the cover over map indices disables the PEs the (row, col) graph did;
    # the cases reach infeasible maps and components past the exact limit
    from frozen_deactivation import deactivate as frozen_deactivate

    cfg = ArrayConfig(*shape)
    rates = (7.5,) if shape == (128, 128) else (5, 10, 30, 60)
    for seed, (fr, crit, fr_max) in enumerate(itertools.product(
            rates, (0.0, 0.1, 0.3), (0.0, 0.02, 0.2))):
        faults = seed_fault_map(cfg, fr, SignatureMix(critical_fraction=crit), seed=seed)
        state = ArrayState(config=cfg, faults=faults)
        fsr = build_fsr(faults, "int8", fr_max)
        assert _outcome(deactivate, state, fsr) == _outcome(frozen_deactivate, state, fsr)


def test_deactivation_keeps_a_row_end_apart_from_the_next_row():
    # (1, 3) and (2, 0) are consecutive in row-major order but not adjacent
    from frozen_deactivation import deactivate as frozen_deactivate

    cfg = ArrayConfig(n_row=4, n_col=4)
    faults = FaultMap.from_entries([_non_crit((1, 3)), _non_crit((2, 0))])
    state = ArrayState(config=cfg, faults=faults)
    fsr = build_fsr(faults, "int8", 0.2)
    assert deactivate(state, fsr).all()
    assert _outcome(deactivate, state, fsr) == _outcome(frozen_deactivate, state, fsr)


# --- faulty inference --------------------------------------------------------


def test_run_array_empty_map_equals_quantized_eval(small_mlp, blob_test):
    state = ArrayState(config=ArrayConfig(), faults=FaultMap.from_entries([]))
    acc = run_array(small_mlp, state, blob_test)
    assert acc == evaluate(small_mlp, blob_test, "int8")


def test_run_array_bf16_empty_map_equals_bf16_eval(small_mlp, blob_test):
    state = ArrayState(config=ArrayConfig(fmt="bfloat16"), faults=FaultMap.from_entries([]))
    acc = run_array(small_mlp, state, blob_test.subset(300))
    assert acc == evaluate(small_mlp, blob_test.subset(300), "bfloat16")


# (layer sizes, array rows, array cols, {pe: (cone bits, carry)}, disabled
# PEs, mode, input range, weight sites set to zero)
_ORACLE_CASES = {
    # fan_in 9 and fan_out 7 tile with a partial last tile
    "tiled-worst": ((9, 7, 4), 4, 3, {
        (0, 0): (((0, 1), (1, 0)), False),
        (2, 1): (((1, 1),), False),
        (3, 2): (((0, 0),), False),
    }, [], "worst", (0, 1), []),
    # the output layer (fan_out 2) never reaches PE column 2
    "narrow-output": ((9, 7, 2), 4, 3, {
        (1, 0): (((0, 1),), True),
        (1, 2): (((1, 1),), True),
        (3, 1): (((0, 0), (1, 1)), False),
    }, [], "worst", (0, 1), []),
    # signed first-layer operands; zero weights take the +or_mask branch
    "negative-and-zero": ((6, 5, 3), 4, 4, {
        (0, 1): (((0, 1), (1, 1)), False),
        (1, 0): (((0, 0), (1, 1)), False),
        (2, 2): (((1, 0),), False),
        (3, 3): (((0, 1),), False),
    }, [], "sim", (-1, 1), [(0, 0, 1), (0, 1, 0), (0, 4, 1), (1, 0, 1)]),
    "carry-deactivated-bit3": ((9, 7, 4), 4, 3, {
        (0, 1): (((3, 1),), True),
        (1, 1): (((2, 0), (3, 0)), True),
        (2, 0): (((0, 1), (2, 1)), True),
        (3, 2): (((1, 0), (3, 1)), False),
        (0, 2): (((0, 0),), True),
    }, [(1, 1), (1, 0)], "worst", (-1, 1), [(0, 2, 0)]),
    "critical-high-bit": ((9, 7, 4), 4, 3, {
        (0, 0): (((9, 1),), True),
        (2, 1): (((1, 0), (12, 0)), False),
        (1, 2): (((0, 1),), False),
    }, [], "worst", (-1, 1), [(0, 4, 0)]),
}


def _oracle_runs():
    """(case, format, mode): every case in int8 in its own mode; in bfloat16
    every case whose stuck bits fit the 7-bit mantissa, in its own mode, and
    in sim mode too when no PE has a carry, whose sim sign the oracle cannot
    draw."""
    runs = []
    for case, (_, _, _, spec, _, mode, _, _) in sorted(_ORACLE_CASES.items()):
        runs.append(pytest.param(case, "int8", mode, id=case))
        if max(max(bit for bit, _ in bits) for bits, _ in spec.values()) >= 7:
            continue
        carry = any(c for _, c in spec.values())
        for m in sorted({mode} if carry else {mode, "sim"}):
            runs.append(pytest.param(case, "bfloat16", m, id=f"{case}-bfloat16-{m}"))
    return runs


@pytest.mark.parametrize("case, fmt, mode", _oracle_runs())
def test_run_array_matches_scalar_hook_reference(rng, case, fmt, mode):
    # the site-table fault path against forward_hooked + faulty_mac, exactly
    from faultlab.macfault.faults import faulty_mac
    from faultlab.netcore import forward_hooked
    from faultlab.netcore.inference import quant_forward
    from faultlab.macfault.array import faulty_matmul_factory

    layers, n_row, n_col, spec, disabled, _, (lo, hi), zeros = _ORACLE_CASES[case]
    model = init_mlp(layers, seed=2)
    for layer, i, j in zeros:
        model.weights[layer][i, j] = 0.0
    cfg = ArrayConfig(n_row=n_row, n_col=n_col, fmt=fmt)
    faults = FaultMap.from_entries((*pe, *cone_masks(bits), carry)
                                   for pe, (bits, carry) in sorted(spec.items()))
    state = ArrayState(config=cfg, faults=faults)
    for pe in disabled:
        state.active[pe] = False
    x = rng.uniform(lo, hi, size=(6, layers[0]))
    signatures = _by_pe(faults)

    def hook(xo, wo, site):
        layer, i, j = site
        pe = (i % cfg.n_row, j % cfg.n_col)
        if not state.active[pe]:
            return 0
        return faulty_mac(xo, wo, signatures.get(pe), fmt=fmt, mode=mode)

    expected = forward_hooked(model, x, hook, fmt=fmt)
    matmul = faulty_matmul_factory(state, [w.shape for w in model.weights],
                                   mode, None)
    got = quant_forward(model, x, fmt=fmt, matmul_fn=matmul)
    assert np.array_equal(expected, got)


@pytest.mark.parametrize("fmt", ["int8", "bfloat16"])
@pytest.mark.parametrize("mode", ["sim", "worst"])
def test_faulty_matmul_matches_frozen_per_signature_path(rng, fmt, mode):
    # same logits and same sim-mode carry draws as the per-signature path
    from frozen_matmul import faulty_matmul_factory as frozen_factory
    from faultlab.netcore.inference import quant_forward
    from faultlab.macfault.array import faulty_matmul_factory

    model = init_mlp((40, 24, 24, 10), seed=4)
    cfg = ArrayConfig(n_row=16, n_col=12, fmt=fmt)
    mix = SignatureMix(critical_fraction=0.2, lsb_bits=3, carry_fraction=0.5)
    faults = seed_fault_map(cfg, 25, mix, seed=8)
    state = ArrayState(config=cfg, faults=faults)
    state.active[5, :4] = False
    x = rng.uniform(-1, 1, size=(50, 40))
    shapes = [w.shape for w in model.weights]
    logits = [
        quant_forward(model, x, fmt=fmt, matmul_fn=factory(
            state, shapes, mode, np.random.default_rng(3)))
        for factory in (frozen_factory, faulty_matmul_factory)
    ]
    assert np.array_equal(logits[0], logits[1])


@pytest.mark.parametrize("fmt, mode", [("int8", "sim"), ("int8", "worst"),
                                       ("bfloat16", "sim")])
def test_error_callback_is_the_inference_matmul_minus_the_exact_one(rng, fmt, mode):
    # one kernel, two callers: training's value-unit error equals inference's
    # faulty accumulator less the exact one, bit for bit, carry draws included
    from faultlab.macfault.array import faulty_matmul_factory
    from faultlab.netcore.inference import exact_int_matmul
    from faultlab.quantnum import bf16_round_array, quantize_int8

    cfg = ArrayConfig(n_row=16, n_col=12, fmt=fmt)
    mix = SignatureMix(critical_fraction=0.2, lsb_bits=3, carry_fraction=0.5)
    state = ArrayState(config=cfg, faults=seed_fault_map(cfg, 25, mix, seed=8))
    state.active[5, :4] = False
    shapes = [(40, 24), (24, 10)]
    error, matmul = (faulty_matmul_factory(state, shapes, mode, np.random.default_rng(3),
                                           error_only=only) for only in (True, False))
    for idx, shape in enumerate(shapes):
        a = rng.uniform(-1, 1, size=(50, shape[0]))
        w = rng.normal(size=shape)
        if fmt == "int8":
            q, wq = quantize_int8(a), quantize_int8(w)
            want = ((matmul(idx, q.raw, wq.raw) - exact_int_matmul(q.raw, wq.raw))
                    * (q.scale * wq.scale))
        else:
            ab, wb = (bf16_round_array(v).astype(np.float64) for v in (a, w))
            want = matmul(idx, ab, wb) - ab @ wb
        assert np.array_equal(error(idx, a, w), want)


@pytest.mark.parametrize("top", [3, 16])
@pytest.mark.parametrize("mode", ["sim", "worst"])
def test_delta_table_matches_apply_fault_to_products(rng, mode, top):
    # every site's table row against the scalar oracle, over all 256 int8
    # operands; stuck bits below ``top`` (3 folds operands into residue
    # classes); sim mode leaves the carry to the per-call draws
    from faultlab.macfault.array import _delta_table, _layer_plan

    pes = np.sort(rng.choice(256, size=96, replace=False))
    bits = rng.integers(1, 1 << top, size=96)
    ones = rng.integers(0, 1 << top, size=96)
    carry = rng.random(96) < 0.5
    faults = FaultMap.from_entries(
        (p // 16, p % 16, b & ~o, b & o, c)
        for p, b, o, c in zip(pes.tolist(), bits.tolist(), ones.tolist(), carry.tolist()))
    state = ArrayState(config=ArrayConfig(n_row=16, n_col=16), faults=faults)
    plan = _layer_plan((16, 16), state)
    w_sites = rng.integers(-128, 128, size=len(plan.ii))
    table = _delta_table(plan, w_sites, mode).reshape(len(plan.ii), -1)
    operands = np.arange(-128, 128)
    got = table[:, plan.lut[operands.astype(np.int8).view(np.uint8)]]
    signatures = _by_pe(faults)
    assert len(plan.ii) == 96
    for row, i, j, w in zip(got, plan.ii, plan.jj, w_sites):
        stuck0, stuck1, carried = signatures[(int(i), int(j))]
        p = w * operands
        want = apply_fault_to_products(p, stuck0, stuck1, carried and mode == "worst",
                                       "int8", mode) - p
        assert np.array_equal(row, want)


def test_run_array_deactivated_column_leaves_bias(rng):
    # all PEs of an output column deactivated -> that logit is its bias
    from faultlab.netcore.inference import quant_forward
    from faultlab.macfault.array import faulty_matmul_factory

    model = init_mlp((8, 6, 4), seed=1)
    cfg = ArrayConfig(n_row=8, n_col=6)
    state = ArrayState(config=cfg, faults=FaultMap.from_entries([]))
    state.active[:, 2] = False  # PE column 2 hosts matrix column 2 of each layer
    x = rng.uniform(0, 1, size=(5, 8))
    matmul = faulty_matmul_factory(state, [w.shape for w in model.weights], "sim",
                                   np.random.default_rng(0))
    logits = quant_forward(model, x, fmt="int8", matmul_fn=matmul)
    assert np.allclose(logits[:, 2], model.biases[1][2])


def test_run_array_deterministic_given_seed(small_mlp, blob_test):
    cfg = ArrayConfig()
    mix = SignatureMix(carry_fraction=1.0)  # exercises the sim-mode rng
    faults = seed_fault_map(cfg, 10, mix, seed=3)
    state = ArrayState(config=cfg, faults=faults)
    sub = blob_test.subset(200)
    a = run_array(small_mlp, state, sub, mode="sim", seed=42)
    b = run_array(small_mlp, state, sub, mode="sim", seed=42)
    assert a == b


def test_fault_map_file_roundtrip(tmp_path):
    # the file is an output: it lists every PE's signature, the FSR in the
    # map's order and the seed, so an external reader can rebuild them
    cfg = ArrayConfig(n_row=8, n_col=8)
    mix = SignatureMix(critical_fraction=0.3, carry_fraction=0.5)
    faults = seed_fault_map(cfg, 25, mix, seed=9)
    fsr = build_fsr(faults, "int8", fr_max_non_crit=0.1)
    path = tmp_path / "map.yaml"
    save_fault_map(path, cfg, faults, fsr=fsr, seed=9)
    doc = yaml.safe_load(path.read_text())
    assert doc["config"] == {"n_row": 8, "n_col": 8, "fmt": "int8"}
    read = FaultMap.from_entries((f["row"], f["col"], *cone_masks(f["cone_bits"]), f["carry"])
                                 for f in doc["faults"])
    assert _by_pe(read) == _by_pe(faults)
    assert [(e["row"], e["col"]) for e in doc["fsr"]] == list(zip(faults.rows.tolist(),
                                                                   faults.cols.tolist()))
    assert [e["criticality"] == "critical" for e in doc["fsr"]] == fsr.critical.tolist()
    assert doc["fr_max_non_crit"] == fsr.fr_max_non_crit
    assert doc["seed"] == 9


def test_fault_map_file_bytes_equal_pure_python_dumper(tmp_path):
    cfg = ArrayConfig(n_row=8, n_col=8)
    faults = seed_fault_map(cfg, 25, SignatureMix(critical_fraction=0.3,
                                                  carry_fraction=0.5), seed=9)
    path = tmp_path / "map.yaml"
    save_fault_map(path, cfg, faults, fsr=build_fsr(faults, "int8", 0.1), seed=9)
    text = path.read_text()
    doc = yaml.safe_load(text)
    assert text == yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False)
    assert len(doc["faults"]) == len(faults) and "fsr" in doc


def _fault_map_document(config, faults, fsr, seed):
    """The mapping a faultlab-faultmap/1 file holds."""
    doc = {"format": "faultlab-faultmap/1",
           "config": {"n_row": config.n_row, "n_col": config.n_col, "fmt": config.fmt},
           "seed": seed, "fr_max_non_crit": None if fsr is None else fsr.fr_max_non_crit,
           "faults": [{"row": r, "col": c, "cone_bits": [list(b) for b in cone_bits(s0, s1)],
                       "carry": carry} for r, c, s0, s1, carry in faults.entries()]}
    if fsr is not None:
        doc["fsr"] = [{"row": r, "col": c, "criticality": "critical" if crit
                       else "non-critical"} for (r, c), crit in
                      zip(faults, fsr.critical.tolist())]
    return doc


@st.composite
def _fault_map_files(draw):
    """(config, map, FSR or None, seed or None) of an arbitrary fault map file."""
    config = ArrayConfig(n_row=draw(st.integers(1, 300)), n_col=draw(st.integers(1, 300)),
                         fmt=draw(st.sampled_from(["int8", "bfloat16"])))
    pes = draw(st.lists(st.tuples(st.integers(0, config.n_row - 1),
                                  st.integers(0, config.n_col - 1)),
                        unique=True, max_size=6))
    entries = []
    for pe in sorted(pes):
        bits = draw(st.integers(1, 2**16 - 1))
        ones = bits & draw(st.integers(0, 2**16 - 1))
        entries.append((*pe, bits ^ ones, ones, draw(st.booleans())))
    faults = FaultMap.from_entries(entries)
    fsr = draw(st.none() | st.floats(0, 1).map(lambda fr: build_fsr(faults, config.fmt, fr)))
    return config, faults, fsr, draw(st.none() | st.integers(-2**63, 2**64))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fault_map_files())
def test_fault_map_file_is_what_the_safe_dumper_writes(tmp_path, case):
    path = tmp_path / "map.yaml"
    save_fault_map(path, *case)
    assert path.read_text() == yaml.dump(_fault_map_document(*case),
                                         Dumper=yaml.SafeDumper, sort_keys=False)
