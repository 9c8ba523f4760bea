"""Effect axioms, POVM additivity, projection scan, fuzzy-symbol logic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qps import effect_algebra as ea
from qps import localization as loc
from qps.cli import _standard_battery


unit_arrays = arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def paired_unit_arrays(n: int):
    return st.integers(min_value=1, max_value=40).flatmap(
        lambda size: st.tuples(
            *[
                arrays(
                    dtype=float,
                    shape=size,
                    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                )
                for _ in range(n)
            ]
        )
    )


# ---------------------------------------------------------------------------
# effects and the partial sum
# ---------------------------------------------------------------------------


def test_half_identity_is_an_effect():
    check = ea.is_effect(np.eye(4) / 2)
    assert check.ok
    assert check.lower_margin == pytest.approx(0.5)
    assert check.upper_margin == pytest.approx(0.5)


def test_twice_identity_is_not_an_effect():
    assert not ea.is_effect(2 * np.eye(4)).ok


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        ea.is_effect(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_quantized_indicator_is_an_effect(ctx32, grid_ref, eta32):
    a = loc.quantize(loc.RegionSpec.disk(2.0).mask(grid_ref).astype(float), eta32, grid_ref, ctx32)
    assert ea.is_effect(a).ok


def test_effect_plus_complement_is_identity():
    # why verify_axioms does not sample the complement law: off the diagonal
    # a + (0 - a) is exactly 0, and on it the sum is 1 to within a rounding
    for n in range(2, 13):
        sample = ea.effect_sampler(n, seed=n)
        for _ in range(200):
            a = sample()
            total = ea.oplus(a, np.eye(n) - a)
            assert total is not None
            assert np.max(np.abs(total - np.eye(n))) <= 4 * np.finfo(float).eps


def test_oplus_is_commutative_bit_for_bit():
    # why verify_axioms does not sample commutativity: IEEE addition commutes
    for n in range(2, 13):
        sample = ea.effect_sampler(n, seed=n)
        for _ in range(100):
            a, b = sample(), sample()
            for x, y in ((a, b), (a / 2, b / 2)):  # the halves always have a sum
                xy, yx = ea.oplus(x, y), ea.oplus(y, x)
                assert (xy is None) == (yx is None)
                assert xy is None or np.array_equal(xy, yx)


def test_oversized_sum_is_undefined():
    assert ea.oplus(np.eye(3) / 2, 2 * np.eye(3) / 3) is None


def test_sum_of_effects_within_tolerance_is_defined():
    # a passes is_effect and a + a <= 1, so the sum is defined; its lowest
    # eigenvalue, -1.2e-9, only adds up the summands' own tolerance
    a = np.diag([-6e-10, 0.5])
    assert ea.is_effect(a).ok
    total = ea.oplus(a, a)
    assert total is not None
    assert np.array_equal(total, np.diag([-1.2e-9, 1.0]))


def test_disjoint_indicators_add_exactly(ctx24, grid_ref, eta24):
    inner = loc.RegionSpec.disk(1.5).mask(grid_ref)
    ring = loc.RegionSpec.disk(2.5).mask(grid_ref) & ~inner
    a = loc.quantize(inner.astype(float), eta24, grid_ref, ctx24)
    b = loc.quantize(ring.astype(float), eta24, grid_ref, ctx24)
    union = loc.quantize((inner | ring).astype(float), eta24, grid_ref, ctx24)
    joined = ea.oplus(a, b)
    assert joined is not None
    assert np.max(np.abs(joined - union)) < 1e-12


def test_complement_involution_and_fixed_point():
    a = ea.effect_sampler(4, seed=5)()
    assert np.max(np.abs(np.eye(4) - (np.eye(4) - a) - a)) < 1e-15
    assert np.allclose(np.eye(3) - np.zeros((3, 3)), np.eye(3))
    assert np.allclose(np.eye(3) - np.eye(3) / 2, np.eye(3) / 2)


def test_complement_of_quantized_symbol_tracks_frame_defect(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(1)
    f = rng.uniform(size=len(grid_ref))
    a = loc.quantize(f, eta24, grid_ref, ctx24)
    b = loc.quantize(1.0 - f, eta24, grid_ref, ctx24)
    blk = slice(0, 9)
    # the complement uses the exact identity; the symbol complement differs by S - I
    diff = np.eye(len(a)) - a - b
    assert np.linalg.norm(diff[blk, blk], ord=2) <= 1e-3


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_thousand_random_trials_satisfy_axioms():
    report = ea.verify_axioms(ea.effect_sampler(6, seed=1), 1000)
    assert report.total_failures == 0
    assert report.trials == 1000
    assert not report.witnesses


def test_trivial_sampler_exercises_zero_one_axiom():
    state = {"flip": False}

    def sampler():
        state["flip"] = not state["flip"]
        n = 4
        return np.eye(n) if state["flip"] else np.zeros((n, n))

    report = ea.verify_axioms(sampler, 50)
    assert report.total_failures == 0


def test_associativity_counter_fires_at_the_gate_tolerance():
    # c's eigenvalue -1e-9 passes the gate, so a (+) (b (+) c) has a sum while a (+) b has none
    a, b, c = np.diag([0.6, 0.0]), np.diag([0.4 + 1.5e-9, 0.0]), np.diag([-1e-9, 0.0])
    assert all(ea.is_effect(m).ok for m in (a, b, c))
    samples = iter([a, b, c])
    report = ea.verify_axioms(lambda: next(samples), 1)
    assert report.failures == {
        "commutativity": 0, "associativity": 1, "unique_complement": 0, "zero_one": 0,
    }
    [witness] = report.witnesses
    assert witness["axiom"] == "associativity"
    assert all(np.array_equal(got, want) for got, want in zip(witness["operators"], (a, b, c)))


def test_adversarial_sampler_rejected_by_gate():
    def bad_sampler():
        return 2 * np.eye(3)

    with pytest.raises(ValueError, match="non-effect"):
        ea.verify_axioms(bad_sampler, 5)



def _per_trial_axioms(samples, trials):
    """The one-trial-at-a-time check, built from oplus and is_effect: the oracle."""
    failures, witnesses = {"associativity": 0, "zero_one": 0}, []
    for t in range(trials):
        a, b, c = samples[3 * t : 3 * t + 3]
        assert all(ea.is_effect(m).ok for m in (a, b, c))
        found = []
        bc = ea.oplus(b, c)
        if bc is not None and ea.oplus(a, bc) is not None:
            ab = ea.oplus(a, b)
            if ab is None or ea.oplus(ab, c) is None:
                found.append(("associativity", [a, b, c]))
        if ea.oplus(a, np.eye(len(a))) is not None and np.linalg.norm(a, ord=2) > ea.DEFINEDNESS_TOL:
            found.append(("zero_one", [a]))
        for axiom, operators in found:
            failures[axiom] += 1
            witnesses.append((axiom, operators))
    return failures, witnesses[:5]


def _gate_edge_samples(seed, count):
    """Diagonal effects whose sums sit at the definedness tolerance."""
    levels = np.array([0.0, -1e-9, 0.4 + 1.5e-9, 0.4, 0.6, 0.6 - 5e-10, 0.5, 1.0, 1.0 + 5e-10,
                       np.nextafter(1e-9, 1.0), 1e-12])
    spectra = np.random.default_rng(seed).choice(levels, size=(count, 3))
    return [np.diag(spectrum).astype(complex) for spectrum in spectra]


@pytest.mark.parametrize("seed", [1, 2, 4, 9])
def test_stacked_axioms_match_the_per_trial_check(seed):
    trials = 300
    samples = _gate_edge_samples(seed, 3 * trials)
    failures, witnesses = _per_trial_axioms(samples, trials)
    assert failures["associativity"] and failures["zero_one"]
    report = ea.verify_axioms(iter(samples).__next__, trials)
    assert report.failures == {"commutativity": 0, "unique_complement": 0, **failures}
    assert [w["axiom"] for w in report.witnesses] == [axiom for axiom, _ in witnesses]
    for got, (_, operators) in zip(report.witnesses, witnesses):
        assert all(np.array_equal(g, o) and g.dtype == complex for g, o in zip(got["operators"], operators))


def test_axiom_check_makes_five_eigvalsh_calls_for_any_trial_count(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    for trials in (1, 100, 1000):
        calls.clear()
        ea.verify_axioms(ea.effect_sampler(6, seed=1), trials)
        assert len(calls) == 5
    assert calls[0] == (3000, 6, 6)


@pytest.mark.parametrize(
    "bad,message",
    [({0: "non-effect", 2: "skew"}, "non-effect"), ({0: "skew", 2: "non-effect"}, "Hermitian"),
     ({4: "non-effect"}, "non-effect"), ({5: "skew"}, "Hermitian")],
    ids=["non-effect-first", "non-hermitian-first", "non-effect", "non-hermitian"],
)
def test_first_bad_sample_in_draw_order_decides_the_error(bad, message):
    good = ea.effect_sampler(3, seed=0)
    samples = [good() for _ in range(6)]
    for index, kind in bad.items():
        samples[index] = 2 * np.eye(3) if kind == "non-effect" else np.triu(np.ones((3, 3))) / 3
    with pytest.raises(ValueError, match=message):
        ea.verify_axioms(iter(samples).__next__, 2)

def test_trials_validation():
    with pytest.raises(ValueError):
        ea.verify_axioms(ea.effect_sampler(4, seed=0), 0)


# ---------------------------------------------------------------------------
# POVM additivity
# ---------------------------------------------------------------------------


def _quadrants(grid):
    return [
        loc.RegionSpec.from_mask((grid.q >= 0) & (grid.p >= 0), "++"),
        loc.RegionSpec.from_mask((grid.q >= 0) & (grid.p < 0), "+-"),
        loc.RegionSpec.from_mask((grid.q < 0) & (grid.p >= 0), "-+"),
        loc.RegionSpec.from_mask((grid.q < 0) & (grid.p < 0), "--"),
    ]


def test_quadrant_partition_sums_to_frame(ctx24, grid_ref, eta24):
    report = ea.povm_check(_quadrants(grid_ref), eta24, grid_ref, ctx24)
    assert report.additivity_error <= 1e-12
    assert report.min_part_eigenvalue >= -1e-9
    assert report.ok


def _rings(grid, radii):
    masks = []
    previous = np.zeros(len(grid), bool)
    for r in radii:
        inside = loc.RegionSpec.disk(r).mask(grid)
        masks.append(loc.RegionSpec.from_mask(inside & ~previous, f"ring<{r}"))
        previous = inside
    masks.append(loc.RegionSpec.from_mask(~previous, "outer"))
    return masks


def test_ring_partition_sums_to_frame(ctx24, grid_ref, eta24):
    report = ea.povm_check(_rings(grid_ref, [2.0, 4.0, 6.0]), eta24, grid_ref, ctx24)
    assert report.additivity_error <= 1e-12
    assert report.ok


def test_refining_a_partition_keeps_the_sum(ctx24, grid_ref, eta24):
    coarse = _rings(grid_ref, [3.0])
    fine = _rings(grid_ref, [1.5, 3.0])
    total_coarse = sum(
        loc.quantize(m.mask(grid_ref).astype(float), eta24, grid_ref, ctx24) for m in coarse
    )
    total_fine = sum(
        loc.quantize(m.mask(grid_ref).astype(float), eta24, grid_ref, ctx24) for m in fine
    )
    assert np.max(np.abs(total_coarse - total_fine)) < 1e-12


def test_overlapping_and_non_covering_partitions_rejected(ctx24, grid_ref, eta24):
    full = loc.RegionSpec.from_mask(np.ones(len(grid_ref), bool), "all")
    half = loc.RegionSpec.from_mask(grid_ref.q >= 0, "half")
    with pytest.raises(ValueError, match="overlap"):
        ea.povm_check([full, half], eta24, grid_ref, ctx24)
    with pytest.raises(ValueError, match="cover"):
        ea.povm_check([half], eta24, grid_ref, ctx24)


# ---------------------------------------------------------------------------
# projection scan
# ---------------------------------------------------------------------------


def test_no_quantized_indicator_is_a_projection(ctx32, grid_ref, eta32):
    report = ea.projection_scan(eta32, grid_ref, ctx32, _standard_battery(grid_ref))
    assert report.all_pass
    gaps = {e.label: e.max_spectral_gap for e in report.entries}
    # hand values: top eigenvalue of the radius-2 disk is 1 - e^-2 = 0.8647,
    # giving a spectral gap of at least 0.117; radius 3 clears 0.05
    assert gaps["disk(2.0)"] >= 0.117
    assert gaps["disk(3.0)"] >= 0.05


def test_trivial_regions_rejected_by_scan(ctx32, grid_ref, eta32):
    full = loc.RegionSpec.from_mask(np.ones(len(grid_ref), bool), "all")
    with pytest.raises(ValueError, match="measure"):
        ea.projection_scan(eta32, grid_ref, ctx32, [full])
    empty = loc.RegionSpec.from_mask(np.zeros(len(grid_ref), bool), "none")
    with pytest.raises(ValueError, match="measure"):
        ea.projection_scan(eta32, grid_ref, ctx32, [empty])


# ---------------------------------------------------------------------------
# quantization is additive over symbols
# ---------------------------------------------------------------------------


def test_quantize_is_additive_homomorphism(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(2)
    f = rng.uniform(0, 0.5, size=len(grid_ref))
    g = rng.uniform(0, 0.5, size=len(grid_ref))
    af = loc.quantize(f, eta24, grid_ref, ctx24)
    ag = loc.quantize(g, eta24, grid_ref, ctx24)
    afg = loc.quantize(f + g, eta24, grid_ref, ctx24)
    assert np.max(np.abs(af + ag - afg)) < 1e-12
    joined = ea.oplus(af, ag)
    assert joined is not None
    assert np.max(np.abs(joined - afg)) < 1e-12


# ---------------------------------------------------------------------------
# fuzzy symbols
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(unit_arrays)
def test_symbol_excluded_middle(values):
    f = ea.FuzzySymbol(values)
    total = ea.symbol_oplus(f, ea.symbol_neg(f))
    assert np.all(total.values == 1.0)


@settings(max_examples=60, deadline=None)
@given(unit_arrays)
def test_symbol_double_negation(values):
    f = ea.FuzzySymbol(values)
    assert np.max(np.abs(ea.symbol_neg(ea.symbol_neg(f)).values - f.values)) < 1e-15


@settings(max_examples=60, deadline=None)
@given(paired_unit_arrays(2))
def test_symbol_lukasiewicz_axiom(pair):
    f, g = (ea.FuzzySymbol(v) for v in pair)
    lhs = ea.symbol_oplus(ea.symbol_neg(ea.symbol_oplus(ea.symbol_neg(f), g)), g)
    rhs = ea.symbol_oplus(ea.symbol_neg(ea.symbol_oplus(ea.symbol_neg(g), f)), f)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(paired_unit_arrays(3))
def test_symbol_oplus_commutative_associative(triple):
    f, g, h = (ea.FuzzySymbol(v) for v in triple)
    assert np.array_equal(ea.symbol_oplus(f, g).values, ea.symbol_oplus(g, f).values)
    left = ea.symbol_oplus(ea.symbol_oplus(f, g), h)
    right = ea.symbol_oplus(f, ea.symbol_oplus(g, h))
    assert np.max(np.abs(left.values - right.values)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(paired_unit_arrays(3))
def test_symbol_lattice_distributive(triple):
    f, g, h = (ea.FuzzySymbol(v) for v in triple)
    lhs = ea.symbol_meet(f, ea.symbol_join(g, h))
    rhs = ea.symbol_join(ea.symbol_meet(f, g), ea.symbol_meet(f, h))
    assert np.array_equal(lhs.values, rhs.values)


@settings(max_examples=60, deadline=None)
@given(paired_unit_arrays(3))
def test_godel_implication_adjunction(triple):
    f, g, h = (ea.FuzzySymbol(v) for v in triple)
    left = ea.symbol_meet(h, f).values <= g.values
    right = h.values <= ea.symbol_imp_godel(f, g).values
    assert np.array_equal(left, right)


def test_half_symbol_breaks_boolean_law():
    half = ea.FuzzySymbol(np.full(10, 0.5))
    meet = ea.symbol_meet(half, ea.symbol_neg(half))
    assert np.all(meet.values == 0.5)


def test_godel_implication_reflexive():
    rng = np.random.default_rng(3)
    f = ea.FuzzySymbol(rng.uniform(size=20))
    assert np.all(ea.symbol_imp_godel(f, f).values == 1.0)


def test_lukasiewicz_implication_closed_form():
    f = ea.FuzzySymbol(np.array([0.2, 0.9]))
    g = ea.FuzzySymbol(np.array([0.5, 0.1]))
    assert np.allclose(ea.symbol_imp_luk(f, g).values, [1.0, 0.2])


def test_indicator_symbols_are_fuzzy_symbols(grid_ref):
    mask = loc.RegionSpec.disk(2.0).mask(grid_ref)
    f = ea.FuzzySymbol.indicator(mask)
    assert set(np.unique(f.values)) <= {0.0, 1.0}


def test_fuzzy_symbol_rejects_values_outside_unit_interval():
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ea.FuzzySymbol(np.array([1.5]))
