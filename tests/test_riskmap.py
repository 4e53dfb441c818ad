"""Feature, priority, risk, and flux maps over boundary nodes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfields.errors import MalformedGrid, UnmappedLabel, UnorderedBoundary
from riskfields.grid import OCCUPIED, OccupancyGrid, extract_boundary
from riskfields.riskmap import (EXPONENTIAL, IDENTITY, LABEL, PROBABILITY,
                                SATURATING, SPEED, FeatureReading, FluxMap,
                                PriorityRule, RiskAssign, assign_flux,
                                risk_value, smooth_flux)

from test_grid import box_state


def ring_boundary():
    """Interior 2x2 block; its 8-cell free ring has a simple chain."""
    s = box_state(16, 16)
    s[7:9, 7:9] = OCCUPIED
    g = OccupancyGrid(s, 0.1)
    return extract_boundary(g)


# -- feature readings ---------------------------------------------------------

def test_probability_reading_range():
    FeatureReading(PROBABILITY, 0.0)
    FeatureReading(PROBABILITY, 1.0)
    with pytest.raises(MalformedGrid):
        FeatureReading(PROBABILITY, 1.2)
    with pytest.raises(MalformedGrid):
        FeatureReading(PROBABILITY, -0.1)


def test_speed_reading_nonnegative():
    FeatureReading(SPEED, 0.0)
    with pytest.raises(MalformedGrid):
        FeatureReading(SPEED, -0.5)


def test_unknown_feature_kind():
    with pytest.raises(MalformedGrid):
        FeatureReading("heat", 1.0)


# -- priorities ---------------------------------------------------------------

def test_probability_priority_is_complement():
    rule = PriorityRule(PROBABILITY)
    assert rule.priority(FeatureReading(PROBABILITY, 0.2)) == pytest.approx(0.8)
    assert rule.priority(FeatureReading(PROBABILITY, 1.0)) == 0.0


def test_speed_priority_passthrough():
    rule = PriorityRule(SPEED)
    assert rule.priority(FeatureReading(SPEED, 2.5)) == 2.5


def test_label_priority_table():
    rule = PriorityRule(LABEL)  # default table 1->1, 2->3, 3->6
    assert rule.priority(FeatureReading(LABEL, 2)) == 3.0
    with pytest.raises(UnmappedLabel):
        rule.priority(FeatureReading(LABEL, 9))
    neg = PriorityRule(LABEL, table={1: -2.0})
    with pytest.raises(MalformedGrid):
        neg.priority(FeatureReading(LABEL, 1))


def test_rule_rejects_wrong_reading_kind():
    rule = PriorityRule(SPEED)
    with pytest.raises(MalformedGrid):
        rule.priority(FeatureReading(PROBABILITY, 0.5))


# -- risk values --------------------------------------------------------------

def test_risk_assign_validation():
    with pytest.raises(MalformedGrid):
        RiskAssign(SATURATING, v_ref=0.0)
    with pytest.raises(MalformedGrid):
        RiskAssign(EXPONENTIAL, alpha=-1.0)


def test_risk_value_formulas():
    assert risk_value(1.7, RiskAssign(IDENTITY)) == 1.0  # clamped
    assert risk_value(0.3, RiskAssign(IDENTITY)) == 0.3
    assert risk_value(6.0, RiskAssign(SATURATING, v_ref=2.0)) == 0.75
    w = RiskAssign(EXPONENTIAL, alpha=0.5)
    assert risk_value(2.0, w) == pytest.approx(1.0 - math.exp(-1.0))
    with pytest.raises(MalformedGrid):
        risk_value(-0.1, RiskAssign(IDENTITY))
    with pytest.raises(MalformedGrid):
        risk_value(1.0, RiskAssign("step"))


@settings(max_examples=60, deadline=None)
@given(r1=st.floats(0, 50), r2=st.floats(0, 50),
       kind=st.sampled_from([IDENTITY, SATURATING, EXPONENTIAL]))
def test_risk_value_bounded_and_monotone(r1, r2, kind):
    w = RiskAssign(kind, v_ref=0.8, alpha=0.4)
    lo, hi = sorted((r1, r2))
    vlo, vhi = risk_value(lo, w), risk_value(hi, w)
    assert 0.0 <= vlo <= 1.0
    assert vlo <= vhi + 1e-15


# -- flux ---------------------------------------------------------------------

def test_flux_map_affine():
    phi = FluxMap(1.0, 6.0)
    assert phi(0.0) == 1.0
    assert phi(1.0) == 6.0
    assert phi(0.5) == 3.5
    with pytest.raises(MalformedGrid):
        FluxMap(0.0, 6.0)
    with pytest.raises(MalformedGrid):
        FluxMap(3.0, 2.0)


def test_assign_flux_bounds_and_length():
    b = ring_boundary()
    rng = np.random.default_rng(5)
    feats = [FeatureReading(PROBABILITY, p) for p in rng.random(b.n)]
    phi = FluxMap(1.0, 6.0)
    out = assign_flux(b, feats, PriorityRule(PROBABILITY),
                      RiskAssign(IDENTITY), phi)
    assert out.flux.shape == (b.n,)
    assert (out.flux >= 1.0).all() and (out.flux <= 6.0).all()
    with pytest.raises(MalformedGrid):
        assign_flux(b, feats[:-1], PriorityRule(PROBABILITY),
                    RiskAssign(IDENTITY), phi)


def test_assign_flux_known_values():
    b = ring_boundary()
    feats = [FeatureReading(PROBABILITY, 0.0)] * b.n  # priority 1 -> risk 1
    out = assign_flux(b, feats, PriorityRule(PROBABILITY),
                      RiskAssign(IDENTITY), FluxMap(1.0, 6.0))
    assert np.all(out.flux == 6.0)


def test_smooth_flux_window_validation_and_passthrough():
    b = ring_boundary()
    b = b.with_flux(np.linspace(1.0, 2.0, b.n))
    assert smooth_flux(b, 0) is b
    assert smooth_flux(b, 1) is b
    for w in (2, 4, -3):
        with pytest.raises(MalformedGrid):
            smooth_flux(b, w)
    with pytest.raises(MalformedGrid):
        smooth_flux(ring_boundary(), 5)  # no flux assigned yet


def test_smooth_flux_matches_circular_mean():
    b = ring_boundary()
    rng = np.random.default_rng(9)
    b = b.with_flux(rng.uniform(1.0, 6.0, b.n))
    out = smooth_flux(b, 3)
    for cid in b.components():
        chain = b.chains[cid]
        vals = b.flux[chain]
        want = (vals + np.roll(vals, 1) + np.roll(vals, -1)) / 3.0
        assert np.allclose(out.flux[chain], want)
        # mean preserved, range never widened
        assert out.flux[chain].mean() == pytest.approx(vals.mean())
        assert out.flux[chain].min() >= vals.min() - 1e-12
        assert out.flux[chain].max() <= vals.max() + 1e-12


def test_smooth_flux_needs_ordered_chains():
    # two bars with a shared one-cell gap: the gap nodes belong to the first
    # component, so the second cannot order a simple loop
    s = box_state(14, 14)
    s[4, 4:8] = OCCUPIED
    s[6, 4:8] = OCCUPIED
    g = OccupancyGrid(s, 0.1)
    b = extract_boundary(g)
    assert any(b.chains[c] is None for c in b.components())
    b = b.with_flux(np.full(b.n, 2.0))
    with pytest.raises(UnorderedBoundary):
        smooth_flux(b, 5)
