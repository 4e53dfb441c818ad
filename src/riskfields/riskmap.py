"""Feature -> priority -> risk -> flux pipeline over boundary nodes.

Features come from map annotations (occupancy probability, obstacle speed, or
a semantic label).  A priority rule turns the feature into a nonnegative
number, a risk map normalizes it into [0,1], and the flux map interpolates the
result between beta_min and beta_max.  Everything operates per boundary node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedGrid, UnmappedLabel, UnorderedBoundary

PROBABILITY = "probability"
SPEED = "speed"
LABEL = "label"

IDENTITY = "identity"
SATURATING = "saturating"
EXPONENTIAL = "exponential"


@dataclass
class FeatureReading:
    kind: str
    value: object

    def __post_init__(self):
        if self.kind == PROBABILITY:
            v = float(self.value)
            if not (0.0 <= v <= 1.0):
                raise MalformedGrid(f"probability {v} outside [0,1]")
        elif self.kind == SPEED:
            if float(self.value) < 0.0:
                raise MalformedGrid("speed feature must be nonnegative")
        elif self.kind != LABEL:
            raise MalformedGrid(f"unknown feature kind {self.kind!r}")


@dataclass
class PriorityRule:
    """Feature to nonnegative priority.

    PROBABILITY uses 1 - p (uncertain space is risky space), SPEED passes
    through, LABEL looks up a table of label id -> priority.
    """
    kind: str
    table: dict = field(default_factory=lambda: {1: 1.0, 2: 3.0, 3: 6.0})

    def priority(self, reading):
        if reading.kind != self.kind:
            raise MalformedGrid(
                f"rule for {self.kind!r} got a {reading.kind!r} reading")
        if self.kind == PROBABILITY:
            return 1.0 - float(reading.value)
        if self.kind == SPEED:
            return float(reading.value)
        key = int(reading.value)
        if key not in self.table:
            raise UnmappedLabel(f"label id {key} has no priority entry")
        p = float(self.table[key])
        if p < 0:
            raise MalformedGrid("priorities must be nonnegative")
        return p


@dataclass
class RiskAssign:
    """Normalizes priority into [0,1], monotone nondecreasing."""
    kind: str = IDENTITY
    v_ref: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind == SATURATING and self.v_ref <= 0:
            raise MalformedGrid("saturating risk needs v_ref > 0")
        if self.kind == EXPONENTIAL and self.alpha <= 0:
            raise MalformedGrid("exponential risk needs alpha > 0")


def risk_value(r, w):
    """Risk in [0,1] for a nonnegative priority r."""
    r = float(r)
    if r < 0:
        raise MalformedGrid("priority must be nonnegative")
    if w.kind == IDENTITY:
        return min(1.0, max(0.0, r))
    if w.kind == SATURATING:
        return r / (w.v_ref + r)
    if w.kind == EXPONENTIAL:
        return 1.0 - math.exp(-w.alpha * r)
    raise MalformedGrid(f"unknown risk kind {w.kind!r}")


@dataclass
class FluxMap:
    beta_min: float = 1.0
    beta_max: float = 6.0

    def __post_init__(self):
        if not (0.0 < self.beta_min <= self.beta_max):
            raise MalformedGrid("need 0 < beta_min <= beta_max")

    def __call__(self, wval):
        return self.beta_min + float(wval) * (self.beta_max - self.beta_min)


def assign_flux(boundary, features, rule, w, phi):
    """Per-node flux beta = phi(w(priority(feature))).

    Returns a new BoundarySet with the flux array set; always lands inside
    [beta_min, beta_max].
    """
    if len(features) != boundary.n:
        raise MalformedGrid("one feature reading per boundary node required")
    memo = {}   # by (kind, value), as FeatureReading is unhashable
    flux = np.empty(boundary.n)
    for k, r in enumerate(features):    # in node order: first bad one raises
        key = (r.kind, r.value)
        if key not in memo:
            memo[key] = phi(risk_value(rule.priority(r), w))
        flux[k] = memo[key]
    return boundary.with_flux(flux)


def smooth_flux(boundary, window=5):
    """Circular moving average of the flux along each component's chain.

    window is an odd node count; 0 or 1 leaves the flux untouched.  Averaging
    preserves the per-component mean and never leaves the input range.
    """
    if boundary.flux is None:
        raise MalformedGrid("assign flux before smoothing")
    if window in (0, 1):
        return boundary
    if window < 0 or window % 2 == 0:
        raise MalformedGrid("window must be a positive odd node count")
    flux = boundary.flux.copy()
    half = window // 2
    for cid in boundary.components():
        chain = boundary.chains.get(cid)
        if chain is None:
            raise UnorderedBoundary(
                f"component {cid} has no simple boundary chain")
        if len(chain) == 0:
            continue
        vals = flux[chain]
        acc = np.zeros_like(vals)
        for k in range(-half, half + 1):
            acc += np.roll(vals, k)
        flux[chain] = acc / float(window)
    return boundary.with_flux(flux)
