import math

import numpy as np
import pytest

from oracles import (balanced_curve, boundary_samples, circle_curve,
                     descent_field, ellipse_curve, first_variation_action,
                     gradient_ring_maxima, grid_displacement, grid_transform,
                     polynomial_curve)

from liouvol import flow
from liouvol.action import liouville_action
from liouvol.cli import load_curve
from liouvol.curves import CurveSpec
from liouvol.errors import DomainError
from liouvol.flow import (ACTION_FLOOR, BeltramiField, beltrami_step,
                          displacement_field, gradient_field,
                          gradient_ratio_min, roundness_deficit, run_flow,
                          wp_path_length)
from liouvol.mapping import conformal_map_pair
from liouvol.quadrature import QuadratureGrid, angular_count
from liouvol.series import LaurentMap, schwarzian

FINE = QuadratureGrid.disk(30, 16, 1024)


@pytest.fixture(scope="module")
def wobble_maps():
    return conformal_map_pair(polynomial_curve(0.0, 0.08))


def test_gradient_field_circle_is_zero():
    g = LaurentMap(1.0)
    field = gradient_field(g)
    w = 1.5 + 0.5j
    assert descent_field(g)(np.array([w]))[0] == 0
    assert field.sup_norm == 0
    assert field.wp_norm_sq == 0


def test_gradient_field_ellipse(ellipse_maps):
    _, g = ellipse_maps
    field = gradient_field(g)
    assert field.sup_norm <= 6.0 + 1e-9
    assert field.sup_norm > 0.1
    assert field.wp_norm_sq > 0


def test_gradient_wp_norm_matches_pairing(grid, ellipse_maps):
    _, g = ellipse_maps
    field = gradient_field(g)
    pairing = first_variation_action(g, descent_field(g), grid)
    assert abs(-pairing - field.wp_norm_sq) < 0.01 * field.wp_norm_sq


def test_contour_displacement_matches_fine_grid(ellipse_maps, cubic_maps):
    for _, g in (ellipse_maps, cubic_maps):
        field = gradient_field(g)
        z, fdot = displacement_field(field)
        assert z.size == angular_count(2 * g.order) == 256
        # the ring FFT's z against Horner at the same points
        assert np.max(np.abs(z - g(np.exp(2j * np.pi * np.arange(256)
                                          / 256)))) <= 1e-13 * np.max(np.abs(z))
        ref = grid_transform(g, descent_field(g), z[::8], FINE)
        assert np.max(np.abs(fdot[::8] - ref)) <= 1e-6 * np.max(np.abs(ref))

    # the star z + 0.08 z^5 needs points in proportion to its map order
    star = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    _, g = conformal_map_pair(star)
    field = gradient_field(g)
    n = angular_count(2 * g.order)
    assert n >= 2 * g.order
    _, fdot = displacement_field(field)
    # zero coefficients double the order of g, and so the points
    padded = LaurentMap(g.b1, g.b0, np.pad(g.bneg, (0, g.order)))
    _, fine = displacement_field(gradient_field(padded))
    assert (fdot.size, fine.size) == (n, 2 * n)
    assert np.max(np.abs(fdot - fine[::2])) <= 1e-10 * np.max(np.abs(fine))


def test_gradient_field_norms_are_spectral(ellipse_maps, cubic_maps,
                                           wobble_maps, grid):
    for _, g in (ellipse_maps, cubic_maps, wobble_maps):
        field = gradient_field(g)
        ext = FINE.exterior()
        weight = (np.abs(ext.nodes) ** 2 - 1.0) ** 2
        wp = 4.0 * ext.integrate(np.abs(schwarzian(g, ext.nodes)) ** 2
                                 * weight)
        assert abs(field.wp_norm_sq - wp) <= 1e-9 * wp
        # the grid's nodes and a far-field ray, as sampled before
        nodes = grid.exterior().nodes
        far = np.logspace(0.1, 4, 64) * np.exp(1j)
        nu = descent_field(g)
        sup = max(np.abs(nu(nodes)).max(), np.abs(nu(far)).max())
        assert abs(field.sup_norm - sup) <= 1e-3 * sup
        assert field.sup_norm <= 6.0


def test_gradient_sup_is_that_of_every_ring(ellipse_maps, cubic_maps,
                                            wobble_maps):
    # gradient_field transforms only the rings whose bounds reach the sup;
    # its sup must be that of all of them, bit for bit
    star = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    rng = np.random.default_rng(4417)
    k = np.arange(2, 7)
    generic = polynomial_curve(*(np.exp(2j * np.pi * rng.random(k.size))
                                 * 0.2 / (k * k.size)))
    flow_maps = [s.g for s in run_flow(*conformal_map_pair(generic),
                                       max_steps=4)]
    maps = [LaurentMap(1.0), conformal_map_pair(star)[1]] + flow_maps
    maps += [g for _, g in (ellipse_maps, cubic_maps, wobble_maps)]
    for g in maps:
        rings, far = gradient_ring_maxima(g)
        assert gradient_field(g).sup_norm == max(rings.max(), far)
    # the generic flow's sup is on an interior ring, above the far probe
    rings, far = gradient_ring_maxima(flow_maps[-1])
    assert 0 < np.argmax(rings) < rings.size - 1 and rings.max() > far


def test_beltrami_step_zero_field_or_time(grid, ellipse, ellipse_maps):
    _, g = ellipse_maps
    zero = BeltramiField(g, np.zeros(256, complex), 0.0, 0.0)
    moved = beltrami_step(zero, 0.37, precomputed=grid_displacement(
        ellipse, g, np.zeros_like, grid))
    # same curve as a point set (the refit may reparametrize the boundary)
    pts = boundary_samples(moved, 512)
    radial_gap = np.abs(pts) - 1.2 / np.sqrt(
        np.cos(np.angle(pts)) ** 2 + 1.44 * np.sin(np.angle(pts)) ** 2)
    assert np.max(np.abs(radial_gap)) < 1e-5
    with pytest.raises(DomainError):
        beltrami_step(gradient_field(g), 0.0)


def test_beltrami_step_regime_guard(ellipse_maps):
    _, g = ellipse_maps
    field = gradient_field(g)
    with pytest.raises(DomainError):
        beltrami_step(field, 1.0)


def test_beltrami_step_first_order_decrease(ellipse_maps):
    f, g = ellipse_maps
    field = gradient_field(g)
    s0 = liouville_action(f, g).total
    t = 1e-3
    moved = beltrami_step(field, t)
    fm, gm = conformal_map_pair(moved)
    drop = liouville_action(fm, gm).total - s0
    predicted = -t * field.wp_norm_sq
    assert abs(drop - predicted) < 0.1 * abs(predicted)


def test_beltrami_step_detects_self_intersection(ellipse, ellipse_maps):
    from liouvol.errors import DeformationError
    _, g = ellipse_maps
    zero = BeltramiField(g, np.zeros(256, complex), 0.5, 0.0)
    z = boundary_samples(ellipse, 256)
    # engineered displacement pinching half the curve through the other
    fdot = -12.0 * z * (np.cos(np.angle(z)) > 0)
    with pytest.raises(DeformationError):
        beltrami_step(zero, 0.15, precomputed=(z, fdot))


def test_beltrami_step_refuses_a_trial_that_leaves_star_shape(ellipse,
                                                              ellipse_maps):
    # a move onto a simple horseshoe, not star shaped about its centroid, is
    # a rejected trial (run_flow halves t), not a DomainError ending the flow
    from liouvol.errors import DeformationError
    _, g = ellipse_maps
    zero = BeltramiField(g, np.zeros(256, complex), 0.0, 0.0)
    t_out = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 80)
    h = np.concatenate([np.exp(1j * t_out), 0.55 * np.exp(1j * t_out[::-1])])
    z = boundary_samples(ellipse, h.size)
    with pytest.raises(DeformationError, match="star shaped"):
        beltrami_step(zero, 0.15, precomputed=(z, (h - z) / 0.15))


def test_a_flow_of_no_steps_keeps_the_given_pair(wobble_maps):
    # the flow starts from the solved pair itself: it solves no curve
    f, g = wobble_maps
    (state,) = run_flow(f, g, max_steps=0)
    assert state.f is f and state.g is g


def test_flow_circle_start_is_stationary():
    states = run_flow(*conformal_map_pair(circle_curve()), max_steps=5)
    assert len(states) == 1
    assert states[0].action < 1e-9
    # one explicit step moves nothing
    g = LaurentMap(1.0)
    field = gradient_field(g)
    moved = beltrami_step(field, 1e-2)
    assert np.max(np.abs(moved.series.coeffs[:2]
                         - np.array([0, 1]))) < 1e-9
    assert np.max(np.abs(moved.series.coeffs[2:])) < 1e-9


def test_first_order_slope_decay_along_gradient(ellipse_maps):
    f, g = ellipse_maps
    field = gradient_field(g)
    s0 = liouville_action(f, g).total
    errors = []
    for t in (1e-3, 5e-4, 2.5e-4):
        moved = beltrami_step(field, t)
        fm, gm = conformal_map_pair(moved)
        slope = (liouville_action(fm, gm).total - s0) / t
        errors.append(abs(slope + field.wp_norm_sq))
    assert all(b <= 0.65 * a for a, b in zip(errors, errors[1:]))


def test_flow_wobble_roundness_decreases():
    f, g = conformal_map_pair(polynomial_curve(0.0, 0.08))
    states = run_flow(f, g, max_steps=30)
    acts = [s.action for s in states]
    assert all(b <= a for a, b in zip(acts, acts[1:]))
    rough = [s.roundness for s in states]
    assert all(b <= a + 1e-12 for a, b in zip(rough[3:], rough[4:]))
    assert states[-1].action < 0.1 * states[0].action


@pytest.mark.parametrize("offset", [10, 1e3])
def test_a_translated_flow_keeps_its_actions(offset):
    # the refit curves sit at the offset too, and are solved about f(0)
    c = np.array([0, 1, 0.1 + 0.05j, -0.03j])
    ref = [s.action for s in run_flow(
        *conformal_map_pair(CurveSpec.from_series(c)), max_steps=3)]
    moved = CurveSpec.from_series(c + np.r_[offset, 0, 0, 0])
    acts = [s.action
            for s in run_flow(*conformal_map_pair(moved), max_steps=3)]
    assert len(acts) == len(ref) == 4
    for a, r in zip(acts, ref):
        assert abs(a - r) <= 1e-10 * r


def test_flow_energy_accounting():
    f, g = conformal_map_pair(ellipse_curve(1.2, 1.0))
    states = run_flow(f, g, max_steps=60)
    acts = [s.action for s in states]
    assert all(b <= a for a, b in zip(acts, acts[1:]))
    drop = acts[0] - acts[-1]
    cumulative = sum(s.step_size * prev.grad_wp_norm_sq
                     for prev, s in zip(states, states[1:]))
    assert abs(cumulative - drop) <= 0.15 * drop
    # Nehari bound along the whole trajectory
    for s in states:
        assert gradient_field(s.g).sup_norm <= 6.0 + 1e-9


@pytest.mark.parametrize("curve", [ellipse_curve(1.2, 1.0),
                                   polynomial_curve(0.0, 0.08)],
                         ids=["ellipse", "wobble"])
def test_step_policy_never_retries_an_overshoot(monkeypatch, curve):
    """Each step's first trial is min(cap, 1/2), no trial step is at or
    above a step already rejected for no decrease, no trial is rejected for
    no decrease, each step takes one trial, and the action never
    increases."""
    import liouvol.flow as flow
    trials = []  # [t, "raised" | "moved" | "solved"] per trial
    step, solve = flow.beltrami_step, flow.conformal_map_pair

    def recording_step(nu, t, **kwargs):
        trials.append([t, "raised"])
        moved = step(nu, t, **kwargs)
        trials[-1][1] = "moved"
        return moved

    def recording_solve(*args, **kwargs):
        maps = solve(*args, **kwargs)
        if trials:
            trials[-1][1] = "solved"
        return maps

    monkeypatch.setattr(flow, "beltrami_step", recording_step)
    monkeypatch.setattr(flow, "conformal_map_pair", recording_solve)
    states = run_flow(*conformal_map_pair(curve))
    accepted = [s.step_size for s in states[1:]]
    no_decrease, first, new_step = [], [], True
    t_over = math.inf
    for t, outcome in trials:
        assert t < t_over
        if new_step:
            first.append(t)
            new_step = False
        if outcome != "solved":
            continue
        if accepted and t == accepted[0]:
            accepted.pop(0)
            new_step = True
        else:
            no_decrease.append(t)
            t_over = t
    assert not accepted
    assert len(no_decrease) == 0
    assert first == [min(0.999 * flow.STEP_CAP
                         / gradient_field(s.g).sup_norm, 0.5)
                     for s in states[:-1]]
    assert len(trials) == len(states) - 1
    acts = [s.action for s in states]
    assert all(b <= a for a, b in zip(acts, acts[1:]))
    assert acts[-1] < 1e-9


@pytest.mark.parametrize("seed", [1828, 1844, 1909])
def test_generic_flows_reach_the_floor_within_ten_steps(seed):
    # generic curves of the flow workload whose steps, once past the cap,
    # must be near Newton's 1/2: S(t) ~ S (1 - 2t)^2, so steps near 1 cut S
    # by a few percent each, and 50 of them end at 1.4e-7, 5.5e-8, 4.0e-9
    states = run_flow(*conformal_map_pair(balanced_curve(seed, 3)))
    assert len(states) - 1 <= 10
    assert states[-1].action < 1e-9


def _assert_length_bracket(states):
    """0 < r_k <= 1 to 1e-5, r_k = |nu_k|_WP^2 / (4 S_k) over the states
    above the action floor, and 1 <= L^2 / S_0 <= 1 / min r_k to 1e-3: the
    bounds a path along the exact gradient meets."""
    ratios = [s.grad_wp_norm_sq / (4.0 * s.action) for s in states
              if s.action > ACTION_FLOOR]
    assert ratios and all(0 < r <= 1 + 1e-5 for r in ratios)
    assert gradient_ratio_min(states) == min(ratios)
    squared = wp_path_length(states) ** 2 / states[0].action
    assert 1 - 1e-3 <= squared <= 1 / min(ratios) + 1e-3


@pytest.mark.parametrize("name", ["ellipse", "cubic", "wobble"])
def test_wp_length_lies_within_its_bracket(name):
    _assert_length_bracket(run_flow(*conformal_map_pair(load_curve(name))))


@pytest.mark.parametrize("name", ["ellipse", "wobble"])
def test_wp_length_does_not_depend_on_the_step_cap(monkeypatch, name):
    # the length is summed from the decrease of the action, not from the
    # step sizes, so a cap four times smaller, which takes about four times
    # the steps, moves it by about 1e-5
    maps = conformal_map_pair(load_curve(name))
    lengths = []
    for cap in (0.02, 0.005):
        monkeypatch.setattr(flow, "STEP_CAP", cap)
        lengths.append(wp_path_length(run_flow(*maps, max_steps=100)))
    assert abs(lengths[1] - lengths[0]) <= 1e-3 * lengths[0]


FAR_CURVES = {
    "quadratic": polynomial_curve(0.3),
    "ellipse-1.5": ellipse_curve(1.5, 1.0, n=2048),
    "cubic-0.19": polynomial_curve(0.0, 0.19),
    "star-0.08": polynomial_curve(0.0, 0.0, 0.0, 0.08),
}


@pytest.mark.parametrize("name", list(FAR_CURVES))
def test_the_flow_reaches_the_floor_from_far_curves(name):
    # S_0 = 0.474, 1.602, 2.455 and 2.965, against at most 0.32 for the
    # fixtures: the flow reaches the floor within 50 steps, never raises
    # the action, and every state's field keeps the Nehari bound
    states = run_flow(*conformal_map_pair(FAR_CURVES[name]), max_steps=50)
    assert states[-1].action < ACTION_FLOOR
    acts = [s.action for s in states]
    assert all(b <= a for a, b in zip(acts, acts[1:]))
    assert all(gradient_field(s.g).sup_norm <= 6.0 for s in states)
    _assert_length_bracket(states)


def test_roundness_deficit_zero_on_circle():
    # the deficit is read from the exterior map's coefficients and |g'| on
    # the circle, so the circle's is 0 to rounding
    assert abs(roundness_deficit(LaurentMap(1.0))) < 1e-14
    assert abs(roundness_deficit(LaurentMap(3e200 - 1e200j, 5e200))) < 1e-14
    _, g = conformal_map_pair(ellipse_curve(1.2, 1.0))
    assert roundness_deficit(g) > 1e-3

