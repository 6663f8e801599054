import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flockspectra import (DomainError, SimConfig, StepSizeTooLarge,
                          Trajectory,
                          build_laplacian, coherence_error,
                          laplacian_spectrum, make_params,
                          simulate_first_order, simulate_second_order,
                          spectral_radius_estimate)
from flockspectra import simulate
from flockspectra.model import tridiagonal
from flockspectra.simulate import (_coherence_first, _coherence_second,
                                   _ends, _rk4, _step_band, _tiling)


def _stable_params(n=20):
    return make_params(1, 1, 2, 0.5, 0.5, n)


def _stage_rk4(f, y0, dt, steps, stride):
    """The four-stage RK4 loop the banded step matrix replaced."""
    times, states, y = [0.0], [y0.copy()], y0.copy()
    for i in range(1, steps + 1):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if i % stride == 0 or i == steps:
            times.append(i * dt)
            states.append(y.copy())
    return np.array(times), np.array(states)


class TestSimulateFirstOrder:
    def test_fixed_point(self):
        p = _stable_params()
        h = -np.arange(21.0)
        traj = simulate_first_order(SimConfig(p, h, h.copy(), t_end=5.0))
        assert np.allclose(traj.positions, h, atol=1e-12)
        assert np.all(traj.coherence_errors < 1e-12)

    def test_coherence_decays_when_stable(self):
        p = _stable_params()
        h = -np.arange(21.0)
        rng = np.random.default_rng(1)
        traj = simulate_first_order(
            SimConfig(p, h, h + rng.normal(size=21), t_end=400.0,
                      save_stride=10))
        ce = traj.coherence_errors
        assert ce[-1] < 1e-1 * ce[0]

    def test_coherence_grows_when_visibly_unstable(self):
        p = make_params(3, 1, 4, 5, -4, 20)   # c+e<0: positive mode 0.75
        h = -np.arange(21.0)
        rng = np.random.default_rng(2)
        traj = simulate_first_order(
            SimConfig(p, h, h + rng.normal(size=21) * 0.01, t_end=30.0,
                      save_stride=10))
        ce = traj.coherence_errors
        assert ce[-1] > 100 * ce[0]

    def test_leader_coordinate_constant(self):
        p = _stable_params()
        h = -np.arange(21.0)
        rng = np.random.default_rng(3)
        x0 = h + rng.normal(size=21)
        traj = simulate_first_order(SimConfig(p, h, x0, t_end=10.0))
        assert np.allclose(traj.positions[:, 0], x0[0], atol=1e-13)

    def test_step_size_guard(self):
        p = _stable_params()
        h = np.zeros(21)
        with pytest.raises(StepSizeTooLarge):
            simulate_first_order(SimConfig(p, h, h, t_end=10.0, dt=10.0))

    def test_step_count_beyond_the_float_range_rejected(self):
        p = _stable_params()
        h = np.zeros(21)
        with pytest.raises(DomainError, match="steps"):
            simulate_first_order(SimConfig(p, h, h, 1e300, dt=1e-10))

    # 2.5 would save times that are not step multiples, in rows never
    # written
    @pytest.mark.parametrize("stride", [0, -1, 2.5])
    @pytest.mark.parametrize("order", [1, 2])
    def test_save_stride_below_one_rejected(self, stride, order):
        p = _stable_params()
        h = np.zeros(21)
        cfg = SimConfig(p, h, h, t_end=1.0, v0=h, alpha=1.0, beta=1.0,
                        save_stride=stride)
        run = simulate_first_order if order == 1 else simulate_second_order
        with pytest.raises(DomainError, match="save_stride"):
            run(cfg)

    def test_rk4_refinement_ratio(self):
        p = _stable_params()
        h = -np.arange(21.0)
        rng = np.random.default_rng(4)
        x0 = h + rng.normal(size=21)

        def final_state(dt):
            return simulate_first_order(
                SimConfig(p, h, x0, t_end=4.0, dt=dt)).positions[-1]

        ref = final_state(0.0125)
        e1 = np.linalg.norm(final_state(0.1) - ref)
        e2 = np.linalg.norm(final_state(0.05) - ref)
        assert 8 <= e1 / e2 <= 32

    def test_matches_negated_laplacian_reference(self):
        # the banded step matrix sums each step in another order than the
        # four stages, which moves it by a few ulps per row
        p = make_params(1.3, 0.7, 2.0, 0.9, 1.1, 30)
        h = -np.arange(31.0)
        x0 = h + np.random.default_rng(5).normal(size=31)
        traj = simulate_first_order(SimConfig(p, h, x0, t_end=3.0, dt=0.01))
        minus_L = -build_laplacian(p)
        times, states = _stage_rk4(lambda x: minus_L @ (x - h), x0, 0.01,
                                   300, 1)
        assert np.array_equal(traj.times, times)
        np.testing.assert_allclose(traj.positions, states, rtol=1e-13,
                                   atol=0)

    def test_memory_is_linear_in_n(self):
        # a dense (n+1)^2 Laplacian alone would take 32 MB here
        p = _stable_params(2000)
        h = -np.arange(2001.0)
        tracemalloc.start()
        try:
            simulate_first_order(SimConfig(p, h, h + 1.0, t_end=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("stride", [1, 3, 7])
    def test_rk4_matches_list_loop(self, stride):
        minus_L = -build_laplacian(_stable_params(6))
        x0 = np.random.default_rng(2).normal(size=7)
        for steps in (1, 20, 21):
            got = _rk4(lambda x: minus_L @ x, x0, 0.03, steps, stride, 4)
            want = _stage_rk4(lambda x: minus_L @ x, x0, 0.03, steps, stride)
            assert np.array_equal(got[0], want[0])
            np.testing.assert_allclose(got[1], want[1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("order,limit_mib", [(1, 13.0), (2, 22.5)])
    def test_peak_memory_near_the_states(self, order, limit_mib):
        # 501 snapshots of 1601 positions are 6.1 MiB (first order); 587
        # of positions and velocities are 14.3 MiB (second order).  Room
        # for the states, one scratch array the size of the positions for
        # the coherence, and O(n) work vectors.
        p = make_params(1, 1.5, 2.5, 1, 0.5, 1600)
        h = -np.arange(1601.0)
        x0 = h + np.linspace(0.0, 1.0, 1601)
        cfg = SimConfig(p, h, x0, t_end=50.0, v0=np.zeros(1601), alpha=1.0,
                        beta=1.0)
        run = simulate_first_order if order == 1 else simulate_second_order
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2 ** 20


@pytest.mark.parametrize("order", [1, 2])
def test_step_matrix_takes_four_generator_applications(monkeypatch, order):
    # the four stages applied the generator 4 times per step; the band
    # of P(dt G) takes 4 applications to one block of probe columns, on
    # a chain of at most 2 half + 2T entries whatever n is
    calls = []

    def counted_rk4(f, *args):
        def counted(y):
            calls.append(y.shape)
            return f(y)
        return _rk4(counted, *args)

    monkeypatch.setattr(simulate, "_rk4", counted_rk4)
    run = simulate_first_order if order == 1 else simulate_second_order
    for n in (20, 400, 1600):
        calls.clear()
        p = _stable_params(n)
        h = -np.arange(n + 1.0)
        cfg = SimConfig(p, h, h + 1.0, t_end=10.0, v0=np.zeros(n + 1),
                        alpha=1.0, beta=1.0)
        assert len(run(cfg).times) > 5
        # half-width 4 and T = 16, or 9 and T = 32 on the interleaved
        # state: 21 states or all 42 entries at n = 20
        if order == 1:
            assert calls == [(min(n + 1, 40), 9)] * 4
        else:
            assert calls == [(min(2 * n + 2, 82), 19)] * 4


def _generator(p, order, alpha=1.0, beta=1.0):
    """f applying the generator of first order, -L, or of the interleaved
    (z, v) state of second order, on a chain of len(block) states, as the
    simulate functions do; the state size; the half-width and period of
    the RK4 step band."""
    L = tridiagonal(p, "laplacian")

    def minus_L(z):
        return -simulate._matvec(_ends(L, len(z)), z)
    if order == 1:
        return minus_L, p.n + 1, 4, 1

    def f(y):
        z, v = y[0::2], y[1::2]
        out = np.empty_like(y)
        out[0::2] = v
        out[1::2] = minus_L(alpha * z + beta * v)
        return out
    return f, 2 * (p.n + 1), 9, 2


def _band_loop(band, y0, steps, stride):
    """The states of y += (band row i) . y[i - half .. i + half], one
    windowed dot product per row and step."""
    half = band.shape[1] // 2
    padded = np.zeros(len(y0) + 2 * half)
    y = padded[half:half + len(y0)]
    y[:] = y0
    window = np.lib.stride_tricks.sliding_window_view(padded, band.shape[1])
    states = [y0.copy()]
    for i in range(1, steps + 1):
        y += np.einsum("ij,ij->i", window, band)
        if i % stride == 0 or i == steps:
            states.append(y.copy())
    return np.array(states)


@pytest.mark.parametrize("stride", [1, 3, 7])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [2, 5, 300])
def test_tiled_steps_match_the_band_loop(n, order, stride):
    # n = 2 and 5: every row is exact; n = 300: all but ~2 tiles' worth
    # of rows are in the tiles
    f, size, half, period = _generator(_stable_params(n), order)
    y0 = np.random.default_rng(n).normal(size=size)
    band = _step_band(f, size, 0.02, half)
    lo, count, matrix, pieces = _tiling(f, size, 0.02, half, period)
    tile = matrix.shape[1]
    if n < 10:
        assert count == 0
    else:
        assert count * tile >= size - 2 * tile
    assert sum(len(dense) for _, dense in pieces) == size - count * tile
    times, states = _rk4(f, y0, 0.02, 25, stride, half, period)
    want = _band_loop(band, y0, 25, stride)
    assert states.shape == want.shape
    assert np.abs(states - want).max() <= 1e-14 * np.abs(want).max()
    leader = 0 if order == 1 else 1  # its position, or its velocity
    assert np.all(states[:, leader] == y0[leader])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.floats(0.1, 5), c=st.floats(0.1, 5), e=st.floats(-5, 5),
       n=st.integers(2, 3000), order=st.sampled_from([1, 2]),
       alpha=st.floats(0.1, 3), beta=st.floats(0.1, 3),
       dt=st.floats(0.01, 1))
def test_short_band_gives_the_full_band(a, c, e, n, order, alpha, beta, dt):
    # the end pieces are the full band's end rows bit for bit, and every
    # tiled row its pattern row; + 0.0 clears the sign of zeros, which
    # the full band sets to +0.0 where a column leaves the state
    p = make_params(a, c, None, c - e, e, n)
    f, size, half, period = _generator(p, order, alpha, beta)
    dt /= spectral_radius_estimate(p)
    band = _step_band(f, size, dt, half)
    lo, count, matrix, pieces = _tiling(f, size, dt, half, period)
    tile, width = matrix.shape[1], band.shape[1]
    covered = np.zeros(size, dtype=bool)
    for a0, dense in pieces:
        for r, row in enumerate(dense):
            assert np.array_equal(row[r:r + width].view(np.int64),
                                  band[a0 + r].view(np.int64))
            assert not row[:r].any() and not row[r + width:].any()
        covered[a0:a0 + len(dense)] = True
    rows = lo + np.arange(count * tile)
    assert not covered[rows].any()
    covered[rows] = True
    assert covered.all()
    q = np.arange(tile)
    tiled = matrix.T[q[:, None], q[:, None] + np.arange(width)]
    assert np.array_equal(
        (tiled[(rows - lo) % tile] + 0.0).view(np.int64),
        (band[rows] + 0.0).view(np.int64))


def test_leaving_the_float_range_raises_domain_error():
    # a+e < 0 with c+e < 0: the unstable modes grow past 1.8e308 long
    # before t_end; the overflow and the NaN it leaves stay silent
    p = make_params(1, 1, None, 4, -3, 20)
    cfg = SimConfig(p, np.zeros(21), np.linspace(0, 1, 21), 5000.0)
    with pytest.raises(DomainError, match="40000 RK4 steps.*t_end=5000"):
        simulate_first_order(cfg)


def _stage_trajectory(p, h, x0, dt, steps, stride, v0=None):
    """Positions and velocities from the stage-form RK4 on the dense
    Laplacian: x' = -L(x - h), or x'' = -L(x - h) - L x'.  The stages
    run in long double where the platform has it: in float, their
    rounding grows with an unstable mode past the bound of the test."""
    L = build_laplacian(p).astype(np.longdouble)
    h, x0 = h.astype(np.longdouble), x0.astype(np.longdouble)
    if v0 is None:
        times, states = _stage_rk4(lambda x: -L @ (x - h), x0, dt, steps,
                                   stride)
        return times, states.astype(float), None
    m = len(x0)

    def rhs(y):
        x, v = y[:m], y[m:]
        return np.concatenate([v, -L @ (x - h) - L @ v])
    y0 = np.concatenate([x0, v0.astype(np.longdouble)])
    times, states = _stage_rk4(rhs, y0, dt, steps, stride)
    states = states.astype(float)
    return times, states[:, :m], states[:, m:]


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5), gap=st.floats(-2, 2),
       n=st.integers(2, 80), t_end=st.floats(0.05, 20),
       stride=st.integers(1, 40), order=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1))
# 572 steps: a band of S = P(dt G) rounded each step against |y| and
# drifted 1.76e-11 off the stage form; the band of S - I does not
@example(a=2.875, c=3.125, gap=-1.15625, n=6, t_end=11.0, stride=1,
         order=2, seed=2966)
# a+e = -1.75 and c+e = -3.75: a float stage form drifts 4.6e-11 off the
# long double one, the band 4.5e-13
@example(a=3.0, c=1.0, gap=-1.75, n=40, t_end=6.0, stride=1, order=1,
         seed=18)
def test_step_matrix_matches_stage_form(a, c, gap, n, t_end, stride, order,
                                        seed):
    # e on both sides of the line a+e = 0.  With alpha = beta = 1 the
    # second-order step bound is above 1.8 / (rho_L + 1), so one explicit
    # dt below it fixes the step count of both orders
    e = -a + gap
    p = make_params(a, c, a + c, c - e, e, n)
    rng = np.random.default_rng(seed)
    h = -np.arange(n + 1.0)
    x0 = h + rng.normal(size=n + 1)
    v0 = rng.normal(size=n + 1) if order == 2 else None
    dt = 0.25 / (spectral_radius_estimate(p) + 1.0)
    cfg = SimConfig(p, h, x0, t_end=t_end, dt=dt, v0=v0, alpha=1.0,
                    beta=1.0, save_stride=stride)
    run = simulate_first_order if order == 1 else simulate_second_order
    traj = run(cfg)
    steps = max(1, math.ceil(t_end / dt))
    times, pos, vel = _stage_trajectory(p, h, x0, t_end / steps, steps,
                                        stride, v0)
    assert np.array_equal(traj.times, times)
    scale = max(np.abs(s).max() for s in (pos, vel) if s is not None)
    assert np.abs(traj.positions - pos).max() <= 1e-12 * scale
    if order == 2:
        assert np.abs(traj.velocities - vel).max() <= 1e-12 * scale
        assert np.all(traj.velocities[:, 0] == v0[0])


class TestSimulateSecondOrder:
    def test_coherent_flight_preserved(self):
        p = _stable_params()
        h = -np.arange(21.0)
        traj = simulate_second_order(
            SimConfig(p, h, h + 3.0, t_end=20.0, v0=np.full(21, 0.7),
                      alpha=1.0, beta=1.0))
        assert traj.coherence_errors.max() < 1e-9
        # positions follow x = vbar t + xbar + h
        t_final = traj.times[-1]
        assert np.allclose(traj.positions[-1], h + 3.0 + 0.7 * t_final,
                           atol=1e-8)

    def test_velocities_converge_when_stable(self):
        p = _stable_params()
        h = -np.arange(21.0)
        rng = np.random.default_rng(5)
        traj = simulate_second_order(
            SimConfig(p, h, h + rng.normal(size=21) * 0.1, t_end=3000.0,
                      v0=rng.normal(size=21) * 0.1, alpha=1.0, beta=1.0,
                      save_stride=100))
        v_final = traj.velocities[-1]
        assert np.ptp(v_final) < 1e-2 * max(np.ptp(traj.velocities[0]), 1e-9)

    def test_step_bound_at_1e200(self):
        # (beta rho_L)^2 ~ 2.5e401 leaves the float range; rho ~ 5e200
        # and the default step 0.5 / rho ~ 1e-201 do not
        p = make_params(1e200, 1.5e200, None, 1e200, 0.5e200, 10)
        h = np.zeros(11)
        traj = simulate_second_order(
            SimConfig(p, h, np.linspace(0.0, 1.0, 11), t_end=1e-199, v0=h,
                      alpha=1.0, beta=1.0))
        assert len(traj.times) == 101 and traj.times[-1] == 1e-199
        assert np.isfinite(traj.positions).all()

    def test_negative_alpha_diverges(self):
        p = _stable_params()
        h = -np.arange(21.0)
        rng = np.random.default_rng(6)
        traj = simulate_second_order(
            SimConfig(p, h, h + rng.normal(size=21) * 0.01, t_end=30.0,
                      v0=np.zeros(21), alpha=-1.0, beta=1.0,
                      save_stride=10))
        assert traj.coherence_errors[-1] > 100 * traj.coherence_errors[0]


class TestCoherenceError:
    def _traj(self, positions):
        positions = np.asarray(positions, dtype=float)
        m = positions.shape[0]
        return Trajectory(np.array([0.0]), positions.reshape(1, m), None,
                          np.zeros(1))

    def test_exact_offsets(self):
        h = np.array([0.0, -1.0, -2.0])
        assert coherence_error(self._traj(h), h)[0] == 0

    def test_shifted_offsets_still_coherent(self):
        h = np.array([0.0, -1.0, -2.0])
        assert coherence_error(self._traj(h + 5.0), h)[0] == pytest.approx(0)

    def test_non_coherent_positive(self):
        h = np.array([0.0, -1.0, -2.0])
        x = h + np.array([1.0, 0.0, 0.0])
        assert coherence_error(self._traj(x), h)[0] > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_offsets_rejected(self, bad):
        with pytest.raises(DomainError):
            coherence_error(self._traj(np.zeros(3)), [0.0, bad, 0.0])


def _coherence_second_loop(offsets, vels, times):
    """The per-snapshot loop the array version replaced."""
    out = np.empty(len(times))
    for i, t in enumerate(times):
        mo, mv = offsets[i].mean(), vels[i].mean()
        a11, a12, a22 = 1.0, t, t * t + 1.0
        b1, b2 = mo, t * mo + mv
        det = a11 * a22 - a12 * a12
        xbar = (b1 * a22 - b2 * a12) / det
        vbar = (b2 * a11 - b1 * a12) / det
        res = (np.linalg.norm(offsets[i] - xbar - vbar * t) ** 2
               + np.linalg.norm(vels[i] - vbar) ** 2)
        out[i] = np.sqrt(max(res, 0.0))
    return out


@pytest.mark.parametrize("m", [2, 21, 1601])
def test_coherence_second_matches_per_snapshot_loop(m):
    rng = np.random.default_rng(m)
    times = np.r_[0.0, np.sort(rng.uniform(0, 50, 40))]
    offsets = rng.normal(size=(41, m)) + 3.0 + 0.7 * times[:, None]
    vels = rng.normal(size=(41, m)) * 0.1 + 0.7
    h = -np.arange(m, dtype=float)
    positions = offsets + h
    np.testing.assert_allclose(
        _coherence_second(positions, h, vels),
        _coherence_second_loop(positions - h, vels, times),
        rtol=1e-13, atol=0)


def test_coherence_second_at_long_times():
    # the normal equations' determinant (t^2 + 1) - t^2 is 1 exactly but
    # not in floats: at t = 1e9 it rounds to 0, and a solve gives NaN
    p = make_params(1, 1.5, None, 1, 0.5, 10)
    h = -np.arange(11.0)
    rng = np.random.default_rng(8)
    cfg = SimConfig(p, h, h + rng.normal(size=11), 1e9,
                    v0=rng.normal(size=11), alpha=1e-12, beta=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate_second_order(cfg)
    off = traj.positions - h
    want = np.sqrt(np.var(off, axis=1) + np.var(traj.velocities, axis=1))
    np.testing.assert_allclose(traj.coherence_errors, want * np.sqrt(11),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [2, 21, 1601])
def test_coherence_first_matches_norm(m):
    rng = np.random.default_rng(m)
    positions = rng.normal(size=(41, m)) + 3.0
    h = -np.arange(m, dtype=float)
    offsets = positions - h
    want = np.linalg.norm(offsets - offsets.mean(axis=1, keepdims=True),
                          axis=1)
    assert np.array_equal(_coherence_first(positions, h), want)


def test_decay_rate_matches_spectral_prediction():
    p = _stable_params()
    lam = max(z.real for z in laplacian_spectrum(p) if abs(z) > 2e-8)
    h = -np.arange(21.0)
    rng = np.random.default_rng(7)
    traj = simulate_first_order(
        SimConfig(p, h, h + rng.normal(size=21), t_end=1500.0,
                  save_stride=20))
    mask = traj.times >= traj.times[-1] * 2 / 3
    slope = np.polyfit(traj.times[mask],
                       np.log(traj.coherence_errors[mask]), 1)[0]
    assert slope <= 0.9 * lam
    assert abs(slope - lam) < 0.15 * abs(lam)


def test_spectral_radius_estimate_dominates():
    p = make_params(1, 3, 4, 5, -2, 30)
    L = build_laplacian(p)
    rho_hat = spectral_radius_estimate(p)
    rho_true = max(abs(z) for z in np.linalg.eigvals(L))
    assert rho_hat >= rho_true


@pytest.mark.parametrize("a,c,e", [(1, 1.5, 0.5), (1, 2.5, -3.0),
                                   (2, 0.5, 0.1)])
def test_spectral_radius_estimate_is_gershgorin_bound(a, c, e):
    p = make_params(a, c, 0.3, 0.7, e, 12)
    assert spectral_radius_estimate(p) == pytest.approx(
        max(2 * (a + c), 2 * abs(a + e)), rel=1e-15)
