import numpy as np
import pytest

from foldreg.optim import DivergenceError, adam_init, adam_step, clip_global_norm


def hand_adam(g_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference recurrence evaluated step by step on a scalar parameter."""
    p, m, v = 0.0, 0.0, 0.0
    trajectory = []
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(p)
    return trajectory


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0, 3.0])
        state = adam_init({"p": p}, lr=1e-2)
        adam_step({"p": p}, {"p": np.zeros(3)}, state)
        assert np.array_equal(p, [1.0, -2.0, 3.0])
        assert state.t == 1

    def test_first_step_magnitude(self):
        # m_hat = g, v_hat = g^2 on step one, so the update is ~ -lr
        p = np.array([0.0])
        state = adam_init({"p": p}, lr=1e-4)
        adam_step({"p": p}, {"p": np.array([0.5])}, state)
        expected = -1e-4 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)
        assert p[0] == pytest.approx(-1e-4, rel=1e-4)

    def test_two_steps_match_hand_recurrence(self):
        p = np.array([0.0])
        state = adam_init({"p": p}, lr=1e-4)
        traj = hand_adam([0.5, 0.5], lr=1e-4)
        adam_step({"p": p}, {"p": np.array([0.5])}, state)
        assert abs(p[0] - traj[0]) < 1e-9
        adam_step({"p": p}, {"p": np.array([0.5])}, state)
        assert abs(p[0] - traj[1]) < 1e-9

    def test_long_run_matches_hand_recurrence(self):
        rng = np.random.default_rng(0)
        gs = rng.standard_normal(50)
        p = np.array([0.0])
        state = adam_init({"p": p}, lr=1e-3)
        for g in gs:
            adam_step({"p": p}, {"p": np.array([g])}, state)
        assert p[0] == pytest.approx(hand_adam(gs, lr=1e-3)[-1], abs=1e-12)

    def test_nan_gradient_raises(self):
        p = np.array([0.0])
        state = adam_init({"p": p}, lr=1e-3)
        with pytest.raises(DivergenceError, match="diverged gradient"):
            adam_step({"p": p}, {"p": np.array([np.nan])}, state)

    def test_inf_gradient_raises(self):
        p = np.array([0.0])
        state = adam_init({"p": p}, lr=1e-3)
        with pytest.raises(DivergenceError):
            adam_step({"p": p}, {"p": np.array([np.inf])}, state)

    def test_update_bounded_by_lr(self):
        # constant-sign gradients: per-coordinate |update| <= lr * (1 + delta)
        rng = np.random.default_rng(1)
        p = np.array([0.0])
        state = adam_init({"p": p}, lr=1e-2)
        prev = p[0]
        for _ in range(100):
            g = float(rng.uniform(0.1, 5.0))
            adam_step({"p": p}, {"p": np.array([g])}, state)
            assert abs(p[0] - prev) <= 1e-2 * (1.0 + 1e-6) * 1.12  # early bias-correction overshoot
            prev = p[0]

    def test_first_step_opposes_gradient_sign(self):
        for g in (0.7, -0.7):
            p = np.array([0.0])
            state = adam_init({"p": p}, lr=1e-2)
            adam_step({"p": p}, {"p": np.array([g])}, state)
            assert np.sign(p[0]) == -np.sign(g)

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(2)
            p = rng.standard_normal(10).astype(np.float32)
            state = adam_init({"p": p}, lr=1e-3)
            for _ in range(20):
                adam_step({"p": p}, {"p": rng.standard_normal(10)}, state)
            return p

        assert np.array_equal(run(), run())

    def test_float32_params_updated_in_place(self):
        p = np.zeros(4, dtype=np.float32)
        state = adam_init({"p": p}, lr=1e-3)
        adam_step({"p": p}, {"p": np.full(4, 0.3)}, state)
        assert p.dtype == np.float32
        assert (p != 0).all()

    def test_bad_gradient_shape_changes_nothing(self):
        params = {"a": np.zeros(3), "b": np.zeros(2)}
        state = adam_init(params, lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"a": np.ones(3), "b": np.ones(5)}, state)
        assert state.t == 0
        for name in params:
            assert not params[name].any()
            assert not state.m[name].any() and not state.v[name].any()

    def test_non_finite_gradient_changes_nothing(self):
        params = {"a": np.zeros(3), "b": np.zeros(2)}
        state = adam_init(params, lr=0.1)
        with pytest.raises(DivergenceError):
            adam_step(params, {"a": np.ones(3), "b": np.array([1.0, np.nan])}, state)
        assert state.t == 0
        for name in params:
            assert not params[name].any()
            assert not state.m[name].any() and not state.v[name].any()

    def test_moment_shapes_mirror_params(self):
        p = np.zeros((2, 3), dtype=np.float32)
        state = adam_init({"p": p}, lr=1e-3)
        assert state.m["p"].shape == p.shape
        assert state.v["p"].shape == p.shape


def per_tensor_adam(params, grads, m, v, t, lr):
    """One Adam step as a loop over the parameters, each with its own float64 moments: the flat update's oracle."""
    bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m[name] *= 0.9
        m[name] += (1.0 - 0.9) * g
        v[name] *= 0.999
        v[name] += (1.0 - 0.999) * (g * g)
        update = lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)
        np.subtract(p, update, out=p, casting="unsafe")


def _flat_case(seed=0):
    """Parameters of several shapes and both dtypes, as a network's (a conv kernel, a bias, a slope)."""
    rng = np.random.default_rng(seed)
    shapes = {"w": ((4, 2, 3, 3, 3), np.float32), "b": ((4,), np.float32), "a": ((1,), np.float64),
              "field": ((3, 2, 3, 4), np.float64)}
    return rng, {name: rng.standard_normal(shape).astype(dt) for name, (shape, dt) in shapes.items()}


def _draw(rng, params):
    # float64 and float32 gradients, as leaves and direct fields hand them over
    return {name: rng.standard_normal(p.shape).astype(np.float32 if name == "b" else np.float64)
            for name, p in params.items()}


def _snapshot(params, state):
    return ([p.tobytes() for p in params.values()], state.t, state.flat_m.tobytes(), state.flat_v.tobytes())


class TestFlatAdam:
    def test_matches_the_per_tensor_loop(self):
        rng, params = _flat_case()
        ref = {name: p.copy() for name, p in params.items()}
        m = {name: np.zeros(p.shape) for name, p in params.items()}
        v = {name: np.zeros(p.shape) for name, p in params.items()}
        state = adam_init(params, lr=1e-2)
        for t in range(1, 7):
            grads = _draw(rng, params)
            adam_step(params, grads, state)
            per_tensor_adam(ref, grads, m, v, t, 1e-2)
            for name, p in params.items():
                assert p.dtype == ref[name].dtype and p.tobytes() == ref[name].tobytes(), (t, name)
                assert state.m[name].tobytes() == m[name].tobytes() and state.v[name].tobytes() == v[name].tobytes()

    def test_lone_parameter_matches_and_keeps_its_gradient(self):
        # one float64 gradient is read in place, and left as it was
        rng = np.random.default_rng(3)
        p, ref = np.zeros((3, 4, 5, 6)), np.zeros((3, 4, 5, 6))
        m, v = {"u": np.zeros(p.shape)}, {"u": np.zeros(p.shape)}
        state = adam_init({"u": p}, lr=0.1)
        for t in range(1, 5):
            g = rng.standard_normal(p.shape)
            before = g.copy()
            adam_step({"u": p}, {"u": g}, state)
            per_tensor_adam({"u": ref}, {"u": g}, m, v, t, 0.1)
            assert np.array_equal(g, before)
            assert p.tobytes() == ref.tobytes()

    def test_moments_are_views_of_one_vector_each(self):
        _, params = _flat_case()
        state = adam_init(params)
        n = sum(p.size for p in params.values())
        assert state.flat_m.shape == state.flat_v.shape == (n,) and state.flat_m.dtype == np.float64
        for name, p in params.items():
            assert state.m[name].shape == p.shape and np.shares_memory(state.m[name], state.flat_m)
            assert np.shares_memory(state.v[name], state.flat_v)
        # the views tile the vectors end to end
        assert sum(state.spans[name].stop - state.spans[name].start for name in params) == n
        assert [s.start for s in state.spans.values()] == list(np.cumsum([0] + [p.size for p in params.values()])[:-1])

    def test_no_parameters_is_a_step(self):
        state = adam_init({})
        adam_step({}, {}, state)
        assert state.t == 1

    @pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
    def test_a_rejected_step_changes_nothing(self, bad):
        rng, params = _flat_case(1)
        state = adam_init(params, lr=1e-2)
        for _ in range(2):
            adam_step(params, _draw(rng, params), state)
        before = _snapshot(params, state)
        grads = _draw(rng, params)
        if bad == "shape":
            grads["field"] = np.ones(5)
        else:
            grads["field"][1, 0, 2, 3] = np.nan if bad == "nan" else -np.inf
        with pytest.raises(ValueError if bad == "shape" else DivergenceError, match="field"):
            adam_step(params, grads, state)
        assert _snapshot(params, state) == before


class TestClip:
    def test_noop_below_threshold(self):
        g = {"a": np.array([0.3, 0.4])}
        norm = clip_global_norm(g, 10.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(g["a"], [0.3, 0.4])

    def test_scales_to_threshold(self):
        g = {"a": np.array([3.0, 4.0])}
        clip_global_norm(g, 1.0)
        assert np.linalg.norm(g["a"]) == pytest.approx(1.0, rel=1e-9)
