import pickle

import numpy as np
import pytest

from hoimix.checkpoint import load_checkpoint, save_checkpoint
from hoimix.model import ModelParams
from hoimix.optimizer import (
    MomentumPolicy,
    MomentumState,
    OptimizerConfig,
    arrays_to_state,
    schedule_filter,
    state_to_arrays,
    step,
)
from hoimix.supervision import SupervisionTag
from optimizer_reference import ReferenceOptimizer


def scalar_params(value=1.0):
    return ModelParams(
        w_enc=np.array([[value]]),
        b_enc=np.zeros(1),
        w_cls=np.zeros((1, 1)),
        b_cls=np.zeros(1),
        w_sel=np.zeros((1, 1)),
        b_sel=np.zeros(1),
    )


def unit_grads(params, value=1.0):
    return ModelParams(**{name: np.full_like(arr, value) for name, arr in params.items()})


def test_first_step_matches_hand_evaluation():
    cfg = OptimizerConfig(alpha_ws=0.1, alpha_fs=0.1, beta=0.9, policy=MomentumPolicy.SHARED)
    params = scalar_params(1.0)
    state = MomentumState.zeros(params, cfg.policy)
    step(params, unit_grads(params), SupervisionTag.FS, state, cfg)
    assert state.z_fs.w_enc[0, 0] == pytest.approx(0.1, abs=0.0)
    assert params.w_enc[0, 0] == pytest.approx(0.9, abs=0.0)


def test_second_step_accumulates_momentum():
    cfg = OptimizerConfig(alpha_ws=0.1, alpha_fs=0.1, beta=0.9, policy=MomentumPolicy.SHARED)
    params = scalar_params(1.0)
    state = MomentumState.zeros(params, cfg.policy)
    step(params, unit_grads(params), SupervisionTag.FS, state, cfg)
    step(params, unit_grads(params), SupervisionTag.FS, state, cfg)
    assert state.z_fs.w_enc[0, 0] == pytest.approx(0.9 * 0.1 + 0.1, abs=0.0)
    assert params.w_enc[0, 0] == pytest.approx(1.0 - 0.1 - 0.19, abs=1e-15)
    assert state.t == 2


def test_ws_steps_leave_fs_buffer_untouched():
    cfg = OptimizerConfig(policy=MomentumPolicy.INDEPENDENT)
    params = ModelParams.init(4, 6, 3, seed=0)
    state = MomentumState.zeros(params, cfg.policy)
    rng = np.random.default_rng(1)
    for _ in range(5):
        grads = ModelParams(**{name: rng.normal(size=arr.shape) for name, arr in params.items()})
        step(params, grads, SupervisionTag.WS, state, cfg)
    for _, arr in state.z_fs.items():
        np.testing.assert_array_equal(arr, 0.0)
    assert any(np.any(arr != 0.0) for _, arr in state.z_ws.items())


def test_buffer_isolation_via_replay():
    cfg = OptimizerConfig(alpha_ws=0.05, alpha_fs=0.02, beta=0.9, policy=MomentumPolicy.INDEPENDENT)
    rng = np.random.default_rng(2)
    for trial in range(10):
        params = ModelParams.init(3, 4, 2, seed=trial)
        state = MomentumState.zeros(params, cfg.policy)
        tags = [SupervisionTag.WS if rng.random() < 0.5 else SupervisionTag.FS for _ in range(30)]
        grad_stream = [
            ModelParams(**{name: rng.normal(size=arr.shape) for name, arr in params.items()})
            for _ in tags
        ]
        for tag, grads in zip(tags, grad_stream):
            step(params, grads, tag, state, cfg)

        replay_params = ModelParams.init(3, 4, 2, seed=trial)
        replay_state = MomentumState.zeros(replay_params, cfg.policy)
        for tag, grads in zip(tags, grad_stream):
            if tag == SupervisionTag.FS:
                step(replay_params, grads, tag, replay_state, cfg)
        for name, arr in state.z_fs.items():
            np.testing.assert_array_equal(arr, getattr(replay_state.z_fs, name))


def test_shared_policy_aliases_one_buffer():
    params = ModelParams.init(3, 4, 2, seed=0)
    state = MomentumState.zeros(params, MomentumPolicy.SHARED)
    assert state.z_ws is state.z_fs
    cfg = OptimizerConfig(policy=MomentumPolicy.SHARED)
    step(params, unit_grads(params), SupervisionTag.WS, state, cfg)
    for name, arr in state.z_fs.items():
        np.testing.assert_array_equal(arr, getattr(state.z_ws, name))


def test_single_stream_shared_equals_independent_bitwise():
    rng = np.random.default_rng(3)
    grad_stream = None
    finals = {}
    for policy in (MomentumPolicy.SHARED, MomentumPolicy.INDEPENDENT):
        cfg = OptimizerConfig(alpha_ws=0.03, alpha_fs=0.01, beta=0.9, policy=policy)
        params = ModelParams.init(3, 5, 2, seed=9)
        state = MomentumState.zeros(params, policy)
        if grad_stream is None:
            grad_stream = [
                ModelParams(**{name: rng.normal(size=arr.shape) for name, arr in params.items()})
                for _ in range(40)
            ]
        for grads in grad_stream:
            step(params, grads, SupervisionTag.FS, state, cfg)
        finals[policy] = params
    for name, arr in finals[MomentumPolicy.SHARED].items():
        np.testing.assert_array_equal(arr, getattr(finals[MomentumPolicy.INDEPENDENT], name))


def test_zero_gradient_zero_state_is_identity():
    cfg = OptimizerConfig()
    params = ModelParams.init(4, 4, 3, seed=1)
    before = params.copy()
    state = MomentumState.zeros(params, cfg.policy)
    zeros = ModelParams(**{name: np.zeros_like(arr) for name, arr in params.items()})
    step(params, zeros, SupervisionTag.FS, state, cfg)
    for name, arr in params.items():
        np.testing.assert_array_equal(arr, getattr(before, name))


def test_us_step_writes_fs_buffer_with_fs_step_size():
    # pseudo-labeled US batches are region-level: alpha_fs into z_fs
    cfg = OptimizerConfig(alpha_ws=0.1, alpha_fs=0.25, beta=0.9, policy=MomentumPolicy.INDEPENDENT)
    params = scalar_params(1.0)
    state = MomentumState.zeros(params, cfg.policy)
    step(params, unit_grads(params), SupervisionTag.US, state, cfg)
    assert state.z_fs.w_enc[0, 0] == 0.25
    assert params.w_enc[0, 0] == 0.75
    for _, arr in state.z_ws.items():
        np.testing.assert_array_equal(arr, 0.0)
    assert state.t == 1


def test_shape_mismatch_rejected():
    cfg = OptimizerConfig()
    params = ModelParams.init(3, 3, 2, seed=0)
    state = MomentumState.zeros(params, cfg.policy)
    grads = unit_grads(ModelParams.init(2, 3, 2, seed=0))
    with pytest.raises(ValueError):
        step(params, grads, SupervisionTag.FS, state, cfg)


@pytest.mark.parametrize("policy", list(MomentumPolicy))
def test_fused_step_matches_per_tensor_reference_bitwise(policy):
    rng = np.random.default_rng(len(policy.value))
    tags = list(SupervisionTag)
    for trial in range(8):
        cfg = OptimizerConfig(
            alpha_ws=float(rng.uniform(1e-3, 0.1)),
            alpha_fs=float(rng.uniform(1e-3, 0.1)),
            beta=float(rng.uniform(0.0, 0.99)),
            policy=policy,
            sequence_switch_iteration=20,
        )
        dims = tuple(int(x) for x in rng.integers(1, 7, size=3))
        params = ModelParams.init(*dims, seed=trial)
        state = MomentumState.zeros(params, policy)
        reference = ReferenceOptimizer(params, cfg)
        steps = 0
        for t in range(60):
            tag = tags[rng.integers(len(tags))]
            if not schedule_filter(tag, t, cfg):
                continue
            grads = params.zeros_like()
            grads.flat[:] = rng.normal(size=grads.flat.size) * 10.0 ** rng.uniform(-3, 3)
            step(params, grads, tag, state, cfg)
            reference.step(grads, tag)
            steps += 1
            for name, arr in params.items():
                assert arr.tobytes() == reference.weights[name].tobytes()
                assert getattr(state.z_ws, name).tobytes() == reference.z_ws[name].tobytes()
                assert getattr(state.z_fs, name).tobytes() == reference.z_fs[name].tobytes()
        assert state.t == steps


def test_momentum_rows_follow_the_policy():
    params = ModelParams.init(3, 4, 2, seed=0)
    for policy in MomentumPolicy:
        state = MomentumState.zeros(params, policy)
        rows = 2 if policy == MomentumPolicy.INDEPENDENT else 1
        assert state.buffers.shape == (rows, params.flat.size)
        assert np.shares_memory(state.z_ws.flat, state.buffers[0])
        assert np.shares_memory(state.z_fs.flat, state.buffers[rows - 1])


@pytest.mark.parametrize("policy", [MomentumPolicy.INDEPENDENT, MomentumPolicy.SHARED])
def test_unpickled_state_keeps_its_buffers_as_views(policy):
    params = ModelParams.init(3, 4, 2, seed=0)
    state = MomentumState.zeros(params, policy)
    cfg = OptimizerConfig(alpha_ws=0.1, alpha_fs=0.2, policy=policy)
    step(params, unit_grads(params), SupervisionTag.WS, state, cfg)
    step(params, unit_grads(params, 2.0), SupervisionTag.FS, state, cfg)
    clone = pickle.loads(pickle.dumps(state))
    assert clone.t == state.t == 2
    assert clone.buffers.tobytes() == state.buffers.tobytes()
    assert (clone.z_ws is clone.z_fs) == (policy == MomentumPolicy.SHARED)
    clone.buffers[:] = 0.5
    for buffer in (clone.z_ws, clone.z_fs):
        np.testing.assert_array_equal(buffer.flat, 0.5)
        np.testing.assert_array_equal(buffer.w_enc, 0.5)
    assert np.all(state.buffers != 0.5)


def test_sequence_filter_fs_first():
    cfg = OptimizerConfig(policy=MomentumPolicy.SEQUENCE_FS_FIRST, sequence_switch_iteration=100)
    assert schedule_filter(SupervisionTag.WS, 10, cfg) is False
    assert schedule_filter(SupervisionTag.FS, 10, cfg) is True
    assert schedule_filter(SupervisionTag.WS, 150, cfg) is True


def test_sequence_filter_ws_first_mirrors():
    cfg = OptimizerConfig(policy=MomentumPolicy.SEQUENCE_WS_FIRST, sequence_switch_iteration=50)
    assert schedule_filter(SupervisionTag.FS, 49, cfg) is False
    assert schedule_filter(SupervisionTag.WS, 0, cfg) is True
    assert schedule_filter(SupervisionTag.FS, 50, cfg) is True


def test_non_sequence_policies_accept_everything():
    for policy in (MomentumPolicy.SHARED, MomentumPolicy.INDEPENDENT):
        cfg = OptimizerConfig(policy=policy)
        for tag in SupervisionTag:
            assert schedule_filter(tag, 0, cfg) is True


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        OptimizerConfig(beta=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(alpha_ws=0.0)


def test_state_serialization_preserves_aliasing_and_values(tmp_path):
    for policy in (MomentumPolicy.SHARED, MomentumPolicy.INDEPENDENT):
        cfg = OptimizerConfig(alpha_ws=0.05, alpha_fs=0.01, policy=policy)
        params = ModelParams.init(3, 4, 2, seed=2)
        state = MomentumState.zeros(params, policy)
        rng = np.random.default_rng(4)
        for tag in (SupervisionTag.WS, SupervisionTag.FS, SupervisionTag.WS):
            grads = ModelParams(**{n: rng.normal(size=a.shape) for n, a in params.items()})
            step(params, grads, tag, state, cfg)
        path = tmp_path / f"{policy.value}.ckpt"
        save_checkpoint(path, params, state, meta={"policy": policy.value})
        loaded_params, loaded_state, _ = load_checkpoint(path)
        assert loaded_state.t == state.t
        assert loaded_state.shared_buffer == (policy != MomentumPolicy.INDEPENDENT)
        for name, arr in state.z_ws.items():
            np.testing.assert_array_equal(getattr(loaded_state.z_ws, name), arr)
        for name, arr in state.z_fs.items():
            np.testing.assert_array_equal(getattr(loaded_state.z_fs, name), arr)


def test_resume_reproduces_trajectory_bit_exactly(tmp_path):
    cfg = OptimizerConfig(alpha_ws=0.05, alpha_fs=0.02, beta=0.9, policy=MomentumPolicy.INDEPENDENT)
    rng = np.random.default_rng(5)
    params = ModelParams.init(4, 5, 3, seed=3)
    state = MomentumState.zeros(params, cfg.policy)
    tags = [SupervisionTag.WS if rng.random() < 0.6 else SupervisionTag.FS for _ in range(40)]
    stream = [ModelParams(**{n: rng.normal(size=a.shape) for n, a in params.items()}) for _ in tags]
    for tag, grads in zip(tags[:20], stream[:20]):
        step(params, grads, tag, state, cfg)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, params, state, meta={"policy": cfg.policy.value})
    for tag, grads in zip(tags[20:], stream[20:]):
        step(params, grads, tag, state, cfg)

    resumed_params, resumed_state, _ = load_checkpoint(path)
    for tag, grads in zip(tags[20:], stream[20:]):
        step(resumed_params, grads, tag, resumed_state, cfg)
    for name, arr in params.items():
        np.testing.assert_array_equal(arr, getattr(resumed_params, name))
    for name, arr in state.z_ws.items():
        np.testing.assert_array_equal(arr, getattr(resumed_state.z_ws, name))
    for name, arr in state.z_fs.items():
        np.testing.assert_array_equal(arr, getattr(resumed_state.z_fs, name))
