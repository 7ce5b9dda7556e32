"""Gradient-check harness tests (the oracle machinery itself)."""

import numpy as np
import pytest

from ferhead import datasets, verification
from ferhead.decomposition import LatentCenters
from ferhead.head import (
    Centers,
    HeadConfig,
    backward,
    compute_losses,
    forward,
    init_model_params,
)
from ferhead.intra import ClassCenters
from ferhead.numerics import SplitMix64, finite_diff_grad
from ferhead.verification import (
    LOSS_MODES,
    build_instance,
    check_instance,
    fd_component_grads,
    group_errors,
    run_suite,
)


GROUPS = ("decomp", "gate", "message", "classifier")


def flip_sign(monkeypatch, group):
    """The negative control: the oracle's backward returns `group` negated."""
    real = verification.backward

    def flipped(*args, **kwargs):
        grads, breakdown = real(*args, **kwargs)
        getattr(grads, group)[...] *= -1
        return grads, breakdown

    monkeypatch.setattr(verification, "backward", flipped)


class TestInstanceConstruction:
    def test_deterministic(self):
        a = build_instance(3)
        b = build_instance(3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.params.decomp, b.params.decomp)
        assert np.array_equal(a.labels, b.labels)

    def test_default_desk_scale_dimensions(self):
        inst = build_instance(0)
        assert inst.params.decomp.shape == (3, 16, 8)
        assert inst.params.gate.shape == (3, 8, 8)
        assert inst.params.classifier.shape == (8, 4)
        assert inst.inputs.shape == (5, 16)

    def test_parameters_small_magnitude(self):
        inst = build_instance(1)
        for _, arr in inst.params.items():
            assert np.abs(arr).max() <= 0.1


class TestGradientAgreement:
    def test_all_modes_within_tolerance(self):
        inst = build_instance(0)
        results = check_instance(inst)
        assert set(results) == set(LOSS_MODES)
        for mode, errors in results.items():
            for group, err in errors.items():
                assert err < 1e-4, f"{mode}/{group}: {err}"

    def test_each_isolated_term_and_joint(self):
        """Spot-check three more seeds across every loss mode."""
        for seed in (5, 11, 17):
            inst = build_instance(seed)
            results = check_instance(inst)
            worst = max(e for errs in results.values() for e in errs.values())
            assert worst < 1e-4

    @pytest.mark.parametrize("group", GROUPS)
    def test_injected_sign_bug_is_caught_and_named(self, group, monkeypatch):
        flip_sign(monkeypatch, group)
        results = check_instance(build_instance(0))
        for other in GROUPS:
            if other == group:
                assert results["joint"][other] > 1e-2, other
            else:
                assert results["joint"][other] < 1e-4, other

    def test_run_suite_reports_failure(self, monkeypatch):
        flip_sign(monkeypatch, "message")
        worst, _, passed = run_suite(range(1))
        assert not passed
        assert worst["message"] > 1e-2

    def test_run_suite_passes_clean(self):
        worst, worst_mode, passed = run_suite(range(2))
        assert passed
        assert set(worst) == {"decomp", "gate", "message", "classifier"}
        assert all(m.split()[0] in LOSS_MODES for m in worst_mode.values())


class TestNonFiniteGradient:
    def test_nan_group_gradient_is_its_worst_error_and_fails(self, monkeypatch):
        """A NaN error is kept as the group's worst, so the suite cannot pass over it."""
        real = verification.backward

        def nan_gate(*args, **kwargs):
            grads, breakdown = real(*args, **kwargs)
            grads.gate[0, 0, 0] = np.nan
            return grads, breakdown

        monkeypatch.setattr(verification, "backward", nan_gate)
        worst, worst_mode, passed = run_suite(range(2))
        assert not passed
        assert set(worst) == {"decomp", "gate", "message", "classifier"}
        assert np.isnan(worst["gate"])
        assert worst_mode["gate"] == "classification (seed 0)"
        assert all(worst[g] < 1e-4 for g in ("decomp", "message", "classifier"))


class TestErrorMetric:
    def test_zero_gradients_count_as_zero_error(self):
        inst = build_instance(0)
        analytic = inst.params.zeros_like()
        err = group_errors(analytic, np.zeros(analytic.to_vector().size))
        assert all(v == 0.0 for v in err.values())

    def test_fd_components_shape(self):
        inst = build_instance(0)
        grads = fd_component_grads(inst)
        n_params = inst.params.to_vector().size
        assert grads.shape == (4, n_params)
        # classifier coordinates influence only the classification loss
        cls_block = slice(n_params - inst.params.classifier.size, n_params)
        assert np.abs(grads[1:, cls_block]).max() == 0.0


class TestDirectionalGradient:
    """g.u against d/dt L(theta + t u) at t = 0, in float64.

    The per-coordinate oracle above runs at desk scale with a fresh cache.
    This one runs the layouts training uses at paper dimensions: decomp in
    (P, M, D) memory, the latent-major views, and a ragged batch served from
    a larger cache into reused gradients; and size-1 dimensions, whose
    strides differ. Each group gets DIRECTIONS random unit directions u
    (zero in the other groups); `finite_diff_grad` is the oracle, called on
    t -> L(theta + t u). h and the tolerance were fixed before the first run.
    """

    H = 1e-5
    TOL = 1e-4
    DIRECTIONS = 4

    @staticmethod
    def setup_case(seed, cfg=None):
        cfg = cfg or HeadConfig()
        params = init_model_params(cfg, SplitMix64(seed))
        rng = SplitMix64(seed + 1)
        centers = Centers(
            LatentCenters(rng.uniform(0.0, 1.0, (cfg.n_latents, cfg.latent_dim))),
            ClassCenters(rng.uniform(0.0, cfg.latent_dim / 2.0, (cfg.n_classes, cfg.n_latents))),
        )
        spec = datasets.make_synth_spec(
            n_classes=cfg.n_classes, n_actions=min(9, cfg.input_dim),
            feature_dim=cfg.input_dim, samples_per_class=16,
            seed=seed, structure_seed=seed,
        )
        data = datasets.generate(spec)
        order = np.random.default_rng(seed).permutation(len(data))
        return cfg, params, centers, data.features[order], data.labels[order]

    def derivative_pairs(self, params, grads, X, labels, centers, cfg, seed):
        """{group: (g.u, finite-difference derivative) per direction}."""
        rng = np.random.default_rng(seed)

        def loss(p):
            return compute_losses(forward(X, p, cfg), labels, centers, cfg).total

        pairs = {}
        for name, g in grads.items():
            pairs[name] = []
            for _ in range(self.DIRECTIONS):
                u = rng.normal(size=g.shape)
                u /= np.linalg.norm(u)

                def along(t, name=name, u=u):
                    moved = params.copy()
                    getattr(moved, name)[...] += t[0] * u
                    return loss(moved)

                fd = finite_diff_grad(along, np.zeros(1), self.H)[0]
                pairs[name].append((float(np.sum(g * u)), float(fd)))
        return pairs

    @staticmethod
    def worst_error(pairs, sign=1.0):
        return max(
            abs(sign * a - f) / max(abs(a), abs(f), 1e-12) for a, f in pairs
        )

    def check(self, pairs):
        for name, group_pairs in pairs.items():
            assert self.worst_error(group_pairs) < self.TOL, (name, group_pairs)
            # a flipped gradient sign, the gradient oracle's negative control,
            # fails unless the loss does not depend on the group (message at
            # M = 1, which has no pairs to relate)
            if any(a != 0.0 or f != 0.0 for a, f in group_pairs):
                assert self.worst_error(group_pairs, sign=-1.0) > self.TOL, name

    def test_batch_of_64_with_centers_off_zero(self):
        cfg, params, centers, X, labels = self.setup_case(71)
        X, labels = X[:64], labels[:64]
        grads, _ = backward(forward(X, params, cfg), labels, params, centers, cfg)
        self.check(self.derivative_pairs(params, grads, X, labels, centers, cfg, 72))

    def test_ragged_batch_through_a_larger_cache_and_reused_gradients(self):
        cfg, params, centers, X, labels = self.setup_case(73)
        cache = forward(X[:64], params, cfg)
        first, _ = backward(cache, labels[:64], params, centers, cfg)
        X37, labels37 = X[64 : 64 + 37], labels[64 : 64 + 37]
        ragged = forward(X37, params, cfg, out=cache)
        assert np.shares_memory(ragged.latents, cache.latents)
        grads, _ = backward(ragged, labels37, params, centers, cfg, out=first)
        assert grads is first
        self.check(self.derivative_pairs(params, grads, X37, labels37, centers, cfg, 74))

    @pytest.mark.parametrize(
        "dims", [{"n_latents": 1}, {"latent_dim": 1}, {"input_dim": 1}],
        ids=["M-1", "D-1", "P-1"],
    )
    def test_size_one_dims(self, dims):
        cfg = HeadConfig(**dims)
        cfg, params, centers, X, labels = self.setup_case(75, cfg)
        X, labels = X[:64], labels[:64]
        grads, _ = backward(forward(X, params, cfg), labels, params, centers, cfg)
        self.check(self.derivative_pairs(params, grads, X, labels, centers, cfg, 76))
