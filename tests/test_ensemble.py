import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enkf_lab import (
    DrawKey,
    GaussianState,
    Role,
    StudyConfig,
    init_ensemble,
    perturb_data,
    sample_cov,
)
from enkf_lab.ensemble import _cov_factor
from enkf_lab.experiment import run_study
from enkf_lab.jsonio import canonical_json
from enkf_lab.reference import scalar_model

from oracles import gaussian_draw_blocks


class TestSampleStatistics:
    def test_constant_ensemble_mean(self):
        v = np.array([1.0, -2.0, 3.0])
        ens = np.tile(v[:, None], (1, 4))
        assert np.array_equal(ens.mean(axis=-1), v)
        assert np.array_equal(sample_cov(ens), np.zeros((3, 3)))

    def test_scalar_two_members(self):
        ens = np.array([[0.0, 2.0]])
        assert ens.mean(axis=-1)[0] == 1.0
        # (0 + 4)/2 - 1^2 with the 1/N normalization
        assert sample_cov(ens)[0, 0] == 1.0

    def test_matches_naive_loops(self, rng):
        from oracles import mean_cov_loops

        x = rng.standard_normal((3, 7))
        mean, cov = mean_cov_loops(x)
        assert np.abs(x.mean(axis=-1) - mean).max() < 1e-14
        assert np.abs(sample_cov(x) - cov).max() < 1e-14

    def test_permutation_invariance(self, rng):
        x = rng.standard_normal((4, 9))
        perm = rng.permutation(9)
        a, b = x, x[:, perm]
        assert np.abs(a.mean(axis=-1) - b.mean(axis=-1)).max() <= 1e-14
        assert np.abs(sample_cov(a) - sample_cov(b)).max() <= 1e-14

    def test_cov_invariant_under_constant_shift(self, rng):
        x = rng.standard_normal((3, 8))
        shift = rng.standard_normal(3) * 10
        c0 = sample_cov(x)
        c1 = sample_cov(x + shift[:, None])
        assert np.abs(c1 - c0).max() <= 1e-12 * max(1.0, np.abs(c0).max())

    def test_cov_psd(self, rng):
        cov = sample_cov(rng.standard_normal((5, 12)))
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * eigs.max()

    def test_cov_error_shrinks_with_size(self):
        # i.i.d. scalar ensembles: |C - sigma^2| falls as N grows 100-fold
        gen = np.random.default_rng(5)
        errors = []
        for n in (10**2, 10**4, 10**6):
            ens = gen.normal(0.0, 2.0, size=(1, n))
            errors.append(abs(sample_cov(ens)[0, 0] - 4.0))
        assert errors[0] > errors[1] > errors[2]


class TestDrawKeys:
    def test_same_key_same_bits(self, reference):
        _, init = reference
        assert np.array_equal(init_ensemble(7, 1, 5, init),
                              init_ensemble(7, 1, 5, init))
        d, r = np.array([1.0, 2.0]), np.diag([1.0, 3.0])
        assert np.array_equal(perturb_data(7, 1, 2, 5, d, r),
                              perturb_data(7, 1, 2, 5, d, r))

    def test_any_field_change_changes_draw(self, rng):
        d, r = np.zeros(2), np.eye(2)
        bumps = {
            "experiment_seed": lambda k: DrawKey(k.experiment_seed + 1, k.replicate, k.step, k.role),
            "replicate": lambda k: DrawKey(k.experiment_seed, k.replicate + 1, k.step, k.role),
            "step": lambda k: DrawKey(k.experiment_seed, k.replicate, k.step + 1, k.role),
            "role": lambda k: DrawKey(k.experiment_seed, k.replicate, k.step, Role.INIT),
        }

        def draw(key):
            return perturb_data(key.experiment_seed, key.replicate, key.step, 3, d, r)

        for _ in range(100):
            base = DrawKey(
                int(rng.integers(0, 2**63)), int(rng.integers(0, 1000)),
                int(rng.integers(1, 100)), Role.DATA_PERTURBATION,
            )
            field = rng.choice(list(bumps))
            bumped = bumps[field](base)
            assert not np.array_equal(base.philox_key(), bumped.philox_key())
            if bumped.role == base.role:
                assert not np.array_equal(draw(base), draw(bumped))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Such a seed would otherwise alias one inside [0, 2**64).
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            DrawKey(seed, 0, 1, Role.INIT).philox_key()
        with pytest.raises(ValueError, match="seed must be in"):
            init_ensemble(seed, 0, 4, GaussianState(np.zeros(1), np.eye(1)))

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_in_range_seed_keys_its_packed_fields(self, seed):
        payload = struct.pack("<Qqqq", seed, 3, 1, int(Role.DATA_PERTURBATION))
        expected = np.frombuffer(hashlib.sha256(payload).digest()[:16], dtype="<u8")
        key = DrawKey(seed, 3, 1, Role.DATA_PERTURBATION).philox_key()
        assert np.array_equal(key, expected)


class TestGaussianDraw:
    """The law of the drawn members, seen through the public draw functions."""

    def test_zero_cov_returns_mean_exactly(self):
        mean = np.array([3.0, -1.0])
        ens = perturb_data(0, 0, 1, 5, mean, np.zeros((2, 2)))
        assert np.array_equal(ens, np.tile(mean[:, None], (1, 5)))

    def test_law_of_large_numbers(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        n = 10**5
        draws = init_ensemble(11, 0, n, GaussianState(mean, cov))
        emp_mean = draws.mean(axis=1)
        sigma = np.sqrt(np.diag(cov))
        assert np.all(np.abs(emp_mean - mean) <= 4 * sigma / np.sqrt(n))
        emp_cov = np.cov(draws, bias=True)
        rel = np.linalg.norm(emp_cov - cov, "fro") / np.linalg.norm(cov, "fro")
        assert rel < 0.05

    def test_singular_cov_accepted_via_jitter(self):
        cov = np.diag([1.0, 0.0])
        draws = init_ensemble(3, 0, 1000, GaussianState(np.zeros(2), cov))
        assert np.all(np.isfinite(draws))
        # the zero-variance component moves at most by the jitter scale
        assert np.abs(draws[1]).max() < 1e-4


def scheme_4_shapes(test):
    """Parametrize over state dims up to the wide benchmark's 48, widths
    within, across and far beyond one 128-member block, and an int
    replicate or a sequence of three."""
    test = pytest.mark.parametrize("m", [1, 4, 12, 48], ids="m{}".format)(test)
    test = pytest.mark.parametrize("n", [2, 33, 129, 4096], ids="n{}".format)(test)
    return pytest.mark.parametrize("replicates", [4, (4, 0, 9)], ids=["int", "seq"])(test)


def _scheme_4_oracle(seed, replicates, step, role, n, mean, cov):
    # gaussian_draw_blocks on a fresh stream per replicate, stacked as the
    # library stacks a sequence of replicates.
    factor = np.linalg.cholesky(cov)
    draws = [gaussian_draw_blocks(DrawKey(seed, r, step, role).philox_key(), n, mean, factor)
             for r in np.atleast_1d(replicates)]
    return draws[0] if isinstance(replicates, int) else np.stack(draws)


class TestInitEnsemble:
    def test_prefix_property_bit_identical(self, reference):
        _, init = reference
        small = init_ensemble(42, 0, 2, init)
        big = init_ensemble(42, 0, 1000, init)
        assert np.array_equal(big[:, :2], small)

    @scheme_4_shapes
    def test_member_owns_its_counter_words(self, m, n, replicates):
        # Member i is normals [i*m, (i+1)*m) of the keyed standard_normal
        # stream, pushed through the Cholesky factor one 128-member block at
        # a time: widths below, across and far beyond one block.
        mean, cov = _random_gaussian(m, m)
        ens = init_ensemble(9, replicates, n, GaussianState(mean, cov))
        expected = _scheme_4_oracle(9, replicates, 0, Role.INIT, n, mean, cov)
        assert ens.tobytes() == expected.tobytes()

    def test_degenerate_prior_collapses(self):
        init = GaussianState(mean=[2.0, -1.0], cov=np.zeros((2, 2)))
        ens = init_ensemble(0, 0, 10, init)
        assert np.array_equal(ens, np.tile([[2.0], [-1.0]], (1, 10)))

    def test_sample_mean_concentrates(self):
        init = GaussianState(mean=[0.0], cov=[[1.0]])
        n = 10**4
        ens = init_ensemble(1, 0, n, init)
        assert abs(ens.mean(axis=-1)[0]) < 4 / np.sqrt(n)

    def test_too_small_rejected(self, reference):
        _, init = reference
        with pytest.raises(ValueError, match="at least 2"):
            init_ensemble(0, 0, 1, init)


class TestPerturbData:
    @scheme_4_shapes
    def test_member_owns_its_counter_words(self, m, n, replicates):
        d, r_cov = _random_gaussian(m + 1, m)
        ens = perturb_data(9, replicates, 3, n, d, r_cov)
        expected = _scheme_4_oracle(9, replicates, 3, Role.DATA_PERTURBATION, n, d, r_cov)
        assert ens.tobytes() == expected.tobytes()

    def test_prefix_property(self):
        d = np.array([1.0, 2.0])
        r = np.array([[0.5, 0.1], [0.1, 0.4]])
        small = perturb_data(7, 1, 3, 3, d, r)
        big = perturb_data(7, 1, 3, 100, d, r)
        assert np.array_equal(big[:, :3], small)

    def test_near_degenerate_r_stays_close_to_data(self):
        eps = 1e-12
        n = 1000
        d = np.array([4.0])
        ens = perturb_data(0, 0, 1, n, d, eps * np.eye(1))
        bound = 4 * np.sqrt(eps) * np.sqrt(2 * np.log(n))
        assert np.abs(ens - 4.0).max() <= bound

    def test_empirical_covariance_matches_r(self):
        d = np.array([0.0, 1.0])
        r = np.array([[1.0, 0.3], [0.3, 2.0]])
        ens = perturb_data(2, 0, 1, 10**5, d, r)
        rel = np.linalg.norm(sample_cov(ens) - r, "fro") / np.linalg.norm(r, "fro")
        assert rel < 0.05

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError, match="k >= 1"):
            perturb_data(0, 0, 0, 4, np.zeros(1), np.eye(1))

    def test_independent_of_init_streams(self, reference):
        # same (seed, replicate, member) indices but different role: no collision
        _, init = reference
        a = init_ensemble(5, 0, 4, GaussianState(np.zeros(2), np.eye(2)))
        b = perturb_data(5, 0, 1, 4, np.zeros(2), np.eye(2))
        assert not np.allclose(a, b)


def _random_gaussian(seed: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((m, m))
    return gen.standard_normal(m), g @ g.T + 0.1 * np.eye(m)


class TestPrefixPropertyRandomSizes:
    """The first n members of a size-N draw are the size-n draw, bit for bit.

    The ziggurat takes a varying number of raw words per normal, so member
    offsets rest on each stream being filled member by member in order.
    """

    sizes = dict(
        m=st.integers(1, 12),
        n=st.integers(2, 599),
        extra=st.integers(1, 598),
        seed=st.integers(0, 2**63 - 1),
        replicate=st.integers(0, 10**6),
    )

    @settings(max_examples=60, deadline=None)
    @given(**sizes)
    @example(m=1, n=2, extra=598, seed=0, replicate=0)
    @example(m=3, n=17, extra=100, seed=1, replicate=2)
    # Sizes at the edges of the 128-member blocks of G z.
    @example(m=4, n=127, extra=1, seed=5, replicate=0)
    @example(m=12, n=128, extra=1, seed=6, replicate=3)
    @example(m=1, n=129, extra=383, seed=7, replicate=9)
    @example(m=7, n=257, extra=342, seed=8, replicate=1)
    def test_init_ensemble(self, m, n, extra, seed, replicate):
        big_n = min(n + extra, 600)
        mean, cov = _random_gaussian(seed, m)
        init = GaussianState(mean, cov)
        small = init_ensemble(seed, replicate, n, init)
        big = init_ensemble(seed, replicate, big_n, init)
        assert np.array_equal(big[:, :n], small)

    @settings(max_examples=60, deadline=None)
    @given(**sizes, k=st.integers(1, 50))
    @example(m=5, n=2, extra=598, seed=3, replicate=1, k=1)
    @example(m=3, n=128, extra=129, seed=4, replicate=2, k=7)
    @example(m=2, n=257, extra=1, seed=9, replicate=5, k=3)
    def test_perturb_data(self, m, n, extra, seed, replicate, k):
        big_n = min(n + extra, 600)
        d, r = _random_gaussian(seed, m)
        small = perturb_data(seed, replicate, k, n, d, r)
        big = perturb_data(seed, replicate, k, big_n, d, r)
        assert np.array_equal(big[:, :n], small)


class TestBatchedDraw:
    """A sequence of replicates is drawn in one call: slice b is the int
    draw of replicate b, byte for byte (-0.0 and +0.0 differ in bytes)."""

    batches = dict(
        m=st.integers(1, 7),
        n=st.integers(2, 300),  # up to three blocks of G z
        replicates=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
        seed=st.integers(0, 2**63 - 1),
        zeros=st.lists(st.sampled_from([0.0, -0.0, None]), min_size=7, max_size=7),
    )

    @staticmethod
    def gaussian(seed, m, zeros):
        # random mean with some entries set to +0.0 or -0.0
        mean, cov = _random_gaussian(seed, m)
        for i, zero in enumerate(zeros[:m]):
            if zero is not None:
                mean[i] = zero
        return mean, cov

    @settings(max_examples=60, deadline=None)
    @given(**batches)
    @example(m=3, n=5, replicates=[4, 0, 4], seed=1, zeros=[-0.0] * 7)
    @example(m=4, n=2, replicates=[7], seed=2, zeros=[None] * 7)
    def test_init_ensemble(self, m, n, replicates, seed, zeros):
        init = GaussianState(*self.gaussian(seed, m, zeros))
        batched = init_ensemble(seed, replicates, n, init)
        stacked = np.stack([init_ensemble(seed, r, n, init) for r in replicates])
        assert batched.shape == (len(replicates), m, n)
        assert batched.tobytes() == stacked.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**batches, k=st.integers(1, 50))
    def test_perturb_data(self, m, n, replicates, seed, zeros, k):
        d, r_cov = self.gaussian(seed, m, zeros)
        batched = perturb_data(seed, replicates, k, n, d, r_cov)
        stacked = np.stack([perturb_data(seed, r, k, n, d, r_cov) for r in replicates])
        assert batched.shape == (len(replicates), m, n)
        assert batched.tobytes() == stacked.tobytes()

    def test_each_replicate_keys_a_fresh_stream(self, reference):
        # One generator re-keyed per replicate gives the bits of a fresh
        # Generator(Philox(key=...)) per replicate, also when a replicate
        # repeats after another one has moved the counter and the buffer.
        _, init = reference
        factor, _ = _cov_factor(init.cov)
        batched = init_ensemble(11, [3, 0, 3], 7, init)
        fresh = np.stack([
            gaussian_draw_blocks(DrawKey(11, r, 0, Role.INIT).philox_key(),
                                 7, init.mean, factor)
            for r in (3, 0, 3)
        ])
        assert batched.tobytes() == fresh.tobytes()


RAW_WORDS_DIGEST = "6b5647362e92995e2e6b43d610dd5c5854e52a8081172cb82e020438237060da"
TINY_REPORT_DIGEST = "64d0a65a69c755bbebf98b6d8aca37b0b7e437582700de1052aafc803ff23e4a"


class TestDrawSchemeGolden:
    """Pinned digests: any change to the random bits must bump DRAW_SCHEME.

    The report digest also pins the gain arithmetic: a change in how the
    gain is solved moves the report's last bits without touching a draw,
    and then changes that digest alone.
    """

    def test_raw_words_of_a_fixed_key(self):
        # Raw Philox words are stable across platforms and numpy versions
        # (NEP 19), so this digest pins the key derivation alone. NEP 19 does
        # not promise the same of Generator.standard_normal; the report
        # digest below catches a numpy that changes it, and such a change
        # needs a new DRAW_SCHEME.
        key = DrawKey(2009, 1, 3, Role.DATA_PERTURBATION)
        words = np.random.Philox(key=key.philox_key()).random_raw(16)
        digest = hashlib.sha256(words.astype("<u8").tobytes()).hexdigest()
        assert digest == RAW_WORDS_DIGEST

    def test_tiny_study_report(self):
        model, init = scalar_model()
        config = StudyConfig(model=model, init=init, seed=0, n_grid=(4, 8, 16),
                             replicates=3, p_list=(2.0,))
        report = run_study(config).to_dict()
        assert report["metadata"]["draw_scheme"] == 4
        del report["metadata"]["timestamp"]
        digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
        assert digest == TINY_REPORT_DIGEST
