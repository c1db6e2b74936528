"""Lanczos recursion, Ritz extraction, and the spuriousness gauge."""

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from boundstates import lanczos
from boundstates import (
    GridMismatchError,
    Hamiltonian,
    PotentialSpec,
    RitzPair,
    SampledFunction,
    classify_pairs,
    delta_check,
    hamiltonian_apply,
    lanczos_run,
    make_grid,
    ritz_history,
    sample_potential,
    start_vector,
    tridiagonal_eigen,
    write_trace_csv,
)
from _jacobi import jacobi_eigenvalues

# Grid for the 18-step comparison runs.  The recursion emulates iteration in
# a small smooth function space only while the operator's spectral radius
# stays moderate; on fine meshes rounding noise amplified by the 4/h^2 band
# captures the Krylov space within a few steps.
COMPARISON_N = 161

REPORTED_LANCZOS_GROUND = -0.475917


def _h_dot(grid, f, g):
    return float(grid.spacing * np.dot(f, g))


def _coarse_setup(n=101, lam=1.0):
    g = make_grid(12.0, n)
    V = sample_potential(PotentialSpec.gaussian(), g)
    return g, Hamiltonian(V, lam)


def _grid_tridiagonal(H):
    h = H.grid.spacing
    d = 2.0 / h**2 - H.lam * H.V.values
    return d, np.full(H.grid.n_points - 1, -1.0 / h**2)


def _dense_matrix(H):
    d, e = _grid_tridiagonal(H)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _ground_eigvec(H):
    g = H.grid
    d, e = _grid_tridiagonal(H)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    v = vecs[:, 0] / np.sqrt(_h_dot(g, vecs[:, 0], vecs[:, 0]))
    return float(vals[0]), SampledFunction(g, v)


def _ulp_ensemble(phi, members=20, seed=20240817):
    """``phi`` and ``members`` copies of it with each node times 1 + or - 2^-52
    in a seeded sign pattern, each renormalized."""
    rng = np.random.default_rng(seed)
    g = phi.grid
    ensemble = [phi]
    for _ in range(members):
        v = phi.values * (1.0 + rng.choice([-1.0, 1.0], size=g.n_points) * 2.0**-52)
        ensemble.append(SampledFunction(g, v / np.sqrt(_h_dot(g, v, v))))
    return ensemble


def _brute_force_labels(history):
    # Track threading by brute force: every open track against every pair of
    # the next row, O(k^2) per row, by the rules of ``classify_pairs``.
    tracks = {}
    labels = []
    for li, pairs in enumerate(history):
        candidates = sorted(
            (dist, pi, tag)
            for tag, (value, _) in tracks.items()
            for pi, p in enumerate(pairs)
            if (dist := abs(p.value - value)) <= lanczos.MATCH_GATE
        )
        continued = {}
        for _, pi, tag in candidates:
            if pi not in continued and tag in tracks:
                continued[pi] = (tag, tracks.pop(tag)[1])
        tracks = {}
        for pi, p in enumerate(pairs):
            tag, deltas = continued.get(pi, ((li, pi), []))
            deltas.append(p.delta)
            tracks[tag] = (p.value, deltas)
        labels.append([lanczos._label(deltas) for _, deltas in tracks.values()])
    return labels


class TestHamiltonianApply:
    def test_poschl_teller_eigenpair_interior(self, fine_grid):
        V = sample_potential(PotentialSpec.poschl_teller(), fine_grid)
        H = Hamiltonian(V, 2.0)
        sech = SampledFunction(fine_grid, 1.0 / np.cosh(fine_grid.points))
        out = hamiltonian_apply(H, sech).values
        err = np.max(np.abs(out[1:-1] + sech.values[1:-1]))
        assert err < 3e-4

    def test_zero_state(self, fine_grid, gaussian_fine):
        H = Hamiltonian(gaussian_fine, 1.0)
        zero = SampledFunction(fine_grid, np.zeros(fine_grid.n_points))
        np.testing.assert_array_equal(hamiltonian_apply(H, zero).values, 0.0)

    def test_free_box_mode_interior(self, fine_grid):
        V = SampledFunction(fine_grid, np.zeros(fine_grid.n_points))
        H = Hamiltonian(V, 1.0)
        u = SampledFunction(fine_grid, np.sin(np.pi * fine_grid.points / 12.0))
        out = hamiltonian_apply(H, u).values
        expect = (np.pi / 12.0) ** 2 * u.values
        assert np.max(np.abs(out[1:-1] - expect[1:-1])) < 1e-6

    def test_block_apply_equals_the_stencil_row_by_row(self, rng):
        # A block of rows runs the interior formula over its flattened rows
        # and then rewrites each row's end points: every row must come out
        # bit for bit as the three-point formula applied to it alone.
        g, H = _coarse_setup()
        h2 = g.spacing * g.spacing
        v = rng.normal(size=(3, g.n_points))
        out, scratch = np.empty_like(v), np.empty_like(v)
        lanczos._apply_values(H, v, out, scratch)
        for row, hrow in zip(v, out):
            expect = np.empty_like(row)
            expect[1:-1] = (2.0 * row[1:-1] - row[:-2] - row[2:]) / h2
            expect[0] = (2.0 * row[0] - row[1]) / h2
            expect[-1] = (2.0 * row[-1] - row[-2]) / h2
            expect -= H.lam * H.V.values * row
            assert np.array_equal(hrow, expect)
            single = hamiltonian_apply(H, SampledFunction(g, row)).values
            assert np.array_equal(single, expect)

    def test_overflowing_lam_v_is_too_large(self, recwarn):
        # lam*V is computed before the norm guard reads it: a product past
        # the float range must reach the guard as inf, with no warning.
        g = make_grid(12.0, 161)
        V = SampledFunction(g, np.full(g.n_points, 4.0))
        with pytest.raises(ValueError, match="too large"):
            Hamiltonian(V, 1e308)
        assert len(recwarn) == 0

    def test_grid_mismatch(self, gaussian_fine):
        H = Hamiltonian(gaussian_fine, 1.0)
        u = SampledFunction(make_grid(12.0, 241), np.ones(241))
        with pytest.raises(GridMismatchError):
            hamiltonian_apply(H, u)
        with pytest.raises(GridMismatchError):
            delta_check(H, u, 0.0)

    def test_symmetric_on_boundary_vanishing_states(self, rng):
        g, H = _coarse_setup()
        for _ in range(5):
            fv = rng.normal(size=g.n_points)
            gv = rng.normal(size=g.n_points)
            fv[0] = fv[-1] = gv[0] = gv[-1] = 0.0
            f = SampledFunction(g, fv)
            k = SampledFunction(g, gv)
            lhs = _h_dot(g, fv, hamiltonian_apply(H, k).values)
            rhs = _h_dot(g, hamiltonian_apply(H, f).values, gv)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestStartVector:
    def test_peak_value(self, fine_grid):
        phi = start_vector(fine_grid)
        expected = (2.0 / np.pi) ** 0.25
        assert phi.values[fine_grid.mid_index] == pytest.approx(expected, abs=1e-12)

    def test_even(self, fine_grid):
        phi = start_vector(fine_grid)
        np.testing.assert_array_equal(phi.values, phi.values[::-1])

    def test_unit_norm(self, fine_grid):
        phi = start_vector(fine_grid)
        assert _h_dot(fine_grid, phi.values, phi.values) == pytest.approx(
            1.0, abs=1e-12
        )


class TestLanczosRun:
    def test_exact_eigenvector_breaks_down_immediately(self):
        g, H = _coarse_setup()
        value, phi = _ground_eigvec(H)
        run = lanczos_run(H, phi, 6)
        assert run.m == 1
        assert run.alphas[0] == pytest.approx(value, abs=1e-10)
        assert run.betas == []

    def test_orthonormality_defect(self, fine_grid, gaussian_fine):
        H = Hamiltonian(gaussian_fine, 1.0)
        run = lanczos_run(H, start_vector(fine_grid), 18)
        gram = fine_grid.spacing * (run.Q @ run.Q.T)
        assert np.max(np.abs(gram - np.eye(run.m))) <= 1e-8

    @pytest.mark.parametrize("exact_start", [False, True], ids=["full", "breakdown"])
    def test_basis_is_one_c_contiguous_array(self, exact_start):
        # The history scores straight from these rows, and the delta bits
        # depend on their layout.  An exact start vector ends the run after
        # one step, leaving rows of the recursion's buffer unused.
        g, H = _coarse_setup()
        phi = _ground_eigvec(H)[1] if exact_start else start_vector(g)
        run = lanczos_run(H, phi, 12)
        assert run.m == len(run.alphas) == (1 if exact_start else 12)
        assert run.Q.shape == (run.m, g.n_points)
        assert run.Q.flags.c_contiguous
        assert len(run.basis) == run.m
        for i, b in enumerate(run.basis):
            assert b.grid is g
            assert np.array_equal(b.values, run.Q[i])

    def test_lengths_consistent(self):
        g, H = _coarse_setup()
        run = lanczos_run(H, start_vector(g), 12)
        assert len(run.alphas) == run.m
        assert len(run.betas) == run.m - 1
        assert all(b > 0 for b in run.betas)

    def test_m_zero_rejected(self):
        g, H = _coarse_setup()
        with pytest.raises(ValueError):
            lanczos_run(H, start_vector(g), 0)

    @pytest.mark.parametrize("m", [3.0, True])
    def test_non_integer_m_rejected(self, m):
        g, H = _coarse_setup()
        with pytest.raises(ValueError, match="iteration count m must be an integer"):
            lanczos_run(H, start_vector(g), m)

    def test_non_unit_start_rejected(self):
        g, H = _coarse_setup()
        bad = SampledFunction(g, 2.0 * start_vector(g).values)
        with pytest.raises(ValueError):
            lanczos_run(H, bad, 3)


class TestTridiagonalEigen:
    def test_scalar(self):
        assert tridiagonal_eigen([3.5], [])[0][0] == 3.5

    def test_two_by_two(self):
        vals, _ = tridiagonal_eigen([0.0, 0.0], [1.0])
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_matches_jacobi_oracle(self, rng):
        d = rng.normal(size=18)
        e = rng.normal(size=17)
        ours, _ = tridiagonal_eigen(d, e)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        np.testing.assert_allclose(ours, jacobi_eigenvalues(T), atol=1e-10)

    def test_residuals(self, rng):
        d = rng.normal(size=18)
        e = rng.normal(size=17)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        norm = np.linalg.norm(T)
        vals, vecs = tridiagonal_eigen(d, e)
        for value, z in zip(vals, vecs.T, strict=True):
            assert np.linalg.norm(T @ z - value * z) <= 1e-10 * norm

    def test_ascending(self, rng):
        d = rng.normal(size=10)
        e = rng.normal(size=9)
        vals, _ = tridiagonal_eigen(d, e)
        assert np.all(np.diff(vals) >= 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tridiagonal_eigen([1.0, 2.0], [0.5, 0.5])

    def test_empty_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal must be a nonempty 1D sequence"):
            tridiagonal_eigen([], [])

    @pytest.mark.parametrize(
        "n, m", [(COMPARISON_N, 18), (2401, 100)], ids=["reproduce-paper", "n2401-m100"]
    )
    def test_bit_identical_to_scipy_on_every_prefix(self, n, m):
        # The trace CSV prints Ritz values and deltas to 17 digits, so the
        # eigensolver is part of the byte contract.  numpy's syevd and scipy's
        # stevd both run stedc on these matrices; a numpy or LAPACK build
        # where they part shows up here, not as a silently changed CSV.
        g = make_grid(12.0, n)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        run = lanczos_run(H, start_vector(g), m)
        assert run.m == m
        for k in range(1, m + 1):
            d, e = np.array(run.alphas[:k]), np.array(run.betas[: k - 1])
            vals, vecs = eigh_tridiagonal(d, e)
            ours_vals, ours_vecs = tridiagonal_eigen(d, e)
            assert np.array_equal(ours_vals, vals), f"eigenvalues, m={k}"
            assert np.array_equal(ours_vecs, vecs), f"eigenvectors, m={k}"

    def test_scalar_bit_identical_to_scipy(self):
        vals, vecs = eigh_tridiagonal(np.array([3.5]), np.array([]))
        [value], z = tridiagonal_eigen([3.5], [])
        assert value == vals[0] and np.array_equal(z, vecs)


class TestRitzPairs:
    def test_sorted_unit_norm(self):
        g, H = _coarse_setup()
        run = lanczos_run(H, start_vector(g), 10)
        pairs = ritz_history(run, H)[-1]
        values = [p.value for p in pairs]
        assert values == sorted(values)
        # The pairs keep no vectors: rebuild each from the run and re-gauge it.
        vals, vecs = tridiagonal_eigen(run.alphas, run.betas)
        for p, value, z in zip(pairs, vals, vecs.T.copy(), strict=True):
            psi = z @ run.Q
            psi /= np.sqrt(_h_dot(g, psi, psi))
            assert abs(_h_dot(g, psi, psi) - 1.0) <= 1e-8
            assert p.value == value
            assert p.delta == delta_check(H, SampledFunction(g, psi), p.value)
            assert p.delta >= 0.0

    def test_exact_start_single_pair(self):
        g, H = _coarse_setup()
        value, phi = _ground_eigvec(H)
        run = lanczos_run(H, phi, 6)
        pairs = ritz_history(run, H)[-1]
        assert len(pairs) == 1
        assert pairs[0].delta <= 1e-8

    def test_comparison_run_ground_value(self):
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        run = lanczos_run(H, start_vector(g), 18)
        pairs = ritz_history(run, H)[-1]
        assert pairs[0].value == pytest.approx(REPORTED_LANCZOS_GROUND, abs=5e-3)
        assert any(p.value > 0 for p in pairs)


    def test_comparison_run_holds_across_a_one_ulp_ensemble(self):
        # From about step 10 roundoff steers the (161, 18) run: a 1-ulp change
        # of the start vector moves the late alphas by up to 50% and can leave
        # the ground pair undecided, so the label is not asserted.  What the
        # report's two Lanczos rows read holds in every member.
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        grounds, alphas = [], []
        for phi in _ulp_ensemble(start_vector(g)):
            run = lanczos_run(H, phi, 18)
            labelled = classify_pairs(ritz_history(run, H))
            ground = min((p for p, _ in labelled), key=lambda p: p.value)
            spurious = [
                p.delta for p, lab in labelled if lab == "spurious" and p.value > 0
            ]
            assert spurious and min(spurious) / ground.delta >= 10.0
            grounds.append(ground.value)
            alphas.append(run.alphas[:6])
        assert len(grounds) == 21
        assert np.max(np.abs(np.array(grounds) - REPORTED_LANCZOS_GROUND)) <= 5e-3
        assert np.ptp(grounds) < 5e-5
        np.testing.assert_allclose(alphas, [alphas[0]] * 21, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "kind, n, m",
        [
            ("gaussian", COMPARISON_N, 18),
            ("gaussian", 641, 50),
            ("poschl_teller", 641, 50),
            ("gaussian", 2401, 100),
            ("poschl_teller", 4801, 40),
        ],
    )
    def test_gauge_equals_paige_residual(self, kind, n, m):
        # With full reorthogonalization H Q_k = Q_k T_k + beta_k q_k+1 e_k^T,
        # so a Ritz pair's ||(H - theta) psi||^2 is (beta_k z_k)^2, z_k the last
        # entry of its eigenvector (Paige, Linear Algebra Appl. 34, 235, 1980),
        # up to roundoff of order u ||H||^2.  The last two cases lie above the
        # Gram gate, where the history forms no Ritz vector.
        g = make_grid(12.0, n)
        H = Hamiltonian(sample_potential(getattr(PotentialSpec, kind)(), g), 1.0)
        run = lanczos_run(H, start_vector(g), m)
        assert run.m == m
        norm = 4.0 / g.spacing**2 + np.max(np.abs(H.lam_v))
        history = ritz_history(run, H)
        for k in range(1, m):
            _, vectors = tridiagonal_eigen(run.alphas[:k], run.betas[: k - 1])
            paige = (run.betas[k - 1] * vectors[k - 1]) ** 2
            gap = np.abs(np.array([p.delta for p in history[k - 1]]) - paige)
            assert np.max(gap) <= 16 * 2.0**-52 * norm**2, f"prefix {k}"

    @pytest.mark.parametrize("kind", ["gaussian", "poschl_teller"])
    def test_history_rows_equal_shorter_runs(self, kind):
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(getattr(PotentialSpec, kind)(), g), 1.0)
        phi = start_vector(g)
        history = ritz_history(lanczos_run(H, phi, 18), H)
        for k in range(1, 19):
            short = ritz_history(lanczos_run(H, phi, k), H)[-1]
            assert [(p.value, p.delta) for p in history[k - 1]] == [
                (p.value, p.delta) for p in short
            ]

    @pytest.mark.parametrize(
        "kind, n, m", [("gaussian", 641, 50), ("poschl_teller", 2401, 40)]
    )
    def test_block_gauge_equals_per_pair_reference(self, kind, n, m):
        # The history scores its Ritz vectors in blocks of rows, and every
        # prefix past 16 pairs spans more than one block.  Each pair must
        # still score exactly as it does alone: its own z @ Q and norm, two
        # applies of H, one product.
        g = make_grid(12.0, n)
        H = Hamiltonian(sample_potential(getattr(PotentialSpec, kind)(), g), 1.0)
        run = lanczos_run(H, start_vector(g), m)
        assert run.m == m
        for k, row in enumerate(ritz_history(run, H), 1):
            reference = []
            values, vectors = tridiagonal_eigen(run.alphas[:k], run.betas[: k - 1])
            # Each z a contiguous copy, as a lone vector is: a strided z moves bits.
            for value, z in zip(values, vectors.T.copy()):
                psi = z @ run.Q[:k]
                psi /= np.sqrt(_h_dot(g, psi, psi))
                state = SampledFunction(g, psi)
                hh = hamiltonian_apply(H, hamiltonian_apply(H, state)).values
                reference.append((value, abs(value * value - _h_dot(g, psi, hh))))
            assert [(p.value, p.delta) for p in row] == reference, f"prefix {k}"

    @pytest.mark.parametrize(
        "n, m, blocks",
        [(641, 40, sum(-(-k // 16) for k in range(1, 41))), (2401, 100, 7)],
        ids=["below-gate", "above-gate"],
    )
    def test_history_applies_the_stencil_twice_per_block(
        self, monkeypatch, n, m, blocks
    ):
        # Below the gate, 820 pairs at m = 40 scored one by one would take 1640
        # applies of H; in blocks of 16 Ritz vectors they take 2 per block, 144
        # in all.  Above it H meets only the 100 basis rows, in 7 blocks: 14
        # applies, where one gemm per block of Ritz vectors took 728.
        g = make_grid(12.0, n)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        run = lanczos_run(H, start_vector(g), m)
        assert (n * m >= lanczos._GRAM_SIZE) == (n == 2401)
        applies = []
        apply_values = lanczos._apply_values

        def counted(H, v, *args):
            applies.append(v.shape)
            return apply_values(H, v, *args)

        monkeypatch.setattr(lanczos, "_apply_values", counted)
        history = ritz_history(run, H)
        assert sum(map(len, history)) == m * (m + 1) // 2
        assert len(applies) == 2 * blocks

    @pytest.mark.parametrize("n", [161, 201])
    def test_run_from_another_grid_rejected(self, n):
        # Same node count, and then another one: either way the run's basis
        # does not live on the Hamiltonian's grid.
        _, H = _coarse_setup(161)
        other = make_grid(10.0, n)
        run = lanczos_run(
            Hamiltonian(sample_potential(PotentialSpec.gaussian(), other), 1.0),
            start_vector(other),
            12,
        )
        with pytest.raises(GridMismatchError):
            ritz_history(run, H)

    def test_history_holds_no_vectors(self):
        # 5050 pairs at (n, m) = (2401, 100): keeping each Ritz vector would
        # take about 97 MB.  numpy reports its buffers to tracemalloc.
        g = make_grid(12.0, 2401)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        run = lanczos_run(H, start_vector(g), 100)
        tracemalloc.start()
        try:
            history = ritz_history(run, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, history)) == 5050
        assert peak < 8e6

    @pytest.mark.parametrize(
        "n, bound", [(2401, 4.2), (4801, 2.6)], ids=["below-gate", "above-gate"]
    )
    def test_gauge_holds_three_blocks(self, n, bound):
        # The history scores from the run's own basis array, with no copy of
        # it.  Below the gate it holds psi, H psi and H^2 psi in blocks of 16
        # rows and no fourth scratch block: the second apply uses its own
        # input as scratch.  lam*V belongs to the Hamiltonian.  Above the gate
        # the basis rows stand in for psi, so only the two blocks of H q and
        # H^2 q remain, beside the two m x m Gram matrices.
        m = 40
        assert (n * m >= lanczos._GRAM_SIZE) == (n == 4801)
        g = make_grid(12.0, n)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        run = lanczos_run(H, start_vector(g), m)
        tracemalloc.start()
        try:
            ritz_history(run, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = peak / (8 * lanczos._BLOCK_ROWS * n)
        assert blocks < bound


def _gemm_setup(kind, n, m):
    g = make_grid(12.0, n)
    H = Hamiltonian(sample_potential(getattr(PotentialSpec, kind)(), g), 1.0)
    run = lanczos_run(H, start_vector(g), m)
    assert run.m == m and g.n_points * m >= lanczos._GRAM_SIZE
    return H, run


# Scores a Gaussian (2401, 100) history and prints the SHA-256 of every
# (value, delta) in order.
_HISTORY_DIGEST = """
import hashlib
import struct
from boundstates import (
    Hamiltonian, PotentialSpec, lanczos_run, make_grid, ritz_history,
    sample_potential, start_vector,
)
g = make_grid(12.0, 2401)
H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
digest = hashlib.sha256()
for row in ritz_history(lanczos_run(H, start_vector(g), 100), H):
    for pair in row:
        digest.update(struct.pack("<2d", pair.value, pair.delta))
print(digest.hexdigest())
"""


class TestGramPath:
    @pytest.mark.parametrize(
        "kind, n, m",
        [
            ("poschl_teller", 2401, 64),
            ("gaussian", 2401, 100),
            ("poschl_teller", 4801, 40),
        ],
    )
    def test_gram_scores_match_lone_vectors(self, kind, n, m):
        # Above the gate no Ritz vector is formed: each pair scores from the
        # Gram matrices of the basis.  Against every vector formed and gauged
        # alone, the values keep their bits, each delta lies within roundoff
        # of order u ||H||^2, and every row's labels read the same.  The first
        # case lies just above the gate: n * m = 153 664.
        H, run = _gemm_setup(kind, n, m)
        g = H.grid
        reference = []
        for k in range(1, m + 1):
            values, vectors = tridiagonal_eigen(run.alphas[:k], run.betas[: k - 1])
            row = []
            for value, z in zip(values, vectors.T.copy()):
                psi = z @ run.Q[:k]
                psi /= np.sqrt(_h_dot(g, psi, psi))
                delta = delta_check(H, SampledFunction(g, psi), value)
                row.append(RitzPair(value, delta))
            reference.append(row)
        history = ritz_history(run, H)
        assert [[p.value for p in row] for row in history] == [
            [p.value for p in row] for row in reference
        ]
        norm = 4.0 / g.spacing**2 + np.max(np.abs(H.lam_v))
        gap = max(
            abs(p.delta - r.delta)
            for row, ref in zip(history, reference, strict=True)
            for p, r in zip(row, ref, strict=True)
        )
        assert gap <= 16 * 2.0**-52 * norm**2
        assert lanczos._label_history(history) == lanczos._label_history(reference)

    @pytest.mark.parametrize("kind", ["gaussian", "poschl_teller"])
    def test_history_rows_equal_shorter_runs_above_the_gate(self, kind):
        H, run = _gemm_setup(kind, 2401, 100)
        _, short = _gemm_setup(kind, 2401, 64)
        rows = [[(p.value, p.delta) for p in row] for row in ritz_history(run, H)]
        assert rows[:64] == [
            [(p.value, p.delta) for p in row] for row in ritz_history(short, H)
        ]

    def test_history_bits_hold_across_blas_threads(self):
        # One interpreter runs OpenBLAS on one thread, the other on its
        # default count; each fills the Gram matrices one gemv per row and
        # scores every prefix on the calling thread.
        src = str(Path(lanczos.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        digests = [
            subprocess.run(
                [sys.executable, "-W", "error", "-c", _HISTORY_DIGEST],
                capture_output=True,
                text=True,
                env={**env, **threads},
                check=True,
            ).stdout.strip()
            for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {})
        ]
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


class TestEnclosures:
    # For a unit psi with Rayleigh quotient theta, delta = ||(H - theta) psi||^2,
    # and [theta - sqrt(delta), theta + sqrt(delta)] holds an eigenvalue of H
    # (Weinstein, PNAS 20, 529, 1934).  A Ritz value's delta is therefore a
    # certified radius^2.

    @pytest.mark.parametrize(
        "kind, lam, n, m",
        [
            ("gaussian", 1.0, COMPARISON_N, 18),
            ("gaussian", 1.0, 2401, 100),
            ("poschl_teller", 6.0, 2401, 96),
            ("poschl_teller", 6.0, 641, 50),
        ],
    )
    def test_every_pair_encloses_a_grid_eigenvalue(self, kind, lam, n, m):
        g = make_grid(12.0, n)
        H = Hamiltonian(sample_potential(getattr(PotentialSpec, kind)(), g), lam)
        run = lanczos_run(H, start_vector(g), m)
        assert run.m == m
        spectrum = eigh_tridiagonal(*_grid_tridiagonal(H), eigvals_only=True)
        for k, row in enumerate(ritz_history(run, H), 1):
            values = np.array([p.value for p in row])
            nearest = np.min(np.abs(values[:, None] - spectrum), axis=1)
            assert np.all(nearest <= np.sqrt([p.delta for p in row])), f"prefix {k}"

    def test_coarse_ground_level_lies_in_its_kato_temple_interval(self):
        # With theta < b <= the second eigenvalue, the lowest one lies in
        # [theta - delta / (b - theta), theta] (Kato, J. Phys. Soc. Japan 4,
        # 334, 1949; Temple, Proc. R. Soc. A 119, 276, 1928).  b is the
        # grid's own second level.
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        history = ritz_history(lanczos_run(H, start_vector(g), 18), H)
        ground = min(history[-1], key=lambda p: p.value)
        lowest, b = eigh_tridiagonal(
            *_grid_tridiagonal(H), eigvals_only=True, select="i", select_range=(0, 1)
        )
        assert ground.value < b
        assert ground.value - ground.delta / (b - ground.value) <= lowest
        assert lowest <= ground.value

    # theta + sqrt(delta) < 0 proves a negative eigenvalue of H: a bound level.
    @staticmethod
    def _ensemble_histories(n):
        g = make_grid(12.0, n)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        return [
            ritz_history(lanczos_run(H, phi, 18), H)
            for phi in _ulp_ensemble(start_vector(g))
        ]

    def test_coarse_ground_pair_certifies_a_bound_level(self):
        grounds = [
            min(history[-1], key=lambda p: p.value)
            for history in self._ensemble_histories(COMPARISON_N)
        ]
        assert len(grounds) == 21
        assert all(p.value + np.sqrt(p.delta) < 0 for p in grounds)

    def test_fine_grid_certifies_no_bound_level(self):
        # No pair of any prefix of any ensemble member: the paper's contrast.
        histories = self._ensemble_histories(2401)
        assert len(histories) == 21
        assert not any(
            p.value + np.sqrt(p.delta) < 0
            for history in histories
            for row in history
            for p in row
        )


class TestDeltaCheck:
    def test_identity_with_residual_norm(self, rng):
        g, H = _coarse_setup()
        h = g.spacing
        for _ in range(5):
            psi = rng.normal(size=g.n_points)
            psi /= np.sqrt(_h_dot(g, psi, psi))
            state = SampledFunction(g, psi)
            hpsi = hamiltonian_apply(H, state).values
            e = _h_dot(g, psi, hpsi)
            delta = delta_check(H, state, e)
            resid = hpsi - e * psi
            norm2 = _h_dot(g, resid, resid)
            assert delta == pytest.approx(norm2, rel=1e-10)

    def test_exact_eigenpair_zero(self):
        g, H = _coarse_setup()
        value, phi = _ground_eigvec(H)
        assert delta_check(H, phi, value) <= 1e-10


class TestClassifyPairs:
    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="at least one iteration of history"):
            classify_pairs([])

    def test_comparison_run_labels(self):
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        run = lanczos_run(H, start_vector(g), 18)
        history = ritz_history(run, H)
        labelled = classify_pairs(history)
        lowest_pair, lowest_label = min(labelled, key=lambda pl: pl[0].value)
        assert lowest_label == "genuine"
        spurious = [p for p, lab in labelled if lab == "spurious" and p.value > 0]
        assert spurious
        assert min(p.delta for p in spurious) / lowest_pair.delta >= 10.0

    def test_exact_start_always_genuine(self, monkeypatch):
        g, H = _coarse_setup()
        _, phi = _ground_eigvec(H)
        # A zero breakdown tolerance pushes past the immediate breakdown so a
        # history of useful length exists; the converged pair must stay genuine.
        monkeypatch.setattr(lanczos, "_BETA_TOL", 0.0)
        run = lanczos_run(H, phi, 5)
        assert run.m == 5
        history = ritz_history(run, H)
        for length in range(3, run.m + 1):
            labelled = classify_pairs(history[:length])
            lowest = min(labelled, key=lambda pl: pl[0].value)
            assert lowest[1] == "genuine"

    def test_equal_distances_continue_the_older_track(self):
        # In the last row every pair is 0.05 from both open tracks.  Pair 0
        # takes the track opened in row 1 (deltas 0.01, 0.01), not the one
        # opened in row 2; the other order would read pair 1 as genuine.
        rows = [
            [(0.1, 0.01)],
            [(0.0, 0.6), (0.1, 0.01)],
            [(0.05, 0.6), (0.05, 0.01), (0.05, 0.6)],
        ]
        history = [[RitzPair(value, delta) for value, delta in row] for row in rows]
        assert [lab for _, lab in classify_pairs(history)] == ["undecided"] * 3

    def test_bisected_matching_equals_brute_force(self, rng):
        # Values on a 0.05 lattice, with offsets and a little jitter, give
        # unsorted rows, repeated values, equal distances and distances on
        # both sides of MATCH_GATE as well as exactly on it.
        at_gate = 0
        for _ in range(500):
            history = []
            for _ in range(1, int(rng.integers(2, 9))):
                size = int(rng.integers(1, 8))
                values = (
                    rng.choice([0.0, 0.3, 2.0, 100.0])
                    + rng.integers(0, 8, size) * 0.05
                    + rng.choice([0.0, 0.0, 0.0, 1e-17, -1e-12, 0.05], size)
                )
                deltas = rng.choice([1e-3, 0.01, 0.04, 0.3, 0.6, 0.9], size)
                history.append(
                    [RitzPair(float(v), float(d)) for v, d in zip(values, deltas)]
                )
            for prev, row in zip(history, history[1:]):
                at_gate += sum(
                    abs(p.value - q.value) == lanczos.MATCH_GATE
                    for p in prev
                    for q in row
                )
            assert lanczos._label_history(history) == _brute_force_labels(history)
        assert at_gate > 0

    def test_short_history_is_undecided(self):
        # Three iterations of deltas are needed to call a track either way.
        g, H = _coarse_setup()
        run = lanczos_run(H, start_vector(g), 2)
        history = ritz_history(run, H)
        assert [lab for _, lab in classify_pairs(history)] == ["undecided"] * 2


class TestSpectralProperties:
    def test_variational_descent(self):
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        run = lanczos_run(H, start_vector(g), 18)
        history = ritz_history(run, H)
        lowest = [min(p.value for p in pairs) for pairs in history]
        assert all(b <= a + 1e-10 for a, b in zip(lowest, lowest[1:]))

    def test_gershgorin_containment(self):
        g, H = _coarse_setup()
        run = lanczos_run(H, start_vector(g), 18)
        pairs = ritz_history(run, H)[-1]
        h = g.spacing
        diag = 2.0 / h**2 - H.lam * H.V.values
        lo = float(np.min(diag) - 2.0 / h**2) - 1e-9
        hi = float(np.max(diag) + 2.0 / h**2) + 1e-9
        assert all(lo <= p.value <= hi for p in pairs)

    def test_full_krylov_matches_dense_oracle(self, rng):
        # m = n with a generic start must reproduce the whole spectrum of the
        # discretized operator; the oracle is the Jacobi eigensolver, not a
        # second Krylov code.
        g, H = _coarse_setup()
        start = rng.normal(size=g.n_points)
        start /= np.sqrt(_h_dot(g, start, start))
        run = lanczos_run(H, SampledFunction(g, start), g.n_points)
        assert run.m == g.n_points
        ritz, _ = tridiagonal_eigen(run.alphas, run.betas)
        dense = jacobi_eigenvalues(_dense_matrix(H))
        np.testing.assert_allclose(ritz, dense, atol=1e-8)


class TestTraceCsv:
    def test_header_and_determinism(self):
        g, H = _coarse_setup()
        run = lanczos_run(H, start_vector(g), 6)
        history = ritz_history(run, H)
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            write_trace_csv(history, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert lines[0] == "iteration,ritz_index,value,delta,label"
        assert len(lines) == 1 + sum(len(p) for p in history)

    def test_labels_match_classification_of_each_prefix(self):
        # The trace labels every iteration in one tracking pass; that is only
        # right because threading is causal, so each row must equal what
        # classifying the history up to that iteration alone gives.
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        history = ritz_history(lanczos_run(H, start_vector(g), 18), H)
        buf = io.StringIO()
        write_trace_csv(history, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        for li in range(1, len(history) + 1):
            labels = [row[4] for row in rows if int(row[0]) == li]
            if li < 3:
                assert labels == ["undecided"] * len(history[li - 1])
            else:
                assert labels == [lab for _, lab in classify_pairs(history[:li])]
        assert {row[4] for row in rows} == {"genuine", "spurious", "undecided"}
