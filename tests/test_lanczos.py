"""Lanczos recursion, Ritz extraction, and the spuriousness gauge."""

import io

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

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
    ritz_pairs,
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


def _dense_matrix(H):
    g = H.grid
    h = g.spacing
    d = 2.0 / h**2 - H.lam * H.V.values
    e = np.full(g.n_points - 1, -1.0 / h**2)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _ground_eigvec(H):
    g = H.grid
    h = g.spacing
    d = 2.0 / h**2 - H.lam * H.V.values
    e = np.full(g.n_points - 1, -1.0 / h**2)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    v = vecs[:, 0] / np.sqrt(_h_dot(g, vecs[:, 0], vecs[:, 0]))
    return float(vals[0]), SampledFunction(g, v)


class TestHamiltonianApply:
    def test_poschl_teller_eigenpair_interior(self, fine_grid):
        V = sample_potential(PotentialSpec.poschl_teller(), fine_grid)
        H = Hamiltonian(V, 2.0)
        sech = SampledFunction.from_callable(fine_grid, lambda x: 1.0 / np.cosh(x))
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
        u = SampledFunction.from_callable(
            fine_grid, lambda x: np.sin(np.pi * x / 12.0)
        )
        out = hamiltonian_apply(H, u).values
        expect = (np.pi / 12.0) ** 2 * u.values
        assert np.max(np.abs(out[1:-1] - expect[1:-1])) < 1e-6

    def test_grid_mismatch(self, gaussian_fine):
        H = Hamiltonian(gaussian_fine, 1.0)
        u = SampledFunction(make_grid(12.0, 241), np.ones(241))
        with pytest.raises(GridMismatchError):
            hamiltonian_apply(H, u)

    def test_symmetric_on_boundary_vanishing_states(self, rng):
        from boundstates import inner_product

        g, H = _coarse_setup()
        for _ in range(5):
            fv = rng.normal(size=g.n_points)
            gv = rng.normal(size=g.n_points)
            fv[0] = fv[-1] = gv[0] = gv[-1] = 0.0
            f = SampledFunction(g, fv)
            k = SampledFunction(g, gv)
            lhs = inner_product(f, hamiltonian_apply(H, k))
            rhs = inner_product(hamiltonian_apply(H, f), k)
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
        Q = np.stack([b.values for b in run.basis])
        gram = fine_grid.spacing * (Q @ Q.T)
        assert np.max(np.abs(gram - np.eye(run.m))) <= 1e-8

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

    def test_non_unit_start_rejected(self):
        g, H = _coarse_setup()
        bad = SampledFunction(g, 2.0 * start_vector(g).values)
        with pytest.raises(ValueError):
            lanczos_run(H, bad, 3)


class TestTridiagonalEigen:
    def test_scalar(self):
        assert tridiagonal_eigen([3.5], [])[0][0] == 3.5

    def test_two_by_two(self):
        vals = [v for v, _ in tridiagonal_eigen([0.0, 0.0], [1.0])]
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_matches_jacobi_oracle(self, rng):
        d = rng.normal(size=18)
        e = rng.normal(size=17)
        ours = np.array([v for v, _ in tridiagonal_eigen(d, e)])
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        np.testing.assert_allclose(ours, jacobi_eigenvalues(T), atol=1e-10)

    def test_residuals(self, rng):
        d = rng.normal(size=18)
        e = rng.normal(size=17)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        norm = np.linalg.norm(T)
        for value, z in tridiagonal_eigen(d, e):
            assert np.linalg.norm(T @ z - value * z) <= 1e-10 * norm

    def test_ascending(self, rng):
        d = rng.normal(size=10)
        e = rng.normal(size=9)
        vals = [v for v, _ in tridiagonal_eigen(d, e)]
        assert vals == sorted(vals)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tridiagonal_eigen([1.0, 2.0], [0.5, 0.5])

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
            ours = tridiagonal_eigen(d, e)
            assert np.array_equal([v for v, _ in ours], vals), f"eigenvalues, m={k}"
            for i, (_, z) in enumerate(ours):
                assert np.array_equal(z, vecs[:, i]), f"eigenvector {i}, m={k}"

    def test_scalar_bit_identical_to_scipy(self):
        vals, vecs = eigh_tridiagonal(np.array([3.5]), np.array([]))
        [(value, z)] = tridiagonal_eigen([3.5], [])
        assert value == vals[0] and np.array_equal(z, vecs[:, 0])


class TestRitzPairs:
    def test_sorted_unit_norm(self):
        g, H = _coarse_setup()
        run = lanczos_run(H, start_vector(g), 10)
        pairs = ritz_pairs(run, H)
        values = [p.value for p in pairs]
        assert values == sorted(values)
        for p in pairs:
            assert abs(_h_dot(g, p.vector.values, p.vector.values) - 1.0) <= 1e-8
            assert p.delta >= 0.0
            assert p.iteration == run.m

    def test_exact_start_single_pair(self):
        g, H = _coarse_setup()
        value, phi = _ground_eigvec(H)
        run = lanczos_run(H, phi, 6)
        pairs = ritz_pairs(run, H)
        assert len(pairs) == 1
        assert pairs[0].delta <= 1e-8

    def test_comparison_run_ground_value(self):
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), g), 1.0)
        run = lanczos_run(H, start_vector(g), 18)
        pairs = ritz_pairs(run, H)
        assert pairs[0].value == pytest.approx(REPORTED_LANCZOS_GROUND, abs=5e-3)
        assert any(p.value > 0 for p in pairs)


    @pytest.mark.parametrize("kind", ["gaussian", "poschl_teller"])
    def test_history_rows_equal_shorter_runs(self, kind):
        g = make_grid(12.0, COMPARISON_N)
        H = Hamiltonian(sample_potential(getattr(PotentialSpec, kind)(), g), 1.0)
        phi = start_vector(g)
        history = ritz_history(lanczos_run(H, phi, 18), H)
        for k in range(1, 19):
            short = ritz_pairs(lanczos_run(H, phi, k), H)
            assert [(p.value, p.delta) for p in history[k - 1]] == [
                (p.value, p.delta) for p in short
            ]


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
            pair = RitzPair(e, state, 0.0, 1)
            delta = delta_check(pair, H)
            resid = hpsi - e * psi
            norm2 = _h_dot(g, resid, resid)
            assert delta == pytest.approx(norm2, rel=1e-10)

    def test_exact_eigenpair_zero(self):
        g, H = _coarse_setup()
        value, phi = _ground_eigvec(H)
        pair = RitzPair(value, phi, 0.0, 1)
        assert delta_check(pair, H) <= 1e-10


class TestClassifyPairs:
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

    def test_exact_start_always_genuine(self):
        g, H = _coarse_setup()
        _, phi = _ground_eigvec(H)
        # beta_tol=0 pushes past the immediate breakdown so a history of
        # useful length exists; the converged pair must stay genuine.
        run = lanczos_run(H, phi, 5, beta_tol=0.0)
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
        history = [
            [RitzPair(value, None, delta, k) for value, delta in row]
            for k, row in enumerate(rows, 1)
        ]
        assert [lab for _, lab in classify_pairs(history)] == ["undecided"] * 3

    def test_short_history_rejected(self):
        g, H = _coarse_setup()
        run = lanczos_run(H, start_vector(g), 2)
        history = ritz_history(run, H)
        with pytest.raises(ValueError):
            classify_pairs(history)


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
        pairs = ritz_pairs(run, H)
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
        ritz = np.sort([v for v, _ in tridiagonal_eigen(run.alphas, run.betas)])
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
