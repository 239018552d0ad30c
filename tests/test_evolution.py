from pathlib import Path

import numpy as np
import pytest

import kdvessel as kv
from kdvessel.cli import main

DATA = Path(__file__).parent / "data"


def brute_rhs(lattice, p, t):
    """Independent pair enumeration on integer labels."""
    labels = [m for m in range(-lattice.M, lattice.M + 1) if m != 0]
    kval = {m: lattice.k0 * float(m) for m in labels}
    pos = {m: i for i, m in enumerate(labels)}
    out = np.empty(len(labels))
    for j, mN in enumerate(labels):
        kN = kval[mN]
        acc = 0.0
        for ma in labels:
            for mb in labels:
                if ma + mb == mN:
                    ka, kb = kval[ma], kval[mb]
                    acc += p[pos[ma]] * p[pos[mb]] / (ka * kb) * np.cos(6.0 * ka * kb * kN * t)
        out[j] = -1.5 * kN**2 * acc
    return out


class TestLattice:
    def test_members_and_symmetry(self):
        lat = kv.make_lattice(1.0, 2)
        assert np.array_equal(lat.members, [-2.0, -1.0, 1.0, 2.0])
        assert np.array_equal(np.sort(-lat.members), np.sort(lat.members))

    def test_pair_bookkeeping_1_2(self):
        # kept: (1,1)->2, (-1,-1)->-2, (-1,2)/(2,-1)->1, (1,-2)/(-2,1)->-1
        # dropped: (1,2),(2,1),(2,2) and mirrors; zero sums excluded
        lat = kv.make_lattice(1.0, 2)
        assert lat.kept_pairs == 6
        assert lat.dropped_pairs == 6
        assert lat.dropped_fraction == pytest.approx(0.5)

    def test_all_cross_pairs_dropped_for_m1(self):
        lat = kv.make_lattice(0.5, 1)
        assert np.array_equal(lat.members, [-0.5, 0.5])
        assert lat.kept_pairs == 0
        assert lat.dropped_pairs == 2  # (1,1) and (-1,-1); zero sums excluded

    def test_symmetry_any_parameters(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            lat = kv.make_lattice(rng.uniform(0.1, 3.0), rng.integers(1, 7))
            mirror = lat.mirror_permutation()
            assert np.array_equal(lat.members[mirror], -lat.members)

    @pytest.mark.parametrize("M", range(1, 13))
    def test_pairs_match_brute_enumeration(self, M):
        labels = [m for m in range(-M, M + 1) if m != 0]
        pos = {m: i for i, m in enumerate(labels)}
        # output-major, a in lexicographic order inside each output
        pairs = [(pos[m], pos[a], pos[m - a]) for m in labels for a in labels
                 if m - a in pos]
        sums = [a + b for a in labels for b in labels if a + b != 0]
        lat = kv.make_lattice(0.7, M)
        assert np.array_equal(np.stack([lat.pair_out, lat.pair_a, lat.pair_b], axis=1),
                              np.array(pairs, dtype=int).reshape(-1, 3))
        assert lat.kept_pairs == sum(abs(s) <= M for s in sums) == len(pairs)
        assert lat.dropped_pairs == sum(abs(s) > M for s in sums)
        assert np.array_equal(lat.mirror_permutation(), [pos[-m] for m in labels])
        for arr in (lat.indices, lat.members, lat.pair_out, lat.pair_a, lat.pair_b):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("M", [1, 2, 5, 16, 48])
    def test_reversed_pairs_are_the_mirrored_pairs(self, M):
        # pair P-1-j is pair j with every label negated, so its frequency is
        # bitwise the negated one: the |omega| table needs only half the pairs
        lat = kv.make_lattice(1.041, M)
        mirror = lat.mirror_permutation()
        for arr in (lat.pair_out, lat.pair_a, lat.pair_b):
            assert np.array_equal(mirror[arr][::-1], arr)
        k = lat.members
        omega = 6.0 * k[lat.pair_a] * k[lat.pair_b] * k[lat.pair_out]
        assert (-omega[::-1]).tobytes() == omega.tobytes()

    @pytest.mark.parametrize("M", [1, 2, 24, 48])
    def test_frequency_table_gives_every_pair_its_frequency(self, M):
        lat = kv.make_lattice(0.93, M)
        k = lat.members
        omega = 6.0 * k[lat.pair_a] * k[lat.pair_b] * k[lat.pair_out]
        assert lat.omega[lat.pair_omega_index].tobytes() == np.abs(omega).tobytes()
        assert np.all(np.diff(lat.omega) > 0)  # sorted and distinct
        assert np.all(lat.omega > 0)
        if M == 1:
            assert lat.omega.size == 0 and lat.pair_omega_index.size == 0
        else:
            assert 0 < lat.omega.size < lat.kept_pairs
        for arr in (lat.omega, lat.pair_omega_index):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("M", [24, 48])
    def test_gathered_cosine_is_the_signed_cosine(self, M):
        # cos is even bit for bit, so the |omega| table loses nothing
        lat = kv.make_lattice(1.041, M)
        k = lat.members
        omega = 6.0 * k[lat.pair_a] * k[lat.pair_b] * k[lat.pair_out]
        for t in (0.0, 1e-3, -0.37, 0.5, 1.0, -2.9, 2.99, 3.01, -3.0):
            assert (kv.evolution._cosines(lat, t).tobytes()
                    == np.cos(omega * t).tobytes())

    def test_rejects_bad_parameters(self):
        with pytest.raises(kv.InvalidSpecError):
            kv.make_lattice(0.0, 2)
        with pytest.raises(kv.InvalidSpecError):
            kv.make_lattice(1.0, 0)
        with pytest.raises(kv.InvalidSpecError):
            kv.make_lattice(1.0, 2.5)


class TestDbntRhs:
    def test_hand_values_at_origin(self):
        lat = kv.make_lattice(1.0, 2)
        rhs = kv.dbnt_rhs(lat, np.ones(4), 0.0)
        by_member = dict(zip(lat.members, rhs))
        assert by_member[2.0] == pytest.approx(-6.0)  # single pair (1,1)
        assert by_member[1.0] == pytest.approx(1.5)  # (-1,2) and (2,-1)
        assert by_member[-1.0] == pytest.approx(1.5)
        assert by_member[-2.0] == pytest.approx(-6.0)

    def test_conservation_at_origin_for_constant_p(self):
        lat = kv.make_lattice(1.0, 2)
        rhs = kv.dbnt_rhs(lat, np.ones(4), 0.0)
        assert abs(np.sum(rhs / lat.members**2)) == 0.0

    def test_bit_exact_vs_brute_force(self):
        rng = np.random.default_rng(17)
        for M in (2, 3, 4):
            lat = kv.make_lattice(1.0, M)
            for trial in range(4):
                half = rng.uniform(0.1, 2.0, size=M)
                p = np.concatenate([half[::-1], half])
                t = 0.0 if trial == 0 else rng.uniform(0, 1)
                assert np.array_equal(kv.dbnt_rhs(lat, p, t), brute_rhs(lat, p, t))

    @pytest.mark.parametrize("M", [1, 16, 24])
    def test_bitwise_vs_brute_force_random(self, M):
        # M = 1 keeps no pair: every entry is -1.5 k^2 * 0.0 = -0.0
        rng = np.random.default_rng(100 + M)
        for _ in range(6):
            lat = kv.make_lattice(rng.uniform(0.1, 3.0), M)
            p = 10.0 ** rng.uniform(-4.0, 1.0, size=lat.size)
            t = rng.uniform(-3.0, 3.0)
            rhs = kv.dbnt_rhs(lat, p, t)
            assert rhs.tobytes() == brute_rhs(lat, p, t).tobytes()
            if M == 1:
                assert not np.any(rhs) and np.all(np.signbit(rhs))

    def test_index_mismatch_rejected(self):
        lat = kv.make_lattice(1.0, 2)
        with pytest.raises(kv.InvalidSpecError):
            kv.dbnt_rhs(lat, np.ones(3), 0.0)


class TestIntegrateB:
    def test_zero_initial_data(self):
        lat = kv.make_lattice(1.0, 2)
        traj = kv.integrate_b(lat, np.zeros(4), np.linspace(0, 1, 11))
        assert np.array_equal(traj.p, np.zeros((11, 4)))
        assert np.array_equal(traj.conservation, np.zeros(11))

    def test_default_gate_fires_on_truncated_lattice(self):
        # the stated conservation contract (reject above 1e-9) is violated by
        # the flow itself on any truncated lattice with nonconstant p
        lat = kv.make_lattice(1.0, 2)
        with pytest.raises(kv.ConservationError):
            kv.integrate_b(lat, np.ones(4), np.linspace(0, 0.5, 501))

    def test_initial_slope(self):
        lat = kv.make_lattice(1.0, 2)
        dt = 1e-4
        traj = kv.integrate_b(lat, np.ones(4), np.array([0.0, dt]),
                              conservation_tol=np.inf)
        slope = (traj.p[1] - traj.p[0]) / dt
        by_member = dict(zip(lat.members, slope))
        assert by_member[2.0] == pytest.approx(-6.0, abs=1e-2)
        assert by_member[-2.0] == pytest.approx(-6.0, abs=1e-2)

    def test_integrator_order_four(self):
        lat = kv.make_lattice(1.0, 2)
        ends = []
        for n in (50, 100, 200):
            traj = kv.integrate_b(lat, np.ones(4), np.linspace(0, 0.5, n + 1),
                                  conservation_tol=np.inf)
            ends.append(traj.p[-1])
        d1 = np.max(np.abs(ends[0] - ends[1]))
        d2 = np.max(np.abs(ends[1] - ends[2]))
        assert 3.5 < np.log2(d1 / d2) < 4.5

    def test_symmetry_preserved(self):
        lat = kv.make_lattice(1.0, 3)
        half = np.array([0.8, 1.1, 0.5])
        p0 = np.concatenate([half[::-1], half])
        traj = kv.integrate_b(lat, p0, np.linspace(0, 0.4, 201),
                              conservation_tol=np.inf)
        mirror = lat.mirror_permutation()
        assert np.max(np.abs(traj.p - traj.p[:, mirror])) < 1e-12

    @staticmethod
    def _counted_kernel(monkeypatch):
        """Record the times of the cosine tables and count the pair sums."""
        tables, sums = [], []
        cosines, pair_sum = kv.evolution._cosines, kv.evolution._pair_sum

        def counted_cosines(lattice, t):
            tables.append(t)
            return cosines(lattice, t)

        def counted_pair_sum(lattice, p, cos):
            sums.append(1)
            return pair_sum(lattice, p, cos)

        monkeypatch.setattr(kv.evolution, "_cosines", counted_cosines)
        monkeypatch.setattr(kv.evolution, "_pair_sum", counted_pair_sum)
        return tables, sums

    @staticmethod
    def _assert_rk4_over_dbnt_rhs(lat, p0, t_grid, traj):
        """Bit-equal to classical RK4 written out over dbnt_rhs."""
        rhs = kv.dbnt_rhs
        p = p0.copy()
        for i in range(t_grid.size - 1):
            t0, h = t_grid[i], t_grid[i + 1] - t_grid[i]
            k1 = rhs(lat, p, t0)
            k2 = rhs(lat, p + 0.5 * h * k1, t0 + 0.5 * h)
            k3 = rhs(lat, p + 0.5 * h * k2, t0 + 0.5 * h)
            k4 = rhs(lat, p + h * k3, t0 + h)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert np.array_equal(traj.p[i + 1], p)
            dp = rhs(lat, p, t_grid[i + 1])
            assert traj.conservation[i + 1] == abs(float(np.sum(dp / lat.members**2)))

    def test_one_rhs_per_stage(self, monkeypatch):
        # the monitor's dp/dt at a sample is the next step's first stage, and
        # stages 2-3 and stage 4 with the next monitor share their times:
        # 4 pair sums and 2 cosine tables per step, plus one of each at t = 0
        lat = kv.make_lattice(1.0, 3)
        half = np.array([0.8, 1.1, 0.5])
        p0 = np.concatenate([half[::-1], half])
        t_grid = np.linspace(0.0, 0.3, 11)
        tables, sums = self._counted_kernel(monkeypatch)
        traj = kv.integrate_b(lat, p0, t_grid, conservation_tol=np.inf)
        assert len(tables) == 2 * 10 + 1
        assert len(sums) == 4 * 10 + 1
        self._assert_rk4_over_dbnt_rhs(lat, p0, t_grid, traj)

    def test_sample_off_the_last_stage_time_takes_its_own_table(self, monkeypatch):
        # t0 + h = -1.0 + 1.0 = 0.0 rounds apart from t1 = 1e-20, so the
        # monitor at t1 takes its own table; the next step's t0 + h is 0.5
        lat = kv.make_lattice(1.0, 3)
        half = np.array([0.8, 1.1, 0.5]) * 1e-2  # small enough for h = 1
        p0 = np.concatenate([half[::-1], half])
        t_grid = np.array([-1.0, 1e-20, 0.5])
        tables, sums = self._counted_kernel(monkeypatch)
        traj = kv.integrate_b(lat, p0, t_grid, conservation_tol=np.inf)
        assert tables == [-1.0, -0.5, 0.0, 1e-20, 0.25, 0.5]
        assert len(sums) == 4 * 2 + 1
        self._assert_rk4_over_dbnt_rhs(lat, p0, t_grid, traj)

    def test_two_cosine_tables_of_1002_values_per_step_at_M48(self, monkeypatch):
        lat = kv.make_lattice(1.041, 48)
        assert lat.omega.size == 1002 and lat.kept_pairs == 6768
        tables, _ = self._counted_kernel(monkeypatch)
        p0 = np.full(lat.size, 1e-3)
        kv.integrate_b(lat, p0, np.linspace(0.0, 0.01, 4), conservation_tol=np.inf)
        assert len(tables) == 2 * 3 + 1

    @pytest.mark.parametrize("M", [8, 24])
    def test_evolve_csv_matches_golden(self, tmp_path, M):
        # tests/data/evolve_M<M>.csv was written by the per-pair loop that
        # the vectorized right-hand side replaced; 10 steps, no gate
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(DATA / f"evolve_M{M}.json"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"evolve_M{M}.csv").read_bytes()

    def test_preconditions(self):
        lat = kv.make_lattice(1.0, 2)
        with pytest.raises(kv.InvalidSpecError):
            kv.integrate_b(lat, np.array([1.0, 1.0, 1.0, -0.1]), np.linspace(0, 1, 5))
        with pytest.raises(kv.InvalidSpecError):
            kv.integrate_b(lat, np.array([1.0, 0.5, 1.0, 1.0]), np.linspace(0, 1, 5))
        with pytest.raises(kv.InvalidSpecError):
            kv.integrate_b(lat, np.ones(4), np.array([0.0]))

