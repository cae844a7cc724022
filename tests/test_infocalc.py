"""Entropy and conditional mutual information, including the axiom checks."""

import itertools
import math

import numpy as np
import pytest

from icbounds import (
    ArgumentError,
    JointTable,
    TOLERANCE,
    binary_entropy,
    binary_entropy_vec,
    conditional_mutual_information,
    entropy,
    merge_variables,
)


def random_table(rng, dims):
    p = rng.random(int(np.prod(dims)))
    return JointTable(tuple(dims), p / p.sum())


def test_binary_entropy_known_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.1) - 0.468996) < 1e-6
    # direct formula evaluation as the reference
    assert binary_entropy(0.1) == pytest.approx(
        -0.1 * math.log2(0.1) - 0.9 * math.log2(0.9), abs=1e-15
    )


def test_binary_entropy_symmetry():
    for p in (0.0, 0.01, 0.2, 0.37, 0.5, 0.77, 0.99, 1.0):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-15)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0, -1e-9])
def test_binary_entropy_domain(p):
    with pytest.raises(ArgumentError):
        binary_entropy(p)


def test_binary_entropy_vec_matches_scalar():
    ps = np.linspace(0.0, 1.0, 11)
    vec = binary_entropy_vec(ps)
    for p, v in zip(ps, vec):
        assert v == pytest.approx(binary_entropy(float(p)), abs=1e-15)


def test_entropy_uniform_and_point():
    assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ArgumentError):
        entropy([0.5, 0.2])
    with pytest.raises(ArgumentError):
        entropy([1.5, -0.5])


@pytest.mark.parametrize("probs", [[1.0], [1.0, 0.0], [0.0, 0.0, 1.0], np.array([0.0, 1.0])])
def test_entropy_of_a_point_mass_is_positive_zero(probs):
    assert math.copysign(1.0, entropy(probs)) == 1.0


def test_joint_table_validation():
    with pytest.raises(ArgumentError):
        JointTable((2, 2), [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ArgumentError):
        JointTable((2, 2), [1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ArgumentError):
        JointTable((2, 2), [0.5, 0.5])
    with pytest.raises(ArgumentError):
        JointTable((0,), [])


def test_cmi_independent_bits_is_zero():
    # A, B independent uniform bits, C constant
    t = JointTable((2, 2, 1), [0.25, 0.25, 0.25, 0.25])
    assert conditional_mutual_information(t, 0, 1, (2,)) == pytest.approx(0.0, abs=1e-12)


def test_cmi_perfect_correlation_is_one():
    # A = B uniform bit, C constant
    t = JointTable((2, 2, 1), [0.5, 0.0, 0.0, 0.5])
    assert conditional_mutual_information(t, 0, 1, (2,)) == pytest.approx(1.0, abs=1e-12)


def test_cmi_rejects_overlapping_indices():
    t = JointTable((2, 2, 2), [0.125] * 8)
    with pytest.raises(ArgumentError):
        conditional_mutual_information(t, 0, 0, (1,))
    with pytest.raises(ArgumentError):
        conditional_mutual_information(t, 0, 1, (1,))
    with pytest.raises(ArgumentError):
        conditional_mutual_information(t, 0, 3, ())


def test_chain_rule_on_random_tables():
    # I(A;B,C) = I(A;C) + I(A;B|C) on 50 random 2x2x2 tables
    rng = np.random.default_rng(101)
    for _ in range(50):
        t = random_table(rng, (2, 2, 2))
        lhs = conditional_mutual_information(merge_variables(t, 1, 2), 0, 1)
        rhs = conditional_mutual_information(t, 0, 2) + conditional_mutual_information(
            t, 0, 1, (2,)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_nonnegativity_on_random_tables():
    rng = np.random.default_rng(202)
    for _ in range(100):
        dims = tuple(rng.integers(2, 5, size=3))
        t = random_table(rng, dims)
        assert conditional_mutual_information(t, 0, 1, (2,)) >= -1e-9


def reference_cmi(table, a, b, c):
    """I(A;B|C) with the marginals gathered by boolean masks over broadcast
    views: the formula and element order the routine must keep."""
    arr = table.probs.reshape(table.dims)
    keep = sorted({a, b, *c})
    drop = tuple(i for i in range(table.n_vars) if i not in keep)
    if drop:
        arr = arr.sum(axis=drop)
    pos = {v: i for i, v in enumerate(keep)}
    arr = np.transpose(arr, (pos[a], pos[b], *(pos[i] for i in c)))
    p = arr.reshape(table.dims[a], table.dims[b], -1)
    p_ac = p.sum(axis=1)
    p_bc = p.sum(axis=0)
    p_c = p_bc.sum(axis=0)
    mask = p > 0.0
    pm = p[mask]
    pa = np.broadcast_to(p_ac[:, None, :], p.shape)[mask]
    pb = np.broadcast_to(p_bc[None, :, :], p.shape)[mask]
    pc = np.broadcast_to(p_c[None, None, :], p.shape)[mask]
    return float(np.sum(pm * (np.log2(pm * pc) - np.log2(pa * pb))))


def test_cmi_equals_the_masked_reference_bitwise():
    # Every choice of (a, b), every ordered conditioning set among the rest,
    # and the remaining variables summed out, on tables with zero entries.
    rng = np.random.default_rng(505)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=n))
        p = rng.random(int(np.prod(dims)))
        p[rng.random(p.size) < 0.3] = 0.0
        if not p.any():
            p[0] = 1.0
        t = JointTable(dims, p / p.sum())
        for a, b in itertools.permutations(range(n), 2):
            rest = [i for i in range(n) if i not in (a, b)]
            for size in range(len(rest) + 1):
                for c in itertools.permutations(rest, size):
                    got = conditional_mutual_information(t, a, b, c)
                    assert got.hex() == reference_cmi(t, a, b, c).hex()


def coarse_grain_first_variable(table, mapping, out_dim):
    """Deterministic map applied to variable 0 of a joint table."""
    arr = table.probs.reshape(table.dims)
    out = np.zeros((out_dim,) + table.dims[1:])
    for src, dst in enumerate(mapping):
        out[dst] += arr[src]
    return JointTable((out_dim,) + table.dims[1:], out.reshape(-1))


def test_data_processing_on_random_tables():
    rng = np.random.default_rng(303)
    for _ in range(100):
        dims = (int(rng.integers(3, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        t = random_table(rng, dims)
        mapping = [int(v) for v in rng.integers(0, 2, size=dims[0])]
        coarse = coarse_grain_first_variable(t, mapping, 2)
        full = conditional_mutual_information(t, 0, 1, (2,))
        processed = conditional_mutual_information(coarse, 0, 1, (2,))
        assert full >= processed - 1e-9


def test_relabeling_symmetry():
    rng = np.random.default_rng(404)
    for _ in range(50):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        t = random_table(rng, dims)
        base = conditional_mutual_information(t, 0, 1, (2,))
        for axis in range(3):
            perm = rng.permutation(dims[axis])
            arr = t.probs.reshape(dims)
            relabeled = JointTable(dims, np.take(arr, perm, axis=axis).reshape(-1))
            assert conditional_mutual_information(relabeled, 0, 1, (2,)) == pytest.approx(
                base, abs=1e-9
            )


def test_merge_variables_shapes_and_errors():
    t = JointTable((2, 3, 2), np.full(12, 1.0 / 12.0))
    merged = merge_variables(t, 1, 2)
    assert merged.dims == (2, 6)
    merged2 = merge_variables(t, 2, 1)
    assert merged2.dims == (2, 6)
    with pytest.raises(ArgumentError):
        merge_variables(t, 1, 1)
    with pytest.raises(ArgumentError):
        merge_variables(t, 0, 5)


def test_tolerance_constant():
    assert TOLERANCE == 1e-9
