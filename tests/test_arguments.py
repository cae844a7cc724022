"""Every numeric argument of the public API ends in a result or a clean refusal.

``INT_PARAMETERS`` and ``REAL_PARAMETERS`` map each public numeric parameter,
named "callable.parameter", to a call that puts one value there and small
valid values everywhere else.  The property puts one bad value at a time
into one of them: the call either returns, where the value is legal (such as
a huge ``precision``), or raises an ``IcboundsError`` whose message is under
200 characters, within a second.  No ``ValueError``, ``OverflowError`` or
``MemoryError`` may escape.  ``RECORD_FIELDS`` lists the numeric fields of
the records the library builds itself, which it does not check, and
``test_the_tables_name_every_numeric_parameter`` walks the package's exports,
so that a new entry point cannot be left out of the tables.
"""

import inspect
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icbounds
from icbounds import (
    CLASS_REPRESENTATIVES,
    ArgumentError,
    Asymmetric,
    BooleanFunction,
    Deterministic,
    Disjointness,
    Equality,
    FunctionFamily,
    Index,
    InnerProduct,
    InputDistribution,
    IcboundsError,
    JointTable,
    KIntersect,
    Ordering,
    Symmetric,
    apply_x_substitution,
    binary_entropy,
    bits_to_index,
    box_count,
    build_family,
    census,
    census_table,
    conditional_mutual_information,
    decompose,
    entropy,
    eq_closed_form_deterministic,
    eq_closed_form_one_sided,
    eq_closed_form_symmetric,
    index_to_bits,
    kint_analytic_bound,
    make_ordering,
    max_bias,
    merge_variables,
    oracle_check,
    per_ordering_signature,
    success_probability,
    violation_check,
)

F = BooleanFunction(2, 2, [0, 1, 1, 0])
KINT = build_family(KIntersect(4, 2))
TABLE = JointTable((2, 2, 2), [0.125] * 8)
IP2 = decompose(build_family(InnerProduct(2)))
INDEX2_BOXES = [1.0] * box_count(build_family(Index(2)))
FIVE = CLASS_REPRESENTATIVES["V"]

INT_PARAMETERS = {
    "BooleanFunction.x_size": lambda v: BooleanFunction(v, 2, [0, 1, 1, 0]),
    "BooleanFunction.y_size": lambda v: BooleanFunction(2, v, [0, 1, 1, 0]),
    "BooleanFunction.bit.x": lambda v: F.bit(v, 0),
    "BooleanFunction.bit.y": lambda v: F.bit(0, v),
    "BooleanFunction.column.y": lambda v: F.column(v),
    "BooleanFunction.bits_at.y": lambda v: F.bits_at(np.array([0, 1]), v),
    "BooleanFunction.row.x": lambda v: F.row(v),
    "BooleanFunction.packed_rows.xs": lambda v: F.packed_rows([0, v]),
    "BooleanFunction.packed_rows.cols": lambda v: F.packed_rows(None, [0, v]),
    "bits_to_index.bits": lambda v: bits_to_index([1, v]),
    "index_to_bits.index": lambda v: index_to_bits(v, 4),
    "index_to_bits.n": lambda v: index_to_bits(3, v),
    "FunctionFamily.n": lambda v: FunctionFamily(v),
    "Index.n": lambda v: Index(v),
    "InnerProduct.n": lambda v: InnerProduct(v),
    "Disjointness.n": lambda v: Disjointness(v),
    "Equality.n": lambda v: Equality(v),
    "KIntersect.n": lambda v: KIntersect(v, 1),
    "KIntersect.k": lambda v: KIntersect(4, v),
    "build_family.n": lambda v: build_family(Equality(v)),
    "apply_x_substitution.sigma": lambda v: apply_x_substitution(F, [0, v]),
    "InputDistribution.uniform.x_size": lambda v: InputDistribution.uniform(v),
    "Ordering.perm": lambda v: Ordering((0, v)),
    "Deterministic.guess_probabilities.value": lambda v: Deterministic().guess_probabilities(v),
    "Symmetric.guess_probabilities.value": lambda v: Symmetric(0.1).guess_probabilities(v),
    "Asymmetric.guess_probabilities.value": lambda v: Asymmetric(0.1, 0.2).guess_probabilities(v),
    "make_ordering.k": lambda v: make_ordering("kint-proof", KINT, k=v),
    "make_ordering.threads": lambda v: make_ordering("natural", F, threads=v),
    "eq_closed_form_deterministic.n": lambda v: eq_closed_form_deterministic(v),
    "eq_closed_form_symmetric.n": lambda v: eq_closed_form_symmetric(v, 0.1),
    "eq_closed_form_one_sided.n": lambda v: eq_closed_form_one_sided(v, 0.1),
    "kint_analytic_bound.n": lambda v: kint_analytic_bound(v, 1, 0.1),
    "kint_analytic_bound.k": lambda v: kint_analytic_bound(6, v, 0.1),
    "oracle_check.cases": lambda v: oracle_check(cases=v, max_size=3),
    "oracle_check.seed": lambda v: oracle_check(cases=2, seed=v, max_size=3),
    "oracle_check.max_size": lambda v: oracle_check(cases=2, max_size=v),
    "JointTable.dims": lambda v: JointTable((2, v), [0.25] * 4),
    "conditional_mutual_information.a": lambda v: conditional_mutual_information(TABLE, v, 1, (2,)),
    "conditional_mutual_information.b": lambda v: conditional_mutual_information(TABLE, 0, v, (2,)),
    "conditional_mutual_information.c": lambda v: conditional_mutual_information(TABLE, 0, 1, (v,)),
    "merge_variables.i": lambda v: merge_variables(TABLE, v, 1),
    "merge_variables.j": lambda v: merge_variables(TABLE, 0, v),
    "VanDamDecomposition.value.x": lambda v: IP2.value(v, 0),
    "VanDamDecomposition.value.y": lambda v: IP2.value(0, v),
    "VanDamDecomposition.subset.mask": lambda v: IP2.subset(v),
    "violation_check.message_bits": lambda v: violation_check(Index(2), INDEX2_BOXES, v),
    "max_bias.message_bits": lambda v: max_bias(Index(2), v),
    "per_ordering_signature.perm": lambda v: per_ordering_signature(FIVE, (0, 1, 2, v)),
    "census.threads": lambda v: census(threads=v),
    "census_table.threads": lambda v: census_table(threads=v),
}

REAL_PARAMETERS = {
    "InputDistribution.weights": lambda v: InputDistribution([1.0, v]),
    "Symmetric.eps": lambda v: Symmetric(v),
    "Asymmetric.eps_i": lambda v: Asymmetric(v, 0.1),
    "Asymmetric.eps_ii": lambda v: Asymmetric(0.1, v),
    "eq_closed_form_symmetric.eps": lambda v: eq_closed_form_symmetric(2, v),
    "eq_closed_form_one_sided.eps_ii": lambda v: eq_closed_form_one_sided(2, v),
    "kint_analytic_bound.eps": lambda v: kint_analytic_bound(6, 2, v),
    "binary_entropy.p": lambda v: binary_entropy(v),
    "entropy.probs": lambda v: entropy([0.5, v]),
    "JointTable.probs": lambda v: JointTable((2,), [v, 0.0]),
    "success_probability.biases": lambda v: success_probability(IP2, [0.9, v]),
    "max_bias.precision": lambda v: max_bias(Index(2), 1, v),
}

#: Numeric fields of records the library builds and does not check.
RECORD_FIELDS = {
    "BoundReport.total",
    "ViolationReport.success_probability",
    "ViolationReport.epsilon",
    "ViolationReport.message_bits",
    "ViolationReport.bound_total",
    "VanDamDecomposition.x_size",
    "VanDamDecomposition.y_bits",
}

BAD_INTEGERS = (10**5000, -(10**5000), 2**64, True, 1.5, math.nan)
BAD_REALS = (10**5000, -(10**5000), math.inf, -math.inf, math.nan)


def _returns_or_refuses_briefly(call, value):
    start = time.perf_counter()
    try:
        call(value)
    except IcboundsError as exc:
        assert len(str(exc)) < 200, str(exc)
    assert time.perf_counter() - start < 1.0


def _examples(values):
    """Hypothesis tries each of ``values`` before any value it draws."""
    def decorate(test):
        for value in values:
            test = example(value=value)(test)
        return test
    return decorate


@pytest.mark.parametrize("name", sorted(INT_PARAMETERS))
@_examples(BAD_INTEGERS)
@settings(max_examples=15, deadline=None)
@given(value=st.one_of(
    st.integers(min_value=2**63), st.integers(max_value=-1), st.floats(), st.booleans()
))
def test_a_bad_integer_argument_is_refused_or_legal(name, value):
    _returns_or_refuses_briefly(INT_PARAMETERS[name], value)


@pytest.mark.parametrize("name", sorted(REAL_PARAMETERS))
@_examples(BAD_REALS)
@settings(max_examples=15, deadline=None)
@given(value=st.one_of(
    st.floats(), st.integers(min_value=2**1024), st.integers(max_value=-(2**1024))
))
def test_a_bad_real_argument_is_refused_or_legal(name, value):
    _returns_or_refuses_briefly(REAL_PARAMETERS[name], value)


def _numeric_parameters():
    """Every "callable.parameter" of the package's exports annotated int or
    float: functions, constructors and dataclass fields, and public methods."""
    numeric = re.compile(r"(Optional\[)?(int|float)\]?")
    found = set()
    for name in dir(icbounds):
        obj = getattr(icbounds, name)
        if name.startswith("_") or not callable(obj):
            continue
        targets = [(name, obj)]
        if inspect.isclass(obj):
            for attr in dir(obj):
                method = inspect.getattr_static(obj, attr)
                if isinstance(method, (classmethod, staticmethod)):
                    method = method.__func__
                if not attr.startswith("_") and inspect.isfunction(method):
                    targets.append((f"{name}.{attr}", method))
        for label, target in targets:
            try:
                parameters = inspect.signature(target).parameters.values()
            except (TypeError, ValueError):
                continue
            for p in parameters:
                if isinstance(p.annotation, str) and numeric.fullmatch(p.annotation):
                    found.add(f"{label}.{p.name}")
                elif p.annotation in (int, float):
                    found.add(f"{label}.{p.name}")
    return found


def test_the_tables_name_every_numeric_parameter():
    named = set(INT_PARAMETERS) | set(REAL_PARAMETERS) | RECORD_FIELDS
    assert _numeric_parameters() - named == set()
    # The walk finds the parameters it should.
    assert {"KIntersect.k", "Symmetric.eps", "max_bias.precision"} <= _numeric_parameters()


@pytest.mark.parametrize("channel", [Deterministic(), Symmetric(0.1), Asymmetric(0.1, 0.2)])
def test_guess_probabilities_takes_only_a_function_value(channel):
    for value in (1.5, -1, math.nan, 2, True):
        with pytest.raises(ArgumentError, match="value must"):
            channel.guess_probabilities(value)
    assert channel.guess_probabilities(np.int64(1)) == channel.guess_probabilities(1)
    assert channel.guess_probabilities(0) != channel.guess_probabilities(1)


def test_uniform_refuses_more_weights_than_numpy_can_address():
    # 2**62 float64 weights take 2**65 bytes; the refusal allocates nothing.
    with pytest.raises(ArgumentError, match="x_size must lie in"):
        InputDistribution.uniform(2**62)
