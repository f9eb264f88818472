"""Unit tests for repro.core.node."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.node import Node, _check_positive, overhead_key, same_type
from repro.exceptions import ModelError


class TestNodeValidation:
    def test_valid_node(self):
        nd = Node("w0", 2, 3)
        assert nd.send_overhead == 2
        assert nd.receive_overhead == 3

    def test_float_overheads_accepted(self):
        nd = Node("w0", 1.5, 2.25)
        assert nd.ratio == pytest.approx(1.5)

    @pytest.mark.parametrize("send", [0, -1, -0.5])
    def test_nonpositive_send_rejected(self, send):
        with pytest.raises(ModelError, match="send overhead"):
            Node("w0", send, 1)

    @pytest.mark.parametrize("recv", [0, -2])
    def test_nonpositive_receive_rejected(self, recv):
        with pytest.raises(ModelError, match="receive overhead"):
            Node("w0", 1, recv)

    def test_nan_rejected(self):
        with pytest.raises(ModelError):
            Node("w0", float("nan"), 1)

    def test_infinity_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            Node("w0", 1, float("inf"))

    def test_bool_overhead_rejected(self):
        with pytest.raises(ModelError):
            Node("w0", True, 1)

    def test_string_overhead_rejected(self):
        with pytest.raises(ModelError):
            Node("w0", "2", 1)

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError, match="name"):
            Node("", 1, 1)

    def test_non_string_name_rejected(self):
        with pytest.raises(ModelError, match="name"):
            Node(7, 1, 1)


class TestNodeDerived:
    def test_ratio(self):
        assert Node("w", 2, 3).ratio == pytest.approx(1.5)

    def test_type_key(self):
        assert Node("a", 2, 3).type_key == (2, 3)

    def test_same_type_true(self):
        assert same_type(Node("a", 2, 3), Node("b", 2, 3))

    def test_same_type_false(self):
        assert not same_type(Node("a", 2, 3), Node("b", 2, 4))

    def test_overhead_key_orders_by_send_then_receive(self):
        nodes = [Node("a", 2, 3), Node("b", 1, 1), Node("c", 2, 3)]
        ordered = sorted(nodes, key=overhead_key)
        assert [n.name for n in ordered] == ["b", "a", "c"]

    def test_frozen(self):
        nd = Node("w", 1, 1)
        with pytest.raises(AttributeError):
            nd.send_overhead = 5

    def test_equality_ignores_meta(self):
        assert Node("w", 1, 1, meta=(("rack", "r1"),)) == Node("w", 1, 1)


class TestNodeTransforms:
    def test_renamed(self):
        nd = Node("w", 2, 3).renamed("x")
        assert nd.name == "x" and nd.type_key == (2, 3)

    def test_with_overheads(self):
        nd = Node("w", 2, 3).with_overheads(4, 8)
        assert nd.type_key == (4, 8) and nd.name == "w"

    def test_swapped(self):
        nd = Node("w", 2, 3).swapped()
        assert nd.send_overhead == 3 and nd.receive_overhead == 2

    def test_swapped_is_involution(self):
        nd = Node("w", 2, 3)
        assert nd.swapped().swapped() == nd

    def test_str_contains_overheads(self):
        assert "s=2" in str(Node("w", 2, 3)) and "r=3" in str(Node("w", 2, 3))


def _old_check_positive(value, what, name):
    """The overhead check as it stood before its plain-number fast path."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ModelError(f"{what} of node {name!r} must be a number, got {value!r}")
    if not value > 0:
        raise ModelError(f"{what} of node {name!r} must be positive, got {value!r}")
    if value != value or value in (float("inf"), float("-inf")):
        raise ModelError(f"{what} of node {name!r} must be finite, got {value!r}")


def _outcome(check, value):
    try:
        check(value, "send overhead", "w0")
    except ModelError as exc:
        return str(exc)
    return None


class _Float(float):
    pass


class _Int(int):
    pass


class _Weird(float):
    """A float subclass whose comparisons lie: only the full path sees it."""

    def __gt__(self, other):
        return False


class TestCheckParity:
    """The fast path accepts and rejects exactly what the old check did,
    with the same messages."""

    @pytest.mark.parametrize(
        "value",
        [
            1, 2, 10**400, -(10**400), 0, -1, 0.0, -0.0, 5e-324, 1e308,
            1.5, -2.5, float("nan"), float("inf"), float("-inf"),
            True, False, _Float(2.0), _Float(float("nan")), _Float(-1.0),
            _Int(3), _Int(0), _Weird(2.0), "1", None, [1],
            Decimal("1.5"), Fraction(1, 2), complex(1, 0),
        ],
        ids=repr,
    )
    def test_explicit_values(self, value):
        assert _outcome(_check_positive, value) == _outcome(
            _old_check_positive, value
        )

    def test_numpy_scalars(self):
        np = pytest.importorskip("numpy")
        for value in (
            np.float64(2.5), np.float64(0.0), np.float64("nan"),
            np.float64("inf"), np.int64(3), np.float32(1.5), np.bool_(True),
        ):
            assert _outcome(_check_positive, value) == _outcome(
                _old_check_positive, value
            ), value

    @given(
        value=st.one_of(
            st.integers(),
            st.floats(allow_nan=True, allow_infinity=True),
            st.booleans(),
            st.floats(allow_nan=True).map(_Float),
            st.integers().map(_Int),
        )
    )
    def test_any_number(self, value):
        assert _outcome(_check_positive, value) == _outcome(
            _old_check_positive, value
        )
        if _outcome(_check_positive, value) is None:
            assert 0 < value < math.inf
