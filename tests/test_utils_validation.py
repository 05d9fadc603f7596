"""Unit tests for repro.utils.validation."""

import pytest

from repro.utils.validation import ValidationError, ensure_non_negative, ensure_positive


class TestEnsurePositive:
    def test_accepts_positive(self):
        assert ensure_positive(2.5) == 2.5

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            ensure_positive(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ensure_positive(-1.0, "length")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            ensure_positive(float("nan"))

    def test_error_message_contains_name(self):
        with pytest.raises(ValidationError, match="radius"):
            ensure_positive(-3, "radius")


class TestEnsureNonNegative:
    def test_accepts_zero(self):
        assert ensure_non_negative(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ensure_non_negative(-0.1)
