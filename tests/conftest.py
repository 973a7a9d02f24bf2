"""The walls' tests live in ``tests/walls`` and are collected from the
layer test modules that import them: pytest rewrites their asserts too."""

import pytest

pytest.register_assert_rewrite("tests.walls")
