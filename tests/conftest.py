import pytest

from gratescat import forward


@pytest.fixture(autouse=True)
def empty_stack_memo():
    """Start every test with no memoised layer stack and no seen key.

    A stack memoised by an earlier test would let a later one skip the build
    it counts or patches.
    """
    forward._STACKS.clear()
    forward._SEEN.clear()
