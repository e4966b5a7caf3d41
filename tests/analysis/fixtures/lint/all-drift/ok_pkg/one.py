# repro: module(repro.examplepkg.one)
"""Child module with a declared public surface."""

__all__ = ["alpha", "beta"]


def alpha() -> int:
    return 1


def beta() -> int:
    return 2
