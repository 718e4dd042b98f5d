"""Order-preserving map over independent samples."""


def map_ordered(fn, items):
    """[fn(item) for item in items], in item order."""
    return [fn(item) for item in items]
