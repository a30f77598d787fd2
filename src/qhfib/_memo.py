"""The one memo behind every value an object derives once and keeps."""

import functools

_MISSING = object()


def kept(build=None, *, convert=None, copy=None):
    """Keep build(owner, *args) in owner._kept, a dict the owner's
    constructor makes, under (build's qualified name, args), each argument
    first passed through `convert`. A miss builds and keeps the value; a
    raise keeps nothing, so the next call builds and raises again. `copy`
    makes each value handed out, for callers that may edit it. Owners never
    change, so nothing goes stale."""
    if build is None:
        return functools.partial(kept, convert=convert, copy=copy)
    name = build.__qualname__

    @functools.wraps(build)
    def get(owner, *args):
        if convert is not None:
            args = tuple(map(convert, args))
        key, memo = (name, args), owner._kept
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = build(owner, *args)
        return value if copy is None else copy(value)

    get.kept = build
    return get
