"""Fixture: the ``admit()`` hold idiom of the NIC round trip, and the
ways to get it wrong."""


def leaky(resource):
    grant = resource.admit()               # no cancel on the failure path
    if grant is not None:
        yield grant
    yield 10.0
    resource.release()


def never_released(resource):
    grant = resource.admit()               # cancelled on failure, but the
    try:                                   # normal path keeps the slot
        if grant is not None:
            yield grant
        yield 10.0
    except BaseException:
        resource.cancel(grant)
        raise


def hold(resource):
    grant = resource.admit()
    try:
        if grant is not None:
            yield grant
        yield 10.0
    except BaseException:
        resource.cancel(grant)
        raise
    resource.release()


def two_holds(first, second):
    grant = first.admit()
    try:
        if grant is not None:
            yield grant
        yield 10.0
    except BaseException:
        first.cancel(grant)
        raise
    first.release()
    grant = second.admit()
    try:
        if grant is not None:
            yield grant
        yield 20.0
    finally:
        second.cancel(grant)
