"""Fixture: guarded and unguarded admission calls (the PR 1 leak class)."""


def leaky(resource, env):
    req = resource.request()               # no cancel on the failure path
    yield req
    yield 10.0
    resource.release()


def leaky_acquire(resource, env):
    yield from resource.acquire()          # no release at all
    yield 10.0


def guarded_finally(resource, env):
    yield from resource.acquire()
    try:
        yield 10.0
    finally:
        resource.release()


def guarded_handler(resource, env):
    req = resource.request()
    try:
        yield req
        yield 10.0
    except BaseException:
        resource.cancel(req)
        raise
    resource.release()
