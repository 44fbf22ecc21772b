"""Fixture for the bare-timeout rule: letting time pass has one idiom."""

from repro.sim.core import Timeout


def old_idiom(env, ctx, delay_ns):
    yield Timeout(env, delay_ns)             # finding: bare Timeout
    yield env.timeout(delay_ns)              # finding: bare factory call
    yield ctx.env.timeout(delay_ns)          # finding: through a chain


# -- fine -----------------------------------------------------------------

def sleeps(delay_ns):
    yield delay_ns                           # the sleep form
    yield float(delay_ns)


def composes(env, waiter, lease_ns):
    timer = env.timeout(lease_ns)            # bound: composed below
    yield env.any_of([waiter, timer])
    value = yield env.timeout(lease_ns, value="late")   # the value is used
    return value


def outside_a_process(env):
    return Timeout(env, 5.0)                 # not a yield at all
