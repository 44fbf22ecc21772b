"""Fixture for the emit-format rule: events are reported raw."""


def formatted(ctx, lock, attempts, prev):
    ctx.emit(ctx.actor, "cs.enter", f"{lock.name} after {attempts} rCAS")  # finding: f-string
    ctx.emit(ctx.actor, "mcs.swap", "%s prev=%d" % (lock.name, prev))      # finding: % format
    ctx.emit(ctx.actor, "mcs.swap", "{} prev={}".format(lock.name, prev))  # finding: .format
    ctx.emit(ctx.actor, "mcs.swap", lock.name, str(prev))                  # finding: str()
    lock._emit(f"n{lock.home_node}", "verb.timeout", "rCAS", 1)            # finding: the actor too


# -- fine -----------------------------------------------------------------

def raw(ctx, lock, attempts, prev):
    ctx.emit(ctx.actor, "lock.acquired", lock.name, "after %d rCAS", attempts)
    ctx.emit(ctx.actor, "mcs.swap", lock.name, "local", prev)
    ctx.emit(ctx.actor, "mcs.pass", lock.name, "local", prev % 8 - 1)   # arithmetic


def not_an_emit(ctx, journal, lock):
    journal.note(f"{lock.name} acquired")          # some other sink
    return f"{ctx.actor} holds {lock.name}"        # formatting is fine elsewhere
