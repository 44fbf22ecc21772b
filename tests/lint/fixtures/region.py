"""Fixture: region access that bypasses the RaceAuditor or the wait."""


def poke(region, addr, value):
    region._store(addr, value)             # internal store
    region._words[addr // 8] = value       # raw buffer write
    region.remote_write(addr, value)       # NIC landing API outside verbs
    region.remote_rmw_commit(addr, value)  # NIC landing API outside verbs
    region.watch(addr)                     # raw park: armed after the check
    region.watch_any([addr])               # the same, on several words


def fine(region, addr, value, actor):
    region.write(addr, value, actor)       # audited accessor
    return region.peek(addr)               # oracle read: allowed
