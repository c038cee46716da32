from hypothesis import settings

# one rule for every @given test: no per-example deadline, a wall-clock
# heuristic that fails a loaded runner with "Unreliable test timings"; each
# test's own settings keep only its example count and health checks
settings.register_profile("peakcast", deadline=None)
settings.load_profile("peakcast")
