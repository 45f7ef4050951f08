"""One derandomized Hypothesis profile for every property test, so that each
run draws the same examples; tests set their own `max_examples`."""

try:
    import hypothesis
except ImportError:  # the property tests skip themselves
    pass
else:
    hypothesis.settings.register_profile(
        "derandomized", derandomize=True, database=None, deadline=None)
    hypothesis.settings.load_profile("derandomized")
