from hypothesis import settings

# Property tests draw the same examples on every run: no random seed, no
# example database under .hypothesis/, and no per-example deadline on a
# loaded machine.
settings.register_profile("default", derandomize=True, deadline=None)
settings.load_profile("default")
