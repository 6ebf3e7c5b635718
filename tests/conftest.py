"""One hypothesis profile for the suite: no per-example deadline, since an
example's time depends on the host more than on the code.  Each test sets
its own max_examples."""

from hypothesis import settings

settings.register_profile("apds", deadline=None)
settings.load_profile("apds")
