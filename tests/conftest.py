"""Suite-wide Hypothesis settings.

One profile, loaded for every test: it keeps Hypothesis' defaults and adds
print_blob, so a failing property prints the @reproduce_failure line that
replays its example, even when the failure is too rare to meet again.
"""

from hypothesis import settings

settings.register_profile("pedallab", print_blob=True)
settings.load_profile("pedallab")
