import os

import hypothesis

hypothesis.settings.register_profile("default", deadline=None)
# CI: a fixed example order, and a failing example printed as a reproduction blob
hypothesis.settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
