import os
import sys

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that replays a failure with @reproduce_failure
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines even when capture hides them."""
    for name, mod in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(mod, "RESULTS", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            break
